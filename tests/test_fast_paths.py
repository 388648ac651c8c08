"""The distance fast paths change no run.

Each drawn config runs twice: as built, and with three plain stand-ins for
the fast paths: the full-matrix kernel, which ignores the match masks, the
template constraint's float rule over that kernel with the templates in
config order, and the greedy walk's question asked of every kept text in
rank order through that kernel, without the index's memo, bounds or
witness. The logs must agree byte for byte, the events apart from their
wall-clock ``ts``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agentopt.distance as distance_module
from agentopt.cli import main
from agentopt.core import DomainKind
from agentopt.distance import EditDistanceIndex, normalized_edit_distance
from agentopt.domains import BUILTIN
from agentopt.events import EVENTS_FILE, HISTORY_FILE
from agentopt.filtering import TemplateSimilarityConstraint

from .conftest import reference_levenshtein, reference_similarity

TARGETS = {"smiles": "CCN(CC)CCOc1ccccc1", "peptide": "KLWKKLRWRLLKWLKK"}


def float_rule(self, candidate) -> bool:
    text = candidate.canonical
    return any(
        reference_similarity(text, t.canonical) >= self.min_similarity
        for t in self.templates
    )


def plain_fits(self, text, kept, threshold) -> bool:
    return all(normalized_edit_distance(text, k) >= threshold for k in kept)


@st.composite
def run_configs(draw) -> dict:
    kind = draw(st.sampled_from(["smiles", "peptide"]))
    seed = draw(st.integers(0, 10_000))
    budget = draw(st.integers(20, 300))
    context_size = draw(st.integers(1, 30))
    config = {
        "run": {"seed": seed},
        "domain": {"kind": kind},
        "objective": {
            "direction": draw(st.sampled_from(["maximize", "minimize"])),
            "budget": budget,
        },
        "loop": {
            "seeds_m": draw(st.integers(1, 4)),
            "max_fails": draw(st.integers(1, 4)),
            "context": {"context_size": context_size, "top_k": draw(st.integers(1, context_size))},
        },
        "backends": {"default": {"kind": "mutator", "seed": seed}},
        "oracle": {
            "kind": "synthetic",
            "name": "motif-match",
            "params": {"target": TARGETS[kind]},
        },
        "init": {"count": min(budget, 20)},
    }
    if draw(st.booleans()):
        config["objective"]["portfolio"] = {
            "size": draw(st.integers(2, 20)),
            "beta": draw(st.sampled_from([0.25, 0.5, 0.75])),
        }
    if draw(st.booleans()):
        min_similarity = draw(
            st.sampled_from([0.3, 0.5, 0.75])
            | st.builds(lambda k, m: k / m, st.integers(1, 10), st.integers(10, 12))
        )
        config["constraint"] = {
            "kind": "template_similarity",
            "templates": list(BUILTIN[DomainKind(kind)].init_templates),
            "min_similarity": min_similarity,
        }
    return config


def run_logs(config: dict, out: Path) -> dict[str, bytes]:
    """``history.jsonl`` and ``events.jsonl`` without ``ts`` of one run."""
    path = out.with_suffix(".json")
    path.write_text(json.dumps({**config, "run": {**config["run"], "output_dir": str(out)}}))
    assert main(["run", "--config", str(path)]) == 0
    events = []
    for line in (out / EVENTS_FILE).read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        del event["ts"]
        events.append(json.dumps(event, ensure_ascii=False))
    return {"history": (out / HISTORY_FILE).read_bytes(), "events": "\n".join(events).encode()}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=run_configs())
def test_fast_paths_leave_every_log_as_the_plain_rules_write_it(config):
    with tempfile.TemporaryDirectory() as tmp:
        fast = run_logs(config, Path(tmp) / "fast")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distance_module, "levenshtein", reference_levenshtein)
            patch.setattr(TemplateSimilarityConstraint, "allows", float_rule)
            patch.setattr(EditDistanceIndex, "fits", plain_fits)
            plain = run_logs(config, Path(tmp) / "plain")
    assert fast == plain
