"""Prompt assembly and reply parsing for the three agent roles.

Templates live as UTF-8 text files with ``{name}`` placeholders and are
loaded once at startup, so prompt edits never require a code change. Parsing
is deliberately forgiving: agent replies arrive wrapped in prose, code
fences, and chain-of-thought, and the last well-formed JSON answer wins.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .core import ObjectiveSpec
from .errors import ConfigError, MissingPlaceholder, NoCandidatesFound, NoPlanFound

_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

TEMPLATE_FILES = {
    "explorer_template": "explorer.txt",
    "planner_template": "planner.txt",
    "worker_prefix": "worker_prefix.txt",
    "worker_suffix": "worker_suffix.txt",
    "worker_user_template": "worker_user.txt",
    "task_awareness_slot": "task_awareness.txt",
}


@dataclass(frozen=True)
class PromptPack:
    """The full template set for one domain."""

    explorer_template: str
    planner_template: str
    worker_prefix: str
    worker_suffix: str
    worker_user_template: str
    task_awareness_slot: str


def load_prompt_pack(directory: Path) -> PromptPack:
    """Read the six template files from ``directory``.

    Raises ``ConfigError`` naming the missing path if any file is absent.
    """
    texts = {}
    for attr, filename in TEMPLATE_FILES.items():
        path = Path(directory) / filename
        if not path.is_file():
            raise ConfigError(f"missing template file: {path}")
        texts[attr] = path.read_text(encoding="utf-8").rstrip("\n")
    return PromptPack(**texts)


def render_template(template: str, values: dict[str, str]) -> str:
    """Substitute ``{name}`` placeholders; unknown names raise."""

    def _sub(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise MissingPlaceholder(f"template references unsupplied placeholder {{{name}}}")
        return values[name]

    return _PLACEHOLDER.sub(_sub, template)


def build_explorer_prompt(
    pack: PromptPack,
    ctx_text: str,
    best_score_text: str,
    objective: ObjectiveSpec,
) -> str:
    """Instantiate the global-proposal prompt around the rendered context."""
    if not ctx_text.strip():
        raise ValueError("context text must be non-empty")
    prompt = render_template(
        pack.explorer_template,
        {"C_global": ctx_text, "best_score": best_score_text},
    )
    return _append_objective_description(prompt, pack, objective)


def build_planner_prompt(
    pack: PromptPack,
    ctx_text: str,
    stats_text: str,
    summary_text: str,
    objective: ObjectiveSpec,
) -> str:
    """Instantiate the task-planning prompt with stats and task summaries."""
    if not ctx_text.strip():
        raise ValueError("context text must be non-empty")
    prompt = render_template(
        pack.planner_template,
        {
            "C_global": ctx_text,
            "performance_stats": stats_text,
            "existing_tasks_summary": summary_text,
        },
    )
    return _append_objective_description(prompt, pack, objective)


def _append_objective_description(
    prompt: str, pack: PromptPack, objective: ObjectiveSpec
) -> str:
    if not objective.description:
        return prompt
    section = render_template(
        pack.task_awareness_slot, {"description": objective.description}
    )
    return prompt + "\n\n" + section


def build_worker_prompts(
    pack: PromptPack, task_text: str, x_curr: str
) -> tuple[str, str]:
    """Compose the (system, user) pair for one local-search iteration.

    The system prompt is the fixed domain prefix, the task text, and the
    fixed domain suffix; the user prompt carries only the current incumbent.
    """
    if not task_text.strip():
        raise ValueError("task text must be non-empty")
    system = "\n\n".join(
        [pack.worker_prefix.strip(), task_text.strip(), pack.worker_suffix.strip()]
    )
    user = render_template(pack.worker_user_template, {"x_curr": x_curr})
    return system, user


# ---------------------------------------------------------------------------
# Reply parsing
# ---------------------------------------------------------------------------

_DECODER = json.JSONDecoder()


def _iter_json_objects(text: str) -> Iterator[object]:
    """Yield every JSON value that starts at a ``{`` anywhere in ``text``.

    Scans overlapping positions, so objects nested inside reasoning or code
    fences are all seen; callers keep the last one that fits their shape.
    """
    idx = 0
    while True:
        start = text.find("{", idx)
        if start == -1:
            return
        try:
            value, _ = _DECODER.raw_decode(text, start)
        except (ValueError, RecursionError):  # or nested too deep: no object starts here
            pass
        else:
            yield value
        idx = start + 1


def parse_candidates(reply: str) -> list[str]:
    """Extract the candidate list from a free-form agent reply.

    Takes the last well-formed JSON object whose ``candidates`` key maps to
    an array; non-string and empty items are dropped. Raises
    ``NoCandidatesFound`` when no such object exists.
    """
    found: Optional[list] = None
    for value in _iter_json_objects(reply):
        if isinstance(value, dict) and isinstance(value.get("candidates"), list):
            found = value["candidates"]
    if found is None:
        raise NoCandidatesFound("reply contains no parseable candidates object")
    return [item for item in found if isinstance(item, str) and item.strip()]


def parse_planner_reply(reply: str) -> dict[str, str]:
    """The task plan in a planner reply: the last JSON object whose values are
    all strings, each naming a task to reuse (``USE_EXISTING``) or the text of
    a new one. Raises ``NoPlanFound`` when no plan object exists at all.
    """
    plan: Optional[dict] = None
    for value in _iter_json_objects(reply):
        if (
            isinstance(value, dict)
            and value
            and all(isinstance(v, str) for v in value.values())
        ):
            plan = value
    if plan is None:
        raise NoPlanFound("reply contains no parseable task plan object")
    return plan
