"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import strategies as st

import agentopt.distance as distance_module
from agentopt.cli import fold_tokens
from agentopt.core import Candidate, DomainKind, History, canonicalize
from agentopt.domains import make_domain
from agentopt.events import EVENTS_FILE, HISTORY_FILE, SUMMARY_FILE, read_log, read_steps

LETTERS = "ACDEFGHIKLMNPQRSTVWY"


def cand(text: str, kind: DomainKind = DomainKind.GENERIC) -> Candidate:
    return canonicalize(text, kind)


def make_history(
    scores: list[float],
    kind: DomainKind = DomainKind.GENERIC,
    prefix: str = "S",
) -> History:
    """History with the given scores and synthetic distinct candidates."""
    history = History()
    for i, score in enumerate(scores):
        history.append(cand(f"{prefix}{i:04d}", kind), score, origin="init")
    return history


def random_history(
    rng: random.Random,
    size: int,
    kind: DomainKind = DomainKind.GENERIC,
    min_len: int = 5,
    max_len: int = 20,
) -> History:
    """History of random distinct strings with random scores."""
    history = History()
    seen: set[str] = set()
    while len(history) < size:
        length = rng.randint(min_len, max_len)
        text = "".join(rng.choice(LETTERS) for _ in range(length))
        if text in seen:
            continue
        seen.add(text)
        history.append(cand(text, kind), rng.uniform(0.0, 100.0), origin="init")
    return history


def candidates_reply(items: list[str]) -> str:
    return json.dumps({"candidates": items})


def write_script(path, replies: list[tuple[str, str]]) -> None:
    """Write (role, reply) pairs as a scripted-backend JSONL file."""
    lines = [
        json.dumps({"match": {"role": role}, "reply": reply})
        for role, reply in replies
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_events_agree(run_dir: Path, tokens: Optional[dict] = None) -> None:
    """The events of ``run_dir`` rebuild its history.jsonl and fold to its token totals.

    ``tokens`` is the run's ``TokenLedger`` report, by default the one in its
    summary.json.
    """
    steps = read_steps(run_dir / EVENTS_FILE)
    assert steps.rows == read_log(run_dir / HISTORY_FILE)
    if tokens is None:
        tokens = json.loads((run_dir / SUMMARY_FILE).read_text(encoding="utf-8"))["tokens"]
    assert fold_tokens(steps) == tokens


def long_text(alphabet: str, max_size: int = 150) -> st.SearchStrategy[str]:
    """Text with its length drawn from 0..max_size.

    ``st.text(max_size=150)`` alone almost never goes past 64 characters,
    one machine word of a bit-parallel kernel.
    """
    return st.integers(0, max_size).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n)
    )


def diverse_init(n: int = 10, length: int = 6) -> list[str]:
    """Mutually distant strings (distinct repeated letters), all scoring 0
    under a count-of-A objective."""
    letters = "BDEFGHIKLMNPQRSTVWY"
    assert n <= len(letters)
    return [letters[i] * length for i in range(n)]


def multi_round_replies(n_rounds: int) -> list[tuple[str, str]]:
    """Scripted scenario driving ``n_rounds`` full loop rounds.

    Per round, under a count-of-A oracle: one improving proposal batch, three
    failing ones (patience exit), a planner reusing SIMILAR, and six worker
    calls (1 task x 2 seeds x 3 parse failures). Four evaluations land per
    round, so a budget of ``len(init) + 4 * n_rounds`` ends the run exactly
    at round ``n_rounds``'s final proposal batch.
    """
    replies: list[tuple[str, str]] = []
    for r in range(1, n_rounds + 1):
        replies.append(("explorer", candidates_reply(["A" * r])))
        for i in range(3):
            replies.append(("explorer", candidates_reply([f"Z{r}B{i}"])))
        if r < n_rounds:
            replies.append(("planner", '{"SIMILAR": "USE_EXISTING"}'))
            replies += [("worker", "no json in this reply")] * 6
    return replies


@pytest.fixture
def kernel_calls(monkeypatch) -> list[tuple[str, str]]:
    """Kernel calls, counted at ``agentopt.distance.levenshtein``.

    Every distance path looks the kernel up there, and the benchmark's
    tracer counts it there too.
    """
    calls: list[tuple[str, str]] = []
    kernel = distance_module.levenshtein

    def counting(a: str, b: str) -> int:
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(distance_module, "levenshtein", counting)
    return calls


@pytest.fixture(scope="session")
def peptide_domain():
    return make_domain(DomainKind.PEPTIDE)


@pytest.fixture(scope="session")
def smiles_domain():
    return make_domain(DomainKind.SMILES)


@pytest.fixture(scope="session")
def generic_domain():
    return make_domain(DomainKind.GENERIC)


class ScoreHandler(BaseHTTPRequestHandler):
    """Loopback HTTP scorer: ``{"candidate": text}`` in, ``{"score": ...}`` out.

    The ``score_server`` fixture sets the class attributes on a fresh
    subclass: ``statuses`` are answered first, one per request, then 200s
    carrying ``score(text)``; with ``hang`` set, no request is answered until
    the test ends. ``candidates`` records every request in order.
    """

    statuses: list[int]
    candidates: list[str]
    hang: bool
    release: threading.Event

    @staticmethod
    def score(text: str):
        return float(text.count("A"))

    def do_POST(self):
        text = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["candidate"]
        self.candidates.append(text)
        if self.hang:
            self.release.wait(10)
            return
        status = self.statuses.pop(0) if self.statuses else 200
        raw = json.dumps({"score": self.score(text)}).encode() if status == 200 else b""
        self.send_response(status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def score_server():
    """A running ``ScoreHandler`` subclass; its ``url`` is where to POST."""
    handler = type(
        "Handler",
        (ScoreHandler,),
        {"statuses": [], "candidates": [], "hang": False, "release": threading.Event()},
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    handler.url = f"http://127.0.0.1:{server.server_address[1]}/score"
    yield handler
    handler.release.set()
    server.shutdown()
    server.server_close()
