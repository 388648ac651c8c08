"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import contextlib
import io
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import strategies as st

import agentopt.distance as distance_module
import agentopt.engine as engine_module
import agentopt.events as events_module
from agentopt.backends import TokenLedger
from agentopt.cli import fold_tokens, main
from agentopt.core import Candidate, Direction, DomainKind, History, canonicalize
from agentopt.domains import make_domain
from agentopt.events import (
    CHECKPOINT_FILE,
    EVENTS_FILE,
    HISTORY_FILE,
    SUMMARY_FILE,
    read_log,
    read_steps,
)

LETTERS = "ACDEFGHIKLMNPQRSTVWY"


def cand(text: str, kind: DomainKind = DomainKind.GENERIC) -> Candidate:
    return canonicalize(text, kind)


def make_history(
    scores: list[float],
    kind: DomainKind = DomainKind.GENERIC,
    prefix: str = "S",
    direction: Direction = Direction.MAXIMIZE,
) -> History:
    """History with the given scores and synthetic distinct candidates."""
    history = History(direction)
    for i, score in enumerate(scores):
        history.append(cand(f"{prefix}{i:04d}", kind), score, origin="init")
    return history


def random_history(
    rng: random.Random,
    size: int,
    kind: DomainKind = DomainKind.GENERIC,
    min_len: int = 5,
    max_len: int = 20,
    direction: Direction = Direction.MAXIMIZE,
) -> History:
    """History of random distinct strings with random scores."""
    history = History(direction)
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
    """The events of ``run_dir`` rebuild its history.jsonl and fold to its token
    report, failed attempts included, which ``token-report`` prints whole.

    ``tokens`` is the run's ``TokenLedger`` report, by default the one in its
    summary.json.
    """
    steps = read_steps(run_dir / EVENTS_FILE)
    assert steps.rows == read_log(run_dir / HISTORY_FILE)
    if tokens is None:
        tokens = json.loads((run_dir / SUMMARY_FILE).read_text(encoding="utf-8"))["tokens"]
    assert fold_tokens(steps, TokenLedger()).report() == tokens
    assert token_report(run_dir) == render_token_report(tokens)


def token_report(run_dir: Path) -> str:
    """What ``agentopt token-report`` prints for ``run_dir``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["token-report", str(run_dir)]) == 0
    return out.getvalue()


def render_token_report(tokens: dict) -> str:
    """The lines ``token-report`` prints for a ``TokenLedger`` report, written
    out here from the report's fields."""

    def usage(row: dict) -> str:
        return (
            f"in={row['input_tokens']} out={row['output_tokens']} "
            f"total={row['total_tokens']} calls={row['calls']}"
        )

    lines = []
    for section in ("per_role", "per_backend"):
        lines.append(f"{section}:")
        lines += [f"  {key}: {usage(row)}" for key, row in sorted(tokens[section].items())]
    lines.append(f"total: {usage(tokens['total'])}")
    if tokens["failed_attempts"]:
        lines.append("failed_attempts:")
        lines += [f"  {key}: {n}" for key, n in sorted(tokens["failed_attempts"].items())]
    return "\n".join(lines) + "\n"


def long_text(alphabet: str, max_size: int = 150) -> st.SearchStrategy[str]:
    """Text with its length drawn from 0..max_size.

    ``st.text(max_size=150)`` alone almost never goes past 64 characters,
    one machine word of a bit-parallel kernel.
    """
    return st.integers(0, max_size).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n)
    )


def reference_levenshtein(a: str, b: str, masks=None) -> int:
    """Independent full-matrix Wagner-Fischer implementation; ``masks`` is ignored."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[n][m]


def reference_similarity(a: str, b: str) -> float:
    """``1 - min(1, edits / shorter)`` over ``reference_levenshtein``: the
    template constraint's float rule. Two empty texts are alike; an empty text
    and another are not."""
    shorter = min(len(a), len(b))
    if shorter == 0:
        return 1.0 if a == b else 0.0
    return 1.0 - min(1.0, reference_levenshtein(a, b) / shorter)


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

    def counting(a: str, b: str, masks=None) -> int:
        calls.append((a, b))
        return kernel(a, b, masks)

    monkeypatch.setattr(distance_module, "levenshtein", counting)
    return calls


class CheckpointRecorder:
    """The bytes of each run directory's ``checkpoint.json`` after each write, by round.

    A run keeps only its last checkpoint; a test that rewinds a run to an
    earlier round boundary takes that round's bytes from here.
    """

    def __init__(self):
        self.written: dict[Path, dict[int, bytes]] = {}

    def rounds(self, run_dir: Path) -> dict[int, bytes]:
        """Each round of ``run_dir`` that got a checkpoint, and its bytes."""
        return self.written[Path(run_dir)]

    def rewind(self, run_dir: Path, round_idx: int, to: Optional[Path] = None) -> None:
        """Write round ``round_idx``'s checkpoint of ``run_dir`` as the
        ``checkpoint.json`` of ``to`` (by default ``run_dir`` itself)."""
        target = Path(run_dir if to is None else to) / CHECKPOINT_FILE
        target.write_bytes(self.rounds(run_dir)[round_idx])


@pytest.fixture
def checkpoint_recorder(monkeypatch) -> CheckpointRecorder:
    """A ``CheckpointRecorder`` on ``agentopt.engine.write_checkpoint`` for this test."""
    recorder = CheckpointRecorder()
    write_checkpoint = engine_module.write_checkpoint

    def recording(run_dir, checkpoint):
        path = write_checkpoint(run_dir, checkpoint)
        recorder.written.setdefault(path.parent, {})[checkpoint.round_idx] = path.read_bytes()
        return path

    monkeypatch.setattr(engine_module, "write_checkpoint", recording)
    return recorder


class Killed(BaseException):
    """The kill that ``WriteKiller`` simulates; no handler of the program catches it."""


class WriteKiller:
    """Counts a run's writes, and kills the run at write ``kill_at`` if that is set.

    A write is one line of ``events.JsonlWriter.write`` or the temporary
    file that ``events.write_checkpoint`` writes before it renames it to
    ``checkpoint.json``. The killing write lands half of its bytes and
    raises ``Killed``, so a kill at the temporary file also stops the
    rename; a dead process writes nothing more, so every later write raises
    before it writes.
    """

    def __init__(self):
        self.kill_at: Optional[int] = None
        self.writes = 0

    def write(self, data, write) -> None:
        self.writes += 1
        if self.kill_at is None or self.writes < self.kill_at:
            write(data)
            return
        if self.writes == self.kill_at:
            write(data[: len(data) // 2])
        raise Killed(f"killed at write {self.kill_at}")


@pytest.fixture
def write_killer(monkeypatch) -> WriteKiller:
    """A ``WriteKiller`` on every write of ``agentopt.events`` for this test."""
    killer = WriteKiller()

    def write_line(self, line: str) -> None:
        def write(text: str) -> None:
            self._fh.write(text)
            self._fh.flush()

        killer.write(line + "\n", write)

    class KillablePath(type(Path())):
        # write_checkpoint builds its paths from the module's ``Path``
        def write_bytes(self, data: bytes) -> int:
            killer.write(data, super().write_bytes)
            return len(data)

    monkeypatch.setattr(events_module.JsonlWriter, "write", write_line)
    monkeypatch.setattr(events_module, "Path", KillablePath)
    return killer


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
    carrying ``score(text)``, or ``body`` as is when set; with ``hang`` set,
    no request is answered until the test ends. ``candidates`` records every
    request in order.
    """

    statuses: list[int]
    candidates: list[str]
    hang: bool
    release: threading.Event
    body: bytes

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
        raw = b""
        if status == 200:
            raw = self.body or json.dumps({"score": self.score(text)}).encode()
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
        {
            "statuses": [], "candidates": [], "hang": False, "release": threading.Event(),
            "body": b"",
        },
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    handler.url = f"http://127.0.0.1:{server.server_address[1]}/score"
    yield handler
    handler.release.set()
    server.shutdown()
    server.server_close()
