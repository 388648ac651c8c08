"""Append-only run telemetry: events.jsonl, history.jsonl, checkpoint.json.

Every line is independently parseable JSON and flushed on write, so a run
killed at any moment leaves logs that are valid up to their last byte. The
event stream carries enough payload (agent replies, evaluated records) to
rebuild the history and to replay a recorded run against scripted backends.
``read_log`` and ``read_json`` are the only readers of a run directory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional

from .core import Candidate, DomainKind, History, ScoredRecord
from .errors import CorruptCheckpoint, DuplicateCandidate

# Each event kind and the payload fields, with their types, that every event of it carries
EVENT_FIELDS: dict[str, dict[str, Any]] = {
    "agent_call": {
        "role": str, "backend": str, "system_sha": str, "user_sha": str, "reply": str,
        "input_tokens": int, "output_tokens": int, "latency_ms": int,
    },
    "filter_report": {"n_in": int, "n_accepted": int, "rejected": list},
    "eval_batch": {"origin": str, "n": int, "truncated": int, "records": list},
    "registry_change": {"op": str, "task": str},
    "round_end": {
        "evals_used": int, "best_score": (int, float), "stop_reason": (str, type(None)),
    },
    "checkpoint": {"finished": bool},
    "error": {"reason": str},
}
# The kinds of a step, in the order they follow its agent call
_STEP_ORDER = {"agent_call": 0, "filter_report": 1, "eval_batch": 2, "registry_change": 3}

EVENTS_FILE = "events.jsonl"
HISTORY_FILE = "history.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
SUMMARY_FILE = "summary.json"
CONFIG_COPY_FILE = "config.json"
CHECKPOINT_DIR = "checkpoints"


# Every line but a history row: the bytes of json.dumps(value, ensure_ascii=False)
_encode = json.JSONEncoder(ensure_ascii=False).encode
_encode_str = json.encoder.encode_basestring


def render_row(record: ScoredRecord) -> str:
    """The history row of ``record``: the bytes ``json.dumps`` gives its six fields.

    The score must be a finite float, as ``Oracle.evaluate_many`` returns it.
    """
    candidate = record.candidate
    return (
        '{"eval_index": %d, "raw": %s, "canonical": %s, "domain": %s, "score": %s, '
        '"origin": %s}'
    ) % (
        record.eval_index,
        _encode_str(candidate.raw),
        _encode_str(candidate.canonical),
        _encode_str(candidate.kind.value),
        float.__repr__(record.score),
        _encode_str(record.origin),
    )


def record_from_json(payload: dict) -> ScoredRecord:
    """The record of one history row; ``ValueError`` names the first bad field."""
    score, eval_index = payload["score"], payload["eval_index"]
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        raise ValueError(f"score {score!r} is not a number")
    if not math.isfinite(score):
        raise ValueError(f"score {score!r} is not a finite number")
    if isinstance(eval_index, bool) or not isinstance(eval_index, int):
        raise ValueError(f"eval_index {eval_index!r} is not an int")
    for key in ("raw", "canonical", "origin"):
        if not isinstance(payload[key], str):
            raise ValueError(f"{key} {payload[key]!r} is not a string")
    candidate = Candidate(
        raw=payload["raw"],
        canonical=payload["canonical"],
        kind=DomainKind(payload["domain"]),
    )
    return ScoredRecord(
        candidate=candidate, score=score, eval_index=eval_index, origin=payload["origin"]
    )


class JsonlWriter:
    """One JSON text per line, flushed immediately, append-only."""

    def __init__(self, path: Path, append: bool = False):
        self.path = Path(path)
        self._fh = open(self.path, "a" if append else "w", encoding="utf-8")

    def write(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class EventLog:
    """Monotonically sequenced event stream for one run."""

    def __init__(self, path: Path, next_seq: int = 1, append: bool = False):
        self._writer = JsonlWriter(path, append=append)
        self.next_seq = next_seq
        self.last_seq = next_seq - 1

    def emit(self, kind: str, round_idx: int, phase: str, payload: dict) -> int:
        """Write one event; an ``eval_batch`` carries the lines of its history rows.

        Its ``records`` are the lines ``HistoryLog.write_record`` returned. They
        are spliced in as they are, after ``origin``, ``n`` and ``truncated``
        and before the optional ``task``, so the line is the one ``json.dumps``
        gives for the rows' objects.
        """
        if kind not in EVENT_FIELDS:
            raise ValueError(f"unknown event kind: {kind}")
        seq = self.next_seq
        event = {"seq": seq, "ts": time.time(), "round": round_idx, "phase": phase, "kind": kind}
        if kind == "eval_batch":
            event["payload"] = {key: payload[key] for key in ("origin", "n", "truncated")}
            line = _encode(event)[:-2] + ', "records": [' + ", ".join(payload["records"]) + "]"
            if "task" in payload:
                line += ', "task": ' + _encode_str(payload["task"])
            line += "}}"
        else:
            event["payload"] = payload
            line = _encode(event)
        self._writer.write(line)
        self.next_seq = seq + 1
        self.last_seq = seq
        return seq

    def close(self) -> None:
        self._writer.close()


class HistoryLog:
    def __init__(self, path: Path, append: bool = False):
        self._writer = JsonlWriter(path, append=append)

    def write_record(self, record: ScoredRecord) -> str:
        """Write the history row of ``record`` and return its line."""
        line = render_row(record)
        self._writer.write(line)
        return line

    def close(self) -> None:
        self._writer.close()


class Log(list):
    """The rows of a JSONL log in file order; ``size`` counts the bytes of their lines."""

    def __init__(self, rows: list, size: int):
        super().__init__(rows)
        self.size = size


def _decode(path: Path, data: bytes, where: str = "") -> Any:
    """The JSON value of UTF-8 ``data``; anything else is a ``CorruptCheckpoint``."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise CorruptCheckpoint(f"{path}{where}: {exc}") from exc


def read_log(path: Path, limit: Optional[int] = None) -> Log:
    """The rows of a JSONL log: every complete line, or exactly the first ``limit``.

    A last line without its newline is a write that a kill cut short, so it
    is left out, and lines past ``limit`` are not read. A line that is not
    UTF-8 JSON, or fewer than ``limit`` complete lines, is a
    ``CorruptCheckpoint`` naming the file and the line.
    """
    try:
        with open(path, "rb") as fh:
            lines = list(itertools.islice(fh, limit))
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read {path}: {exc}") from exc
    if lines and not lines[-1].endswith(b"\n"):
        lines.pop()
    if limit is not None and len(lines) < limit:
        raise CorruptCheckpoint(
            f"{path} has {len(lines)} complete lines, checkpoint expects {limit}"
        )
    rows = [_decode(path, line, f" line {n}") for n, line in enumerate(lines, 1)]
    return Log(rows, sum(map(len, lines)))


@dataclass
class Step:
    """One agent call and the events it caused, or one event of its own.

    ``events`` maps each kind to its payload in log order; the first opened the step.
    """

    round: int
    phase: str
    events: dict[str, dict]

    @property
    def call(self) -> Optional[dict]:
        """The payload of the ``agent_call`` that opened this step, if one did."""
        return self.events.get("agent_call")


class Steps(Log):
    """The steps of an event log; ``size`` counts the bytes of its lines."""

    @property
    def rows(self) -> list:
        """The records of every ``eval_batch`` in order: the history."""
        batches = (step.events["eval_batch"] for step in self if "eval_batch" in step.events)
        return [row for batch in batches for row in batch["records"]]


def read_steps(path: Path, limit: Optional[int] = None) -> Steps:
    """The steps of the event log at ``path``, whose lines ``read_log`` reads.

    Each event must carry the next ``seq`` from 1, a known kind and a payload
    with that kind's fields, or it is a ``CorruptCheckpoint`` naming its line.
    An ``agent_call`` opens a step, which the ``filter_report``, ``eval_batch``
    and worker outcome (``registry_change`` op ``outcome``) after it join.
    """
    events = read_log(path, limit)
    steps: list[Step] = []
    for lineno, event in enumerate(events, start=1):
        where = f"{path} line {lineno}"
        if not isinstance(event, dict) or event.get("seq") != lineno:
            raise CorruptCheckpoint(f"{where}: seq is not {lineno}")
        kind, payload = event.get("kind"), event.get("payload")
        if not isinstance(kind, str) or kind not in EVENT_FIELDS:
            raise CorruptCheckpoint(f"{where}: kind {kind!r} is not an event kind")
        if not isinstance(payload, dict):
            raise CorruptCheckpoint(f"{where}: payload {payload!r} is not an object")
        for name, types in EVENT_FIELDS[kind].items():
            if not isinstance(payload.get(name), types):
                raise CorruptCheckpoint(f"{where}: {kind} {name} is {payload.get(name)!r}")
        step = steps[-1] if steps and steps[-1].call is not None else None
        after = _STEP_ORDER[list(step.events)[-1]] if step else len(_STEP_ORDER)
        if _STEP_ORDER.get(kind, 0) > after and payload.get("op", "outcome") == "outcome":
            step.events[kind] = payload
        else:
            steps.append(Step(event.get("round"), event.get("phase"), {kind: payload}))
    return Steps(steps, events.size)


def read_json(path: Path) -> Any:
    """The JSON value of a whole file: ``checkpoint.json`` or ``config.json``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read {path}: {exc}") from exc
    return _decode(path, data)


def load_history(path: Path, rows: Optional[list] = None) -> History:
    """The History of the history.jsonl at ``path``, from its ``rows`` if read already.

    A row that is no record, or is out of order, raises ``CorruptCheckpoint``
    naming its line.
    """
    history = History()
    for lineno, row in enumerate(read_log(path) if rows is None else rows, start=1):
        try:
            record = record_from_json(row)
            stored = history.append(record.candidate, record.score, record.origin)
        except (KeyError, TypeError, ValueError, DuplicateCandidate) as exc:
            raise CorruptCheckpoint(f"{path} line {lineno}: {exc!r}") from exc
        if stored.eval_index != record.eval_index:
            raise CorruptCheckpoint(
                f"{path} line {lineno}: eval_index {record.eval_index}, "
                f"expected {stored.eval_index}"
            )
    return history


CHECKPOINT_VERSION = 2
# Checkpoint's field annotations, which are strings in this module
_FIELD_TYPES = {"int": int, "bool": bool, "dict": dict}


@dataclass
class Checkpoint:
    """Resumable run state captured at a round boundary.

    The JSON form is the fields by name plus ``version``; each stateful part
    (registry, RNG streams, ledger, backends) stores its own snapshot.
    """

    round_idx: int
    finished: bool
    history_len: int
    events_seq: int
    registry: dict
    rng: dict
    ledger: dict
    backends: dict
    stop_reason: Optional[str] = None

    def to_json(self) -> dict:
        out = {"version": CHECKPOINT_VERSION}
        out.update((f.name, getattr(self, f.name)) for f in fields(self))
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "Checkpoint":
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CorruptCheckpoint(
                f"checkpoint version {version} is not supported; this build "
                f"resumes version {CHECKPOINT_VERSION} only"
            )
        values = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        for f in fields(cls):
            if not isinstance(values.get(f.name), _FIELD_TYPES.get(f.type, object)):
                raise CorruptCheckpoint(f"checkpoint field {f.name} is not a {f.type}")
        return cls(**values)


def write_checkpoint(run_dir: Path, checkpoint: Checkpoint) -> Path:
    """Write checkpoint.json atomically, plus a per-round archival copy."""
    run_dir = Path(run_dir)
    payload = json.dumps(
        checkpoint.to_json(), ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    tmp = run_dir / (CHECKPOINT_FILE + ".tmp")
    tmp.write_bytes(payload)
    final = run_dir / CHECKPOINT_FILE
    tmp.replace(final)
    archive_dir = run_dir / CHECKPOINT_DIR
    archive_dir.mkdir(exist_ok=True)
    (archive_dir / f"round_{checkpoint.round_idx:05d}.json").write_bytes(payload)
    return final


def load_checkpoint(path: Path) -> Checkpoint:
    return Checkpoint.from_json(read_json(path))


def resume_logs(run_dir: Path, checkpoint: Checkpoint) -> tuple[History, Callable[[], None]]:
    """The history at ``checkpoint``, and the cut that trims both logs back to it.

    Each log's checkpointed prefix is read once: the events through
    ``read_steps``, and the rows must rebuild the history and equal its
    ``eval_batch`` records. What the interrupted run wrote past the checkpoint
    is not read. The cut truncates both files to those prefixes, byte-intact.
    """
    events_path, history_path = Path(run_dir) / EVENTS_FILE, Path(run_dir) / HISTORY_FILE
    events = read_steps(events_path, checkpoint.events_seq)
    rows = read_log(history_path, checkpoint.history_len)
    history = load_history(history_path, rows)
    for lineno, (row, record) in enumerate(itertools.zip_longest(rows, events.rows), 1):
        if row != record:
            raise CorruptCheckpoint(f"{history_path} line {lineno}: not its eval_batch record")

    def cut() -> None:
        os.truncate(events_path, events.size)
        os.truncate(history_path, rows.size)

    return history, cut
