"""Append-only run telemetry: events.jsonl, history.jsonl, checkpoint.json.

Every line is independently parseable JSON and flushed on write, so a run
killed at any moment leaves logs that are valid up to their last byte. The
event stream carries enough payload (agent replies, evaluated records) to
rebuild the history and to re-run the engine against it: a ``Replay``, which
checks the logged lines by comparing them with the engine's. ``read_lines``
and ``read_json`` are the only readers of a run directory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, NoReturn, Optional

from .core import Candidate, Direction, DomainKind, History, ScoredRecord
from .errors import CorruptCheckpoint, DuplicateCandidate

# Each event kind and the payload fields, with their types, that every event of it carries
EVENT_FIELDS: dict[str, dict[str, Any]] = {
    "step": {
        "role": str, "backend": str, "system_sha": str, "user_sha": str, "reply": str,
        "input_tokens": int, "output_tokens": int, "latency_ms": int,
    },
    "eval_batch": {"origin": str, "n": int, "truncated": int, "records": list},
    "registry_change": {"op": str, "task": str},
    "round_end": {
        "evals_used": int, "best_score": (int, float), "stop_reason": (str, type(None)),
    },
    "checkpoint": {"finished": bool},
    "error": {"reason": str},
}
# The payload fields, with their types, that only some events of a kind carry
OPTIONAL_FIELDS: dict[str, dict[str, Any]] = {
    "step": {"failed_attempts": int, "task": str, "trajectory": int, "parent": int,
             "rejected": dict, "success": bool},
    "eval_batch": {"task": str, "failed_attempts": int},
}

EVENTS_FILE = "events.jsonl"
HISTORY_FILE = "history.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
SUMMARY_FILE = "summary.json"
CONFIG_COPY_FILE = "config.json"


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
    """One JSON text per line, flushed immediately, append-only.

    Until a resume's ``replay`` is over nothing is written: each line is
    compared with the next logged line of the file instead. The first line
    past the replay cuts the file to the lines compared, bytes intact."""

    def __init__(self, path: Path, replay: Optional["Replay"] = None):
        self.path, self.replay = Path(path), replay
        self._fh = None if replay else open(self.path, "w", encoding="utf-8")

    def write(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()

    def _put(self, line: str) -> bool:
        """Write ``line``, or compare it while the replay lasts; whether it was written."""
        if self._fh is None:
            if not self.replay.over:
                self.replay.compare(self.path.name, line)
                return False
            os.truncate(self.path, self.replay.sizes[self.path.name])
            self._fh = open(self.path, "a", encoding="utf-8")
        self.write(line)
        return True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


class EventLog(JsonlWriter):
    """Monotonically sequenced event stream for one run."""

    last_seq = 0

    def emit(self, kind: str, round_idx: int, phase: str, payload: dict) -> bool:
        """Write one event, if not replayed; an ``eval_batch`` carries its history rows.

        Its ``records`` are the lines ``HistoryLog.write_record`` returned. They
        are spliced in as they are, after ``origin``, ``n`` and ``truncated``
        and before the optional ``task`` and ``failed_attempts``, so the line
        is the one ``json.dumps`` gives for the rows' objects.
        """
        if kind not in EVENT_FIELDS:
            raise ValueError(f"unknown event kind: {kind}")
        seq = self.last_seq + 1
        event = {"seq": seq, "ts": time.time(), "round": round_idx, "phase": phase, "kind": kind}
        if kind == "eval_batch":
            event["payload"] = {key: payload[key] for key in ("origin", "n", "truncated")}
            line = _encode(event)[:-2] + ', "records": [' + ", ".join(payload["records"]) + "]"
            for key in ("task", "failed_attempts"):
                if key in payload:
                    line += f', "{key}": ' + _encode(payload[key])
            line += "}}"
        else:
            event["payload"] = payload
            line = _encode(event)
        self.last_seq = seq
        return self._put(line)


class HistoryLog(JsonlWriter):
    def write_record(self, record: ScoredRecord) -> str:
        """Write the history row of ``record`` and return its line."""
        line = render_row(record)
        self._put(line)
        return line


def _decode(path: Path, data: bytes, where: str = "") -> Any:
    """The JSON value of UTF-8 ``data``; anything else is a ``CorruptCheckpoint``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, or too deep
        raise CorruptCheckpoint(f"{path}{where}: {exc}") from exc


def read_lines(path: Path, limit: Optional[int] = None) -> list[bytes]:
    """The lines of a JSONL log as read: every complete line, or exactly the first ``limit``.

    A last line without its newline is a write that a kill cut short, so it
    is left out, and lines past ``limit`` are not read. Fewer than ``limit``
    complete lines is a ``CorruptCheckpoint`` naming the file.
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
    return lines


def read_log(path: Path, limit: Optional[int] = None) -> list:
    """The rows of the lines ``read_lines`` reads, each UTF-8 JSON or a ``CorruptCheckpoint``."""
    return [_decode(path, line, f" line {n}") for n, line in enumerate(read_lines(path, limit), 1)]


@dataclass
class Step:
    """One agent call and the evaluation batch it caused, or one event of its own.

    ``events`` maps each kind to its payload in log order.
    """

    round: int
    phase: str
    events: dict[str, dict]

    @property
    def call(self) -> Optional[dict]:
        """The payload of this step's ``step`` event: its agent call, if it has one."""
        return self.events.get("step")


class Steps(list):
    """The steps of an event log."""

    @property
    def rows(self) -> list:
        """The records of every ``eval_batch`` in order: the history."""
        batches = (step.events["eval_batch"] for step in self if "eval_batch" in step.events)
        return [row for batch in batches for row in batch["records"]]


def read_event(path: Path, lineno: int, line: bytes) -> dict:
    """The event of line ``lineno`` of the event log at ``path``: it carries ``seq``
    ``lineno``, a known kind and a payload with that kind's fields, each of its
    type (a bool is no number), or it is a ``CorruptCheckpoint`` naming its line."""
    event = _decode(path, line, f" line {lineno}")
    where = f"{path} line {lineno}"
    if not isinstance(event, dict) or event.get("seq") != lineno:
        raise CorruptCheckpoint(f"{where}: seq is not {lineno}")
    kind, payload = event.get("kind"), event.get("payload")
    if not isinstance(kind, str) or kind not in EVENT_FIELDS:
        raise CorruptCheckpoint(f"{where}: kind {kind!r} is not an event kind")
    if not isinstance(payload, dict):
        raise CorruptCheckpoint(f"{where}: payload {payload!r} is not an object")
    optional = [field for field in OPTIONAL_FIELDS.get(kind, {}).items() if field[0] in payload]
    for name, types in (*EVENT_FIELDS[kind].items(), *optional):
        value = payload.get(name)
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise CorruptCheckpoint(f"{where}: {kind} {name} is {value!r}")
    return event


def _awaits_call(event: dict) -> bool:
    """Whether ``event`` is an explorer or worker batch, which its call's ``step`` follows."""
    origin = event["payload"].get("origin")
    return event["kind"] == "eval_batch" and (origin == "explorer" or origin.startswith("worker:"))


def read_steps(path: Path, limit: Optional[int] = None) -> Steps:
    """The steps of the event log at ``path``, each line checked by ``read_event``.

    A ``step`` event joins the ``eval_batch`` of an explorer or worker call
    right before it; every other event is a step of its own. A batch whose
    step a kill cut off stays a step without a call."""
    steps, awaits_call = Steps(), False
    for lineno, line in enumerate(read_lines(path, limit), start=1):
        event = read_event(path, lineno, line)
        kind, payload = event["kind"], event["payload"]
        if kind == "step" and awaits_call:
            steps[-1].events[kind] = payload
        else:
            steps.append(Step(event.get("round"), event.get("phase"), {kind: payload}))
        awaits_call = _awaits_call(event)
    return steps


def read_json(path: Path) -> Any:
    """The JSON value of a whole file: ``checkpoint.json`` or ``config.json``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read {path}: {exc}") from exc
    return _decode(path, data)


def load_history(path: Path, direction: Direction) -> History:
    """The History of the history.jsonl at ``path``, ranked by ``direction``.

    A row that is no record, or is out of order, raises ``CorruptCheckpoint``
    naming its line.
    """
    history = History(direction)
    for lineno, row in enumerate(read_log(path), start=1):
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


CHECKPOINT_VERSION = 5
# Checkpoint's field annotations, which are strings in this module
_FIELD_TYPES = {"int": int, "Optional[str]": (str, type(None))}


@dataclass
class Checkpoint:
    """A round boundary: the first ``events_seq`` events of the run end round
    ``round_idx``, and the run finished there when it has a ``stop_reason``.

    The JSON form is the fields by name plus ``version``, and nothing else:
    ``resume`` rebuilds the rest by re-running the engine against the events.
    """

    round_idx: int
    events_seq: int
    stop_reason: Optional[str]

    def to_json(self) -> dict:
        return {"version": CHECKPOINT_VERSION, **asdict(self)}

    @classmethod
    def from_json(cls, payload: dict) -> "Checkpoint":
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CorruptCheckpoint(
                f"checkpoint version {version} is not supported; this build "
                f"resumes version {CHECKPOINT_VERSION} only"
            )
        for f in fields(cls):  # a bool is an int to isinstance, never a field here
            value = payload.get(f.name, ...)
            typed = isinstance(value, _FIELD_TYPES[f.type]) and not isinstance(value, bool)
            if not typed or (f.type == "int" and value < 0):
                raise CorruptCheckpoint(f"checkpoint field {f.name} is not a {f.type}")
        for name in payload.keys() - {"version", *(f.name for f in fields(cls))}:
            raise CorruptCheckpoint(f"checkpoint field {name} is not a version {version} field")
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


def write_checkpoint(run_dir: Path, checkpoint: Checkpoint) -> Path:
    """Write checkpoint.json atomically: a temporary file, then a rename."""
    payload = json.dumps(checkpoint.to_json(), ensure_ascii=False, separators=(",", ":"))
    tmp = Path(run_dir) / (CHECKPOINT_FILE + ".tmp")
    tmp.write_bytes(payload.encode("utf-8"))
    return tmp.replace(Path(run_dir) / CHECKPOINT_FILE)


def load_checkpoint(path: Path) -> Checkpoint:
    return Checkpoint.from_json(read_json(path))


class Replay:
    """A run's logs up to ``checkpoint``, as read, which a resume re-runs the engine against.

    Until it is ``over`` each line the engine writes is compared with the next
    logged line of its file: the one check of the prefix. The stand-ins for the
    oracle and the HTTP backends answer from :meth:`batch` and :meth:`logged`,
    which decode only the lines they hand out."""

    def __init__(self, run_dir: Path, checkpoint: Checkpoint):
        self.dir = Path(run_dir)
        self.lines = {EVENTS_FILE: read_lines(self.dir / EVENTS_FILE, checkpoint.events_seq),
                      HISTORY_FILE: read_lines(self.dir / HISTORY_FILE)}
        self.taken, self.sizes = dict.fromkeys(self.lines, 0), dict.fromkeys(self.lines, 0)
        self.error = None
        end = {"checkpoint": {"finished": checkpoint.stop_reason is not None}}
        last = self._event(checkpoint.events_seq - 1) if checkpoint.events_seq else {}
        if (last.get("round"), {last.get("kind"): last.get("payload")}) != (
                checkpoint.round_idx, end):
            at = f"{self.dir / EVENTS_FILE} line {checkpoint.events_seq}"
            raise CorruptCheckpoint(f"{at}: not the {end} of round {checkpoint.round_idx}")

    @property
    def over(self) -> bool:
        """Whether the engine has written every logged event again, or the replay's error."""
        if self.error is not None:
            raise self.error
        return self.taken[EVENTS_FILE] == len(self.lines[EVENTS_FILE])

    def compare(self, name: str, line: str) -> None:
        """Take the engine's next line of log ``name``: the logged one, but an event's
        second field, the wall-clock ``ts``, which no replay repeats."""
        lines, index = self.lines[name], self.taken[name]
        ours, theirs = (line + "\n").encode("utf-8"), lines[index] if index < len(lines) else b""
        if name == EVENTS_FILE:
            ours, theirs = (b", ".join(text.split(b", ", 2)[::2]) for text in (ours, theirs))
        if ours != theirs:
            at = len(os.path.commonprefix([ours, theirs]))
            self._fail(f"the replay writes {ours[at:at + 60]!r} at byte {at}, "
                       f"the log has {theirs[at:at + 60]!r}", name)
        self.taken[name] += 1
        self.sizes[name] += len(lines[index])  # where the file is cut once the replay is over

    def _fail(self, message: str, name: str = EVENTS_FILE) -> NoReturn:
        # every later line raises it again, so what the engine writes on its way out cannot hide it
        self.error = CorruptCheckpoint(f"{self.dir / name} line {self.taken[name] + 1}: {message}")
        raise self.error

    def _event(self, index: int) -> dict:
        """The logged event at ``index``, checked by ``read_event``, or the failed replay."""
        try:
            return read_event(self.dir / EVENTS_FILE, index + 1, self.lines[EVENTS_FILE][index])
        except CorruptCheckpoint as exc:
            self.error = exc
            raise

    def logged(self, kind: str) -> Optional[dict]:
        """The ``kind`` payload logged for the engine's next step, or None past the replay."""
        if self.over:
            return None
        event = self._event(self.taken[EVENTS_FILE])
        if kind == "step" and _awaits_call(event):
            event = self._event(event["seq"])  # the batch's call, on the line after it
        if event["kind"] != kind:
            self._fail(f"the log has no {kind} here")
        return event["payload"]

    def batch(self, n: int) -> Optional[tuple[list[float], int]]:
        """The logged scores and failed attempts of the engine's next batch, of
        ``n`` candidates, or None."""
        batch = self.logged("eval_batch")
        if batch is None:
            return None
        if len(batch["records"]) != n:
            self._fail(f"the log has {len(batch['records'])} scores for {n} candidates")
        scores = [row.get("score") if isinstance(row, dict) else None for row in batch["records"]]
        if not all(isinstance(score, float) and math.isfinite(score) for score in scores):
            self._fail(f"the scores {scores} are not all finite floats")
        return scores, batch.get("failed_attempts", 0)
