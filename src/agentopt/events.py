"""Append-only run telemetry: events.jsonl, history.jsonl, checkpoint.json.

Every line is independently parseable JSON and flushed on write, so a run
killed at any moment leaves logs that are valid up to their last byte. The
event stream carries enough payload (agent replies, evaluated records) to
rebuild the history and to replay a recorded run against scripted backends.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .core import Candidate, DomainKind, History, ScoredRecord
from .errors import CorruptCheckpoint

EVENT_KINDS = (
    "agent_call",
    "filter_report",
    "eval_batch",
    "registry_change",
    "round_end",
    "checkpoint",
    "error",
)

EVENTS_FILE = "events.jsonl"
HISTORY_FILE = "history.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
SUMMARY_FILE = "summary.json"
CONFIG_COPY_FILE = "config.json"
CHECKPOINT_DIR = "checkpoints"


def record_to_json(record: ScoredRecord) -> dict:
    return {
        "eval_index": record.eval_index,
        "raw": record.candidate.raw,
        "canonical": record.candidate.canonical,
        "domain": record.candidate.kind.value,
        "score": record.score,
        "origin": record.origin,
    }


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
    """One JSON object per line, flushed immediately, append-only."""

    def __init__(self, path: Path, append: bool = False):
        self.path = Path(path)
        self._fh = open(self.path, "a" if append else "w", encoding="utf-8")

    def write(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
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
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind}")
        seq = self.next_seq
        self._writer.write(
            {
                "seq": seq,
                "ts": time.time(),
                "round": round_idx,
                "phase": phase,
                "kind": kind,
                "payload": payload,
            }
        )
        self.next_seq = seq + 1
        self.last_seq = seq
        return seq

    def close(self) -> None:
        self._writer.close()


class HistoryLog:
    def __init__(self, path: Path, append: bool = False):
        self._writer = JsonlWriter(path, append=append)

    def write_record(self, record: ScoredRecord) -> None:
        self._writer.write(record_to_json(record))

    def close(self) -> None:
        self._writer.close()


def read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def load_history(path: Path, limit: Optional[int] = None) -> History:
    """Rebuild a History from history.jsonl, or from its first ``limit`` lines.

    Lines past ``limit`` are not read, so a torn tail there does no harm. A
    line that is no record, or is out of order, raises ``CorruptCheckpoint``
    naming the line.
    """
    history = History()
    with open(Path(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(itertools.islice(fh, limit), start=1):
            if not line.strip():
                continue
            try:
                record = record_from_json(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptCheckpoint(f"{path} line {lineno}: {exc!r}") from exc
            stored = history.append(record.candidate, record.score, record.origin)
            if stored.eval_index != record.eval_index:
                raise CorruptCheckpoint(
                    f"{path} line {lineno}: eval_index {record.eval_index}, "
                    f"expected {stored.eval_index}"
                )
    return history


def truncate_jsonl(path: Path, keep_lines: int) -> None:
    """Rewrite a JSONL file keeping exactly the first ``keep_lines`` lines.

    The kept prefix is preserved byte-for-byte, which is what makes resumed
    runs reproduce straight-through output files exactly.
    """
    with open(path, "rb") as fh:
        kept = list(itertools.islice(fh, keep_lines))
    if len(kept) < keep_lines:
        raise CorruptCheckpoint(
            f"{path} has {len(kept)} lines, checkpoint expects {keep_lines}"
        )
    with open(path, "wb") as fh:
        fh.writelines(kept)


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
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"cannot read checkpoint {path}: {exc}") from exc
    return Checkpoint.from_json(payload)


def validate_event_log(path: Path, expected_last_seq: int) -> None:
    """Check that the log opens with events 1 to ``expected_last_seq`` in order.

    Lines beyond them may be damaged (a kill signal can tear the final
    write); resume discards them, so they are not read.
    """
    seq = 0
    try:
        with open(Path(path), encoding="utf-8") as fh:
            for seq, line in enumerate(itertools.islice(fh, expected_last_seq), 1):
                if json.loads(line).get("seq") != seq:
                    raise CorruptCheckpoint(f"event log sequence gap at line {seq}")
    except (OSError, ValueError, AttributeError) as exc:
        raise CorruptCheckpoint(f"event log {path} unreadable at line {seq}: {exc}") from exc
    if seq < expected_last_seq:
        raise CorruptCheckpoint(
            f"event log has {seq} events, checkpoint expects at least {expected_last_seq}"
        )
