from __future__ import annotations

import json

import pytest

from agentopt.core import DomainKind, canonicalize
from agentopt.errors import CorruptCheckpoint
from agentopt.events import (
    Checkpoint,
    EventLog,
    HistoryLog,
    load_checkpoint,
    load_history,
    read_log,
    record_from_json,
    record_to_json,
    resume_logs,
    write_checkpoint,
)


def test_event_log_sequences_and_flushes(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit("round_end", 1, "loop", {"x": 1})
    log.emit("checkpoint", 1, "loop", {})
    rows = read_log(path)  # readable before close: every write is flushed
    assert [r["seq"] for r in rows] == [1, 2]
    assert rows[0]["kind"] == "round_end"
    assert rows[0]["round"] == 1 and rows[0]["phase"] == "loop"
    log.close()


def test_event_log_rejects_unknown_kind(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    with pytest.raises(ValueError):
        log.emit("mystery", 0, "init", {})
    log.close()


def test_record_json_round_trip():
    record_in = record_from_json(
        {
            "eval_index": 3,
            "raw": " klwr",
            "canonical": "KLWR",
            "domain": "peptide",
            "score": 17.5,
            "origin": "worker:SIMILAR",
        }
    )
    assert record_to_json(record_in)["canonical"] == "KLWR"
    assert record_in.candidate.kind == DomainKind.PEPTIDE


def test_history_log_and_load(tmp_path):
    path = tmp_path / "history.jsonl"
    log = HistoryLog(path)
    from agentopt.core import History

    history = History()
    for i, text in enumerate(["AAA", "BBB", "CCC"]):
        record = history.append(canonicalize(text, DomainKind.GENERIC), float(i), "init")
        log.write_record(record)
    log.close()
    loaded = load_history(path)
    assert loaded.evals_used == 3
    assert loaded.score_of("BBB") == 1.0
    assert [row["canonical"] for row in read_log(path, 2)] == ["AAA", "BBB"]


def write_logs(run_dir, events: bytes, n_history: int = 0) -> None:
    (run_dir / "events.jsonl").write_bytes(events)
    rows = [
        {"eval_index": i, "raw": f"C{i}", "canonical": f"C{i}", "domain": "generic",
         "score": float(i), "origin": "init"}
        for i in range(1, n_history + 1)
    ]
    (run_dir / "history.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )


def at(events_seq: int, history_len: int = 0) -> Checkpoint:
    return Checkpoint(1, False, history_len, events_seq, {}, {}, {}, {})


def test_resume_cut_keeps_prefix_bytes(tmp_path):
    lines = [json.dumps({"seq": i}).encode() + b"\n" for i in range(1, 6)]
    write_logs(tmp_path, b"".join(lines), n_history=4)
    history_lines = (tmp_path / "history.jsonl").read_bytes().splitlines(keepends=True)
    history, cut = resume_logs(tmp_path, at(3, history_len=2))
    assert [r.candidate.canonical for r in history.records] == ["C1", "C2"]
    assert (tmp_path / "events.jsonl").read_bytes() == b"".join(lines)  # not cut yet
    cut()
    assert (tmp_path / "events.jsonl").read_bytes() == b"".join(lines[:3])
    assert (tmp_path / "history.jsonl").read_bytes() == b"".join(history_lines[:2])


def test_read_log_beyond_length_is_corrupt(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"seq": 1}\n', encoding="utf-8")
    with pytest.raises(CorruptCheckpoint, match="1 complete lines, checkpoint expects 5"):
        read_log(path, 5)
    write_logs(tmp_path, b'{"seq": 1}\n', n_history=1)
    with pytest.raises(CorruptCheckpoint, match="history.jsonl has 1 complete lines"):
        resume_logs(tmp_path, at(1, history_len=2))


def test_resume_seq_gap_is_corrupt(tmp_path):
    write_logs(tmp_path, b'{"seq": 1}\n{"seq": 3}\n')
    with pytest.raises(CorruptCheckpoint, match="line 2: seq is not 2"):
        resume_logs(tmp_path, at(2))


@pytest.mark.parametrize(
    "bad, reason",
    [(b'{"seq": 2', "Expecting"), (b'\xff\xfe{"seq": 2}', "utf-8")],
    ids=["json", "utf-8"],
)
def test_read_log_bad_line_is_corrupt_and_names_it(tmp_path, bad, reason):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b'{"seq": 1}\n' + bad + b"\n")
    with pytest.raises(CorruptCheckpoint, match=f"events.jsonl line 2: .*{reason}"):
        read_log(path)
    assert read_log(path, 1) == [{"seq": 1}]  # lines past the limit are not read


def test_read_log_leaves_out_torn_tail(tmp_path):
    # a kill signal can cut the final line mid-write; damage beyond the
    # checkpointed prefix must not block resume
    write_logs(tmp_path, b'{"seq": 1}\n{"seq": 2}\n{"seq": 3, "tru')
    path = tmp_path / "events.jsonl"
    assert read_log(path) == [{"seq": 1}, {"seq": 2}]
    resume_logs(tmp_path, at(2))
    with pytest.raises(CorruptCheckpoint, match="2 complete lines, checkpoint expects 3"):
        resume_logs(tmp_path, at(3))


def test_checkpoint_round_trip_and_archive(tmp_path):
    checkpoint = Checkpoint(
        round_idx=2,
        finished=False,
        history_len=14,
        events_seq=40,
        registry={"SIMILAR": {"text": "t", "attempts": 1, "successes": 0,
                              "is_default": True}},
        rng={},
        ledger={},
        backends={"default": {"explorer": 4, "planner": 1, "worker": 9}},
    )
    assert write_checkpoint(tmp_path, checkpoint) == tmp_path / "checkpoint.json"
    loaded = load_checkpoint(tmp_path / "checkpoint.json")
    assert loaded == checkpoint
    archived = load_checkpoint(tmp_path / "checkpoints" / "round_00002.json")
    assert archived == checkpoint
    # one compact encoding, written to both files
    written = (tmp_path / "checkpoint.json").read_bytes()
    assert written == (tmp_path / "checkpoints" / "round_00002.json").read_bytes()
    assert b"\n" not in written and b", " not in written
    assert json.loads(written)["version"] == 2


def test_load_checkpoint_garbage_is_corrupt(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(tmp_path / "missing.json")
    path.write_bytes(b'\xff\xfe{"version": 2}')
    with pytest.raises(CorruptCheckpoint, match="utf-8"):
        load_checkpoint(path)
    path.write_text('{"version": 1}', encoding="utf-8")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_version_1_checkpoint_is_refused_by_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    v1 = {"version": 1, "round": 2, "finished": False, "evals_used": 14,
          "history_len": 14, "events_seq": 40, "registry": {}, "rng": {},
          "ledger": {}, "backend_positions": {}, "stop_reason": None}
    path.write_text(json.dumps(v1), encoding="utf-8")
    with pytest.raises(CorruptCheckpoint, match="version 1 is not supported"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [("events_seq", "40"), ("finished", None), ("registry", []), ("history_len", ...)],
)
def test_checkpoint_field_of_wrong_type_is_corrupt(tmp_path, field, value):
    checkpoint = Checkpoint(2, False, 14, 40, {}, {}, {}, {})
    write_checkpoint(tmp_path, checkpoint)
    payload = json.loads((tmp_path / "checkpoint.json").read_text())
    payload[field] = value
    if value is ...:  # missing altogether
        del payload[field]
    (tmp_path / "checkpoint.json").write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint, match=field):
        load_checkpoint(tmp_path / "checkpoint.json")
