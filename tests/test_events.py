from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentopt.core import Candidate, Direction, DomainKind, ScoredRecord, canonicalize
from agentopt.errors import CorruptCheckpoint
from agentopt.events import (
    Checkpoint,
    EventLog,
    HistoryLog,
    load_checkpoint,
    load_history,
    Replay,
    read_log,
    read_steps,
    record_from_json,
    render_row,
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
    assert json.loads(render_row(record_in))["canonical"] == "KLWR"
    assert record_in.candidate.kind == DomainKind.PEPTIDE


# quotes, backslashes, control characters, line separators, non-BMP text
TRICKY_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u2028\u2029é\U0001f600'), st.characters()),
    max_size=12,
)


def row_of(record: ScoredRecord) -> dict:
    return {
        "eval_index": record.eval_index,
        "raw": record.candidate.raw,
        "canonical": record.candidate.canonical,
        "domain": record.candidate.kind.value,
        "score": record.score,
        "origin": record.origin,
    }


@settings(max_examples=300, deadline=None)
@given(
    eval_index=st.integers(min_value=1, max_value=10**12),
    raw=TRICKY_TEXT,
    canonical=TRICKY_TEXT,
    kind=st.sampled_from(DomainKind),
    score=st.floats(allow_nan=False, allow_infinity=False),
    origin=TRICKY_TEXT,
)
@example(1, '"\\', "\u2028\u2029", DomainKind.PEPTIDE, -0.0, "\U0001f600")
@example(2, "a", "b", DomainKind.SMILES, 5e-324, "init")
@example(3, "a", "b", DomainKind.GENERIC, 1e16, "worker:X")
@example(4, "a", "b", DomainKind.GENERIC, 0.1 + 0.2, "explorer")
def test_render_row_gives_the_bytes_of_json_dumps(eval_index, raw, canonical, kind, score, origin):
    record = ScoredRecord(Candidate(raw, canonical, kind), score, eval_index, origin)
    assert render_row(record) == json.dumps(row_of(record), ensure_ascii=False)


@pytest.mark.parametrize("n", [0, 1, 100])
@pytest.mark.parametrize("task", [None, 'SIM"ILAR'])
def test_eval_batch_line_is_json_dumps_of_the_event(tmp_path, n, task):
    origin = 'worker:"records": []'
    records = [
        ScoredRecord(
            Candidate(f' "q\\{i}\u2028', f"Q{i}\U0001f600", DomainKind.GENERIC),
            [-0.0, 5e-324, 1e16, 0.1 + 0.2][i % 4] * (i + 1), i + 1, origin,
        )
        for i in range(n)
    ]
    history, events = HistoryLog(tmp_path / "h.jsonl"), EventLog(tmp_path / "e.jsonl")
    rows = [history.write_record(record) for record in records]
    payload = {"origin": origin, "n": n, "truncated": 2, "records": rows}
    expected = {"origin": origin, "n": n, "truncated": 2, "records": [row_of(r) for r in records]}
    if task is not None:  # with both optional fields, which follow the records
        payload["task"] = expected["task"] = task
        payload["failed_attempts"] = expected["failed_attempts"] = 2
    events.emit("eval_batch", 3, "worker", payload)
    history.close()
    events.close()
    # split at newlines alone: the text holds U+2028, which splitlines() splits at too
    history_lines = (tmp_path / "h.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    assert history_lines == [json.dumps(row_of(r), ensure_ascii=False) for r in records]
    [line] = (tmp_path / "e.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    event = {"seq": 1, "ts": json.loads(line)["ts"], "round": 3, "phase": "worker",
             "kind": "eval_batch", "payload": expected}
    assert line == json.dumps(event, ensure_ascii=False)


def test_history_log_and_load(tmp_path):
    path = tmp_path / "history.jsonl"
    log = HistoryLog(path)
    from agentopt.core import History

    history = History(Direction.MAXIMIZE)
    for i, text in enumerate(["AAA", "BBB", "CCC"]):
        record = history.append(canonicalize(text, DomainKind.GENERIC), float(i), "init")
        log.write_record(record)
    log.close()
    loaded = load_history(path, Direction.MAXIMIZE)
    assert loaded.evals_used == 3
    assert [(r.candidate.canonical, r.score) for r in loaded] == [
        ("AAA", 0.0), ("BBB", 1.0), ("CCC", 2.0)
    ]
    assert [row["canonical"] for row in read_log(path, 2)] == ["AAA", "BBB"]


def history_rows(n: int) -> list[dict]:
    return [
        {"eval_index": i, "raw": f"C{i}", "canonical": f"C{i}", "domain": "generic",
         "score": float(i), "origin": "init"}
        for i in range(1, n + 1)
    ]


def event(seq: int, kind: str = "checkpoint", payload: dict | None = None) -> bytes:
    """One well-formed event line; a ``checkpoint`` that did not finish by default."""
    line = {"seq": seq, "ts": 0.0, "round": 1, "phase": "loop", "kind": kind,
            "payload": {"finished": False} if payload is None else payload}
    return json.dumps(line).encode() + b"\n"


def batch(seq: int, rows: list[dict]) -> bytes:
    payload = {"origin": "init", "n": len(rows), "truncated": 0, "records": rows}
    return event(seq, "eval_batch", payload)


def write_logs(run_dir, events: bytes, n_history: int = 0) -> None:
    (run_dir / "events.jsonl").write_bytes(events)
    (run_dir / "history.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in history_rows(n_history)), encoding="utf-8"
    )


def at(events_seq: int) -> Checkpoint:
    return Checkpoint(1, events_seq, None)


def replay_logs(run_dir, checkpoint: Checkpoint) -> tuple[EventLog, HistoryLog]:
    """The engine's two logs, resuming ``run_dir`` at ``checkpoint``."""
    replay = Replay(run_dir, checkpoint)
    return EventLog(run_dir / "events.jsonl", replay), HistoryLog(run_dir / "history.jsonl", replay)


def write_batch(events: EventLog, history: HistoryLog, rows: list[dict]) -> None:
    """What the engine writes for an init batch of ``rows``."""
    lines = [history.write_record(record_from_json(row)) for row in rows]
    events.emit("eval_batch", 1, "loop", {"origin": "init", "n": len(rows), "truncated": 0,
                                          "records": lines})


def test_resume_cut_keeps_prefix_bytes(tmp_path):
    lines = [batch(1, history_rows(2))] + [event(i) for i in range(2, 6)]
    write_logs(tmp_path, b"".join(lines), n_history=4)
    history_lines = (tmp_path / "history.jsonl").read_bytes().splitlines(keepends=True)
    events, history = replay_logs(tmp_path, at(3))
    write_batch(events, history, history_rows(2))
    # the prefix is compared, not written: a later ts is no difference
    assert not any(events.emit("checkpoint", 1, "loop", {"finished": False}) for _ in range(2))
    assert (tmp_path / "events.jsonl").read_bytes() == b"".join(lines)
    assert (tmp_path / "history.jsonl").read_bytes() == b"".join(history_lines)
    # each log is cut at its own first write past the prefix
    history.write_record(record_from_json(history_rows(3)[2]))
    assert (tmp_path / "history.jsonl").read_bytes() == b"".join(history_lines[:3])
    assert (tmp_path / "events.jsonl").read_bytes() == b"".join(lines)
    assert events.emit("checkpoint", 1, "loop", {"finished": True})
    assert (tmp_path / "events.jsonl").read_bytes().startswith(b"".join(lines[:3]) + b'{"seq": 4')
    events.close()
    history.close()
    assert len(read_steps(tmp_path / "events.jsonl")) == 4


@pytest.mark.parametrize(
    "edit, lineno",
    [(lambda rows: rows[1].update(score=0.5), 2),
     (lambda rows: rows.append(history_rows(3)[2]), 3)],
    ids=["score", "extra-record"],
)
def test_replay_names_the_first_line_it_writes_otherwise(tmp_path, edit, lineno):
    # a history row is compared with the next logged row, before its eval_batch is
    write_logs(tmp_path, batch(1, history_rows(2)) + event(2), n_history=2)
    logs = {name: (tmp_path / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    events, history = replay_logs(tmp_path, at(2))
    rows = history_rows(2)
    edit(rows)
    message = f"history.jsonl line {lineno}: the replay writes"
    with pytest.raises(CorruptCheckpoint, match=message):
        write_batch(events, history, rows)
    with pytest.raises(CorruptCheckpoint, match=message):
        events.emit("checkpoint", 1, "loop", {"finished": False})  # and nothing after it
    assert {name: (tmp_path / name).read_bytes() for name in logs} == logs


@pytest.mark.parametrize(
    "checkpoint",
    [at(1), Checkpoint(2, 2, None), Checkpoint(1, 2, "budget"), Checkpoint(1, 0, None)],
    ids=["not-a-checkpoint", "round", "finished", "no-events"],
)
def test_replay_refuses_a_checkpoint_that_its_log_does_not_end_with(tmp_path, checkpoint):
    write_logs(tmp_path, batch(1, history_rows(2)) + event(2), n_history=2)
    with pytest.raises(CorruptCheckpoint, match=r"events.jsonl line \d: not the \{'checkpoint'"):
        Replay(tmp_path, checkpoint)


def test_read_log_beyond_length_is_corrupt(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"seq": 1}\n', encoding="utf-8")
    with pytest.raises(CorruptCheckpoint, match="1 complete lines, checkpoint expects 5"):
        read_log(path, 5)
    # a history shorter than its batches fails at the first row it lacks
    write_logs(tmp_path, batch(1, history_rows(2)) + event(2), n_history=1)
    events, history = replay_logs(tmp_path, at(2))
    with pytest.raises(CorruptCheckpoint, match="history.jsonl line 2: the replay writes"):
        write_batch(events, history, history_rows(2))


def test_resume_seq_gap_is_corrupt(tmp_path):
    write_logs(tmp_path, event(1) + event(3))
    with pytest.raises(CorruptCheckpoint, match="line 2: seq is not 2"):
        Replay(tmp_path, at(2))


@pytest.mark.parametrize(
    "bad, reason",
    [
        (b'{"seq": 2', "Expecting"),
        (b'\xff\xfe{"seq": 2}', "utf-8"),
        (b"[" * 5000 + b"]" * 5000, "maximum recursion depth"),
    ],
    ids=["json", "utf-8", "too-deep"],
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
    write_logs(tmp_path, event(1) + event(2) + b'{"seq": 3, "tru')
    path = tmp_path / "events.jsonl"
    assert read_log(path) == [json.loads(event(1)), json.loads(event(2))]
    Replay(tmp_path, at(2))
    with pytest.raises(CorruptCheckpoint, match="2 complete lines, checkpoint expects 3"):
        Replay(tmp_path, at(3))


CALL = {"role": "worker", "backend": "mutator", "system_sha": "s", "user_sha": "u",
        "reply": "{}", "input_tokens": 7, "output_tokens": 3, "latency_ms": 0}
WORKER = {**CALL, "task": "SIMILAR", "trajectory": 0, "parent": 1, "rejected": {}}


def test_read_steps_groups_each_call_with_what_it_caused(tmp_path):
    rows = history_rows(5)
    kinds_and_payloads = [
        ("eval_batch", {"origin": "init", "n": 2, "truncated": 0, "records": rows[:2]}),
        ("checkpoint", None),
        ("eval_batch", {"origin": "explorer", "n": 1, "truncated": 0, "records": rows[2:3]}),
        ("step", {**CALL, "role": "explorer", "rejected": {"invalid": 2}}),
        ("step", {**CALL, "role": "explorer", "rejected": {}}),  # a reply without candidates
        ("step", {**CALL, "role": "planner"}),
        ("registry_change", {"op": "add", "task": "T1"}),
        ("eval_batch", {"origin": "worker:SIMILAR", "n": 1, "truncated": 0,
                        "records": rows[3:4], "task": "SIMILAR"}),
        ("step", {**WORKER, "success": True}),
        ("step", {**WORKER, "parent": 4, "success": False}),  # a reply without candidates
        ("round_end", {"evals_used": 4, "best_score": 3.0, "stop_reason": None}),
        ("checkpoint", None),
        ("eval_batch", {"origin": "resampled-init", "n": 0, "truncated": 0, "records": []}),
        ("step", {**CALL, "role": "explorer", "rejected": {}}),
        ("eval_batch", {"origin": "worker:SIMILAR", "n": 1, "truncated": 0,
                        "records": rows[4:], "task": "SIMILAR"}),
    ]
    data = b"".join(
        event(seq, kind, payload) for seq, (kind, payload) in enumerate(kinds_and_payloads, 1)
    )
    # the last batch's step was cut off by a kill
    (tmp_path / "events.jsonl").write_bytes(data + b'{"seq": 16, "kind": "st')
    steps = read_steps(tmp_path / "events.jsonl")
    assert [list(step.events) for step in steps] == [
        ["eval_batch"],
        ["checkpoint"],
        ["eval_batch", "step"],
        ["step"],
        ["step"],
        ["registry_change"],
        ["eval_batch", "step"],
        ["step"],
        ["round_end"],
        ["checkpoint"],
        ["eval_batch"],  # an init batch has no call
        ["step"],
        ["eval_batch"],  # a step without a call
    ]
    assert [step.call["role"] for step in steps if step.call] == [
        "explorer", "explorer", "planner", "worker", "worker", "explorer"
    ]
    assert steps[6].call["success"] is True and steps[7].call["success"] is False
    assert steps[6].events["eval_batch"]["records"] == rows[3:4]
    assert (steps[0].round, steps[0].phase) == (1, "loop")
    assert steps.rows == rows


@pytest.mark.parametrize(
    "line, message",
    [
        (b"[2]\n", "seq is not 2"),
        (event(2, "nonsense", {}), "kind 'nonsense' is not an event kind"),
        (event(2, "error", [1]), r"payload \[1\] is not an object"),
        (event(2, "step", {**CALL, "input_tokens": None}), "step input_tokens is None"),
        (event(2, "step", {**WORKER, "success": 1}), "step success is 1"),
        (event(2, "step", {**CALL, "latency_ms": False}), "step latency_ms is False"),
        (event(2, "agent_call", CALL), "kind 'agent_call' is not an event kind"),
        (event(2, "eval_batch", {"origin": "init", "n": 0, "truncated": 0}),
         "eval_batch records is None"),
    ],
    ids=[
        "not-object", "kind", "payload", "field-type", "optional-field-type", "bool-for-int",
        "version-2-kind", "field-missing",
    ],
)
def test_read_steps_names_a_malformed_event(tmp_path, line, message):
    path = tmp_path / "events.jsonl"
    path.write_bytes(event(1) + line)
    with pytest.raises(CorruptCheckpoint, match=f"events.jsonl line 2: {message}"):
        read_steps(path)
    assert len(read_steps(path, 1)) == 1  # lines past the limit are not checked


@pytest.mark.parametrize("score", [float("nan"), float("inf"), True, 1, "0.5", None])
def test_replay_hands_out_finite_float_scores_only(tmp_path, score):
    rows = history_rows(2)
    rows[1]["score"] = score
    write_logs(tmp_path, batch(1, rows) + event(2), n_history=2)
    replay = Replay(tmp_path, at(2))
    message = "events.jsonl line 1: the scores .* are not all finite floats"
    with pytest.raises(CorruptCheckpoint, match=message):
        replay.batch(2)
    with pytest.raises(CorruptCheckpoint, match=message):
        replay.logged("eval_batch")


def test_replay_fails_for_good_at_a_line_it_cannot_hand_out(tmp_path):
    # an explorer batch, then its step, which the replay reads ahead when asked for the call
    explorer = {"origin": "explorer", "n": 2, "truncated": 0, "records": history_rows(2)}
    step = event(2, "step", {**CALL, "role": "explorer", "input_tokens": True})
    write_logs(tmp_path, event(1, "eval_batch", explorer) + step + event(3), n_history=2)
    events, history = replay_logs(tmp_path, at(3))
    message = "events.jsonl line 2: step input_tokens is True"
    with pytest.raises(CorruptCheckpoint, match=message):
        events.replay.logged("step")
    for later in (lambda: events.replay.batch(2), lambda: write_batch(events, history, history_rows(2))):
        with pytest.raises(CorruptCheckpoint, match=message):
            later()


def test_checkpoint_round_trip(tmp_path):
    checkpoint = Checkpoint(round_idx=2, events_seq=40, stop_reason=None)
    assert write_checkpoint(tmp_path, checkpoint) == tmp_path / "checkpoint.json"
    loaded = load_checkpoint(tmp_path / "checkpoint.json")
    assert loaded == checkpoint
    # one compact encoding, in one file: no temporary file or per-round copy is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]
    written = (tmp_path / "checkpoint.json").read_bytes()
    assert b"\n" not in written and b", " not in written
    assert list(json.loads(written)) == ["version", "round_idx", "events_seq", "stop_reason"]
    assert json.loads(written)["version"] == 5


def test_load_checkpoint_garbage_is_corrupt(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(tmp_path / "missing.json")
    path.write_bytes(b'\xff\xfe{"version": 3}')
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


# Version 3 fields: version 2 has the same ones, and its log holds agent_call events
V3 = {"round_idx": 2, "finished": False, "history_len": 14, "events_seq": 40,
      "registry": {}, "rng": {}, "ledger": {}, "backends": {}, "stop_reason": None}


def test_version_2_checkpoint_is_refused_by_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"version": 2, **V3}), encoding="utf-8")
    with pytest.raises(CorruptCheckpoint, match="version 2 is not supported.*version 5 only"):
        load_checkpoint(path)


def test_version_3_checkpoint_is_refused_by_version(tmp_path):
    # version 3 also stored the registry, the ledger and the history length
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"version": 3, **V3}), encoding="utf-8")
    with pytest.raises(CorruptCheckpoint, match="version 3 is not supported.*version 5 only"):
        load_checkpoint(path)


def test_version_4_checkpoint_is_refused_by_version(tmp_path):
    # version 4 also stored the RNG streams and the backends' states
    path = tmp_path / "checkpoint.json"
    v4 = {"version": 4, "round_idx": 2, "events_seq": 40, "stop_reason": None,
          "rng": {}, "backends": {}}
    path.write_text(json.dumps(v4), encoding="utf-8")
    with pytest.raises(CorruptCheckpoint, match="version 4 is not supported.*version 5 only"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [
        # rng: a field of version 4, of no type in version 5
        ("events_seq", "40"), ("stop_reason", 5), ("rng", []), ("round_idx", ...),
        ("round_idx", True), ("events_seq", -1),
    ],
)
def test_checkpoint_field_of_wrong_type_is_corrupt(tmp_path, field, value):
    checkpoint = Checkpoint(2, 40, None)
    write_checkpoint(tmp_path, checkpoint)
    payload = json.loads((tmp_path / "checkpoint.json").read_text())
    payload[field] = value
    if value is ...:  # missing altogether
        del payload[field]
    (tmp_path / "checkpoint.json").write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint, match=field):
        load_checkpoint(tmp_path / "checkpoint.json")
