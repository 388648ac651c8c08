from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentopt.core import Candidate, DomainKind, ScoredRecord, canonicalize
from agentopt.errors import CorruptCheckpoint
from agentopt.events import (
    Checkpoint,
    EventLog,
    HistoryLog,
    load_checkpoint,
    load_history,
    read_log,
    read_steps,
    record_from_json,
    render_row,
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
    if task is not None:
        payload["task"] = expected["task"] = task
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

    history = History()
    for i, text in enumerate(["AAA", "BBB", "CCC"]):
        record = history.append(canonicalize(text, DomainKind.GENERIC), float(i), "init")
        log.write_record(record)
    log.close()
    loaded = load_history(path)
    assert loaded.evals_used == 3
    assert loaded.score_of("BBB") == 1.0
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


def at(events_seq: int, history_len: int = 0) -> Checkpoint:
    return Checkpoint(1, False, history_len, events_seq, {}, {}, {}, {})


def test_resume_cut_keeps_prefix_bytes(tmp_path):
    lines = [batch(1, history_rows(2))] + [event(i) for i in range(2, 6)]
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
    write_logs(tmp_path, batch(1, history_rows(1)), n_history=1)
    with pytest.raises(CorruptCheckpoint, match="history.jsonl has 1 complete lines"):
        resume_logs(tmp_path, at(1, history_len=2))


def test_resume_seq_gap_is_corrupt(tmp_path):
    write_logs(tmp_path, event(1) + event(3))
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
    write_logs(tmp_path, event(1) + event(2) + b'{"seq": 3, "tru')
    path = tmp_path / "events.jsonl"
    assert read_log(path) == [json.loads(event(1)), json.loads(event(2))]
    resume_logs(tmp_path, at(2))
    with pytest.raises(CorruptCheckpoint, match="2 complete lines, checkpoint expects 3"):
        resume_logs(tmp_path, at(3))


CALL = {"role": "worker", "backend": "mutator", "system_sha": "s", "user_sha": "u",
        "reply": "{}", "input_tokens": 7, "output_tokens": 3, "latency_ms": 0}
FILTER = {"n_in": 1, "n_accepted": 1, "rejected": []}


def test_read_steps_groups_each_call_with_what_it_caused(tmp_path):
    rows = history_rows(4)
    outcome = {"op": "outcome", "task": "SIMILAR", "success": True, "trajectory": 0}
    kinds_and_payloads = [
        ("eval_batch", {"origin": "init", "n": 2, "truncated": 0, "records": rows[:2]}),
        ("checkpoint", None),
        ("agent_call", {**CALL, "role": "explorer"}),
        ("filter_report", FILTER),
        ("eval_batch", {"origin": "explorer", "n": 1, "truncated": 0, "records": rows[2:3]}),
        ("agent_call", {**CALL, "role": "planner"}),
        ("registry_change", {"op": "add", "task": "T1"}),
        ("agent_call", CALL),
        ("filter_report", FILTER),
        ("eval_batch", {"origin": "worker:SIMILAR", "n": 1, "truncated": 0,
                        "records": rows[3:]}),
        ("registry_change", outcome),
        ("agent_call", CALL),  # a reply without candidates
        ("registry_change", {**outcome, "success": False}),
        ("round_end", {"evals_used": 4, "best_score": 3.0, "stop_reason": None}),
        ("checkpoint", None),
    ]
    data = b"".join(
        event(seq, kind, payload) for seq, (kind, payload) in enumerate(kinds_and_payloads, 1)
    )
    (tmp_path / "events.jsonl").write_bytes(data + b'{"seq": 16, "tru')
    steps = read_steps(tmp_path / "events.jsonl")
    assert [list(step.events) for step in steps] == [
        ["eval_batch"],
        ["checkpoint"],
        ["agent_call", "filter_report", "eval_batch"],
        ["agent_call"],
        ["registry_change"],
        ["agent_call", "filter_report", "eval_batch", "registry_change"],
        ["agent_call", "registry_change"],
        ["round_end"],
        ["checkpoint"],
    ]
    assert [step.call["role"] for step in steps if step.call] == [
        "explorer", "planner", "worker", "worker"
    ]
    assert steps[6].events["registry_change"]["success"] is False
    assert (steps[0].round, steps[0].phase) == (1, "loop")
    assert steps.rows == rows and steps.size == len(data)


@pytest.mark.parametrize(
    "line, message",
    [
        (b"[2]\n", "seq is not 2"),
        (event(2, "nonsense", {}), "kind 'nonsense' is not an event kind"),
        (event(2, "error", [1]), r"payload \[1\] is not an object"),
        (event(2, "agent_call", {**CALL, "input_tokens": None}), "agent_call input_tokens is None"),
        (event(2, "eval_batch", {"origin": "init", "n": 0, "truncated": 0}),
         "eval_batch records is None"),
    ],
    ids=["not-object", "kind", "payload", "field-type", "field-missing"],
)
def test_read_steps_names_a_malformed_event(tmp_path, line, message):
    path = tmp_path / "events.jsonl"
    path.write_bytes(event(1) + line)
    with pytest.raises(CorruptCheckpoint, match=f"events.jsonl line 2: {message}"):
        read_steps(path)
    assert len(read_steps(path, 1)) == 1  # lines past the limit are not checked


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
