from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentopt.backends import (
    CompletionRequest,
    CompletionResult,
    HttpBackend,
    MutatorBackend,
    RoleRouter,
    RoleSettings,
    ScriptedBackend,
    TokenLedger,
    scripted_load,
)
from agentopt.errors import BackendUnavailable, BadResponse, MalformedScript


def req(role="explorer", system="sys", user="usr"):
    return CompletionRequest(system=system, user=user, agent_role=role)


# -- scripted ----------------------------------------------------------------


def script_entries(role: str, replies: list[str]) -> list[dict]:
    return [{"match": {"role": role}, "reply": r} for r in replies]


def test_scripted_plays_back_in_order():
    backend = ScriptedBackend(script_entries("explorer", ["one", "two"]))
    assert backend.complete(req()).text == "one"
    assert backend.complete(req()).text == "two"


def test_scripted_honors_configured_stub_token_counts():
    backend = ScriptedBackend(
        [
            {
                "match": {"role": "worker"},
                "reply": "r",
                "usage": {"input_tokens": 100, "output_tokens": 200},
            }
        ]
    )
    result = backend.complete(req(role="worker"))
    assert (result.input_tokens, result.output_tokens) == (100, 200)


def test_scripted_exhaustion_raises():
    backend = ScriptedBackend(script_entries("explorer", ["a", "b", "c"]))
    for _ in range(3):
        backend.complete(req())
    with pytest.raises(BackendUnavailable):
        backend.complete(req())


def test_scripted_queues_are_per_role():
    entries = script_entries("explorer", ["e1"]) + script_entries("worker", ["w1"])
    backend = ScriptedBackend(entries)
    assert backend.complete(req(role="worker")).text == "w1"
    assert backend.complete(req(role="explorer")).text == "e1"


def test_scripted_load_plays_rows_by_nth_call(tmp_path):
    path = tmp_path / "script.jsonl"
    rows = [
        {"match": {"role": "explorer", "nth_call": 1}, "reply": "first"},
        {"match": {"role": "explorer", "nth_call": 2}, "reply": "second"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    backend = scripted_load(path)
    assert [backend.complete(req()).text for _ in rows] == ["first", "second"]


def test_scripted_null_token_count_takes_the_estimate():
    usage = {"input_tokens": None, "output_tokens": 200}
    backend = ScriptedBackend([{"match": {"role": "worker"}, "reply": "r", "usage": usage}])
    result = backend.complete(req(role="worker", system="a b", user="c"))
    assert (result.input_tokens, result.output_tokens) == (3, 200)


# a bool is no count here, though it is an int to isinstance
NOT_COUNTS = ["abc", True, -3, 1.5, [1]]


@pytest.mark.parametrize("count", NOT_COUNTS)
def test_scripted_token_count_that_is_no_count_is_refused(tmp_path, count):
    row = {"match": {"role": "explorer"}, "reply": "r", "usage": {"output_tokens": count}}
    with pytest.raises(BadResponse, match="usage output_tokens is"):
        ScriptedBackend([row]).complete(req())
    path = tmp_path / "script.jsonl"
    path.write_text(json.dumps(script_entries("explorer", ["ok"])[0]) + "\n\n" + json.dumps(row))
    with pytest.raises(MalformedScript, match=r"script\.jsonl:3: usage output_tokens is"):
        scripted_load(path)


def test_scripted_load_empty_file_is_malformed(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedScript):
        scripted_load(path)


def test_scripted_load_bad_json_is_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"match": {"role": "explorer"}, "reply": "ok"}\n{oops\n')
    with pytest.raises(MalformedScript):
        scripted_load(path)


def test_scripted_row_nested_too_deep_is_malformed(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"match": {"role": "explorer"}, "reply": "ok"}\n' + "[" * 5000 + "\n")
    with pytest.raises(MalformedScript, match=r"deep\.jsonl:2: invalid JSON"):
        scripted_load(path)


def test_scripted_row_that_is_no_object_is_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"match": {"role": "explorer"}, "reply": "ok"}\n[1]\n')
    with pytest.raises(MalformedScript, match=r"bad\.jsonl:2: not a JSON object"):
        scripted_load(path)
    with pytest.raises(MalformedScript, match=r"entry 2: not a JSON object"):
        ScriptedBackend([{"match": {"role": "explorer"}, "reply": "ok"}, [1]])


def test_scripted_load_keeps_unicode_line_separators_inside_a_row(tmp_path):
    path = tmp_path / "script.jsonl"
    reply = "CANDIDATES:\nAAB\u2028A\u2029A\x85\n"  # written raw, not escaped
    row = {"match": {"role": "explorer"}, "reply": reply}
    path.write_bytes((json.dumps(row, ensure_ascii=False) + "\r\n").encode("utf-8") * 2)
    backend = scripted_load(path)
    assert backend.complete(req()).text == reply
    assert backend.complete(req()).text == reply


def test_scripted_load_lone_surrogate_is_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"match": {"role": "explorer"}, "reply": "ok"}\n'
        '{"match": {"role": "explorer"}, "reply": "CANDIDATES:\\nAAB\\ud800A\\n"}\n'
    )
    with pytest.raises(MalformedScript, match=r"bad\.jsonl:2: not UTF-8 text"):
        scripted_load(path)


def test_scripted_rejects_out_of_order_nth_call():
    with pytest.raises(MalformedScript):
        ScriptedBackend(
            [{"match": {"role": "explorer", "nth_call": 5}, "reply": "x"}]
        )


# -- token ledger ---------------------------------------------------------------


def test_ledger_all_zero_without_calls():
    report = TokenLedger().report()
    assert report["total"] == {
        "input_tokens": 0,
        "output_tokens": 0,
        "calls": 0,
        "total_tokens": 0,
    }
    assert report["per_role"] == {}


def test_ledger_sums_two_calls():
    ledger = TokenLedger()
    for _ in range(2):
        ledger.record("worker", "b", CompletionResult("x", 100, 200, 0))
    row = ledger.report()["per_role"]["worker"]
    assert (row["input_tokens"], row["output_tokens"], row["total_tokens"]) == (
        200,
        400,
        600,
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["explorer", "planner", "worker"]),
            st.integers(0, 500),
            st.integers(0, 500),
        ),
        max_size=40,
    )
)
def test_ledger_role_partition_sums_to_total(calls):
    ledger = TokenLedger()
    for role, tin, tout in calls:
        ledger.record(role, f"backend-{role}", CompletionResult("x", tin, tout, 0))
    report = ledger.report()
    for table in ("per_role", "per_backend"):
        assert (
            sum(r["total_tokens"] for r in report[table].values())
            == report["total"]["total_tokens"]
        )
    assert report["total"]["input_tokens"] == sum(c[1] for c in calls)
    assert report["total"]["output_tokens"] == sum(c[2] for c in calls)

def test_ledger_books_failed_attempts_per_role_and_backend():
    ledger = TokenLedger()
    ledger.record("worker", "b", CompletionResult("x", 5, 7, 0, failed_attempts=2))
    ledger.record("worker", "b", CompletionResult("x", 1, 1, 0))
    ledger.record("planner", "b", CompletionResult("x", 1, 1, 0, failed_attempts=1))
    report = ledger.report()
    assert report["failed_attempts"] == {"worker/b": 2, "planner/b": 1}
    assert report["per_role"]["worker"] == {
        "input_tokens": 6, "output_tokens": 8, "calls": 2, "total_tokens": 14
    }
    assert TokenLedger().report()["failed_attempts"] == {}


# -- retry state machine -----------------------------------------------------------


class FlakyHandler(BaseHTTPRequestHandler):
    statuses: list[int] = []
    seen: list[dict] = []
    content = "pong"
    usage: object = {"prompt_tokens": 11, "completion_tokens": 3}
    body = b""  # when set, sent as is in place of the payload

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        status = type(self).statuses.pop(0) if type(self).statuses else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            return
        payload = {
            "choices": [{"message": {"content": type(self).content}}],
            "usage": type(self).usage,
        }
        raw = type(self).body or json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def flaky_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    FlakyHandler.statuses = []
    FlakyHandler.seen = []
    FlakyHandler.content = "pong"
    FlakyHandler.usage = {"prompt_tokens": 11, "completion_tokens": 3}
    FlakyHandler.body = b""
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_http_retries_through_429_then_succeeds(flaky_server):
    FlakyHandler.statuses = [429, 429]
    backend = HttpBackend(flaky_server, "test-model", max_retries=3, retry_backoff_ms=1)
    result = backend.complete(req())
    assert result.text == "pong"
    assert (result.input_tokens, result.output_tokens) == (11, 3)
    assert result.latency_ms >= 0
    assert result.failed_attempts == 2
    assert len(FlakyHandler.seen) == 3
    FlakyHandler.statuses = []
    assert backend.complete(req()).failed_attempts == 0



def test_http_gives_up_after_retries(flaky_server):
    FlakyHandler.statuses = [503, 503, 503, 503]
    backend = HttpBackend(
        flaky_server, "test-model", max_retries=2, retry_backoff_ms=1
    )
    with pytest.raises(BackendUnavailable):
        backend.complete(req())
    assert len(FlakyHandler.seen) == 3  # initial try plus two retries


def test_http_bad_status_is_not_retried(flaky_server):
    FlakyHandler.statuses = [418]
    backend = HttpBackend(flaky_server, "test-model", retry_backoff_ms=1)
    with pytest.raises(BadResponse):
        backend.complete(req())
    assert len(FlakyHandler.seen) == 1


def test_http_reply_with_a_lone_surrogate_is_a_bad_response(flaky_server):
    # the body escapes it as "\ud800", which response.json() decodes
    FlakyHandler.content = "CANDIDATES:\nAAB\ud800A\n"
    backend = HttpBackend(flaky_server, "test-model", retry_backoff_ms=1)
    with pytest.raises(BadResponse, match="not UTF-8 text"):
        backend.complete(req())
    assert len(FlakyHandler.seen) == 1


def test_http_body_nested_too_deep_is_a_bad_response(flaky_server):
    FlakyHandler.body = b'{"choices": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    backend = HttpBackend(flaky_server, "test-model", retry_backoff_ms=1)
    with pytest.raises(BadResponse, match="malformed completion payload: maximum recursion"):
        backend.complete(req())
    assert len(FlakyHandler.seen) == 1


@pytest.mark.parametrize(
    "usage, tokens",
    [({"prompt_tokens": None, "completion_tokens": 3}, (0, 3)), ({}, (0, 0)), (None, (0, 0))],
    ids=["null", "missing", "no-usage"],
)
def test_http_missing_or_null_token_count_is_zero(flaky_server, usage, tokens):
    FlakyHandler.usage = usage
    result = HttpBackend(flaky_server, "test-model", retry_backoff_ms=1).complete(req())
    assert (result.input_tokens, result.output_tokens) == tokens


@pytest.mark.parametrize("count", NOT_COUNTS)
def test_http_token_count_that_is_no_count_is_a_bad_response(flaky_server, count):
    FlakyHandler.usage = {"prompt_tokens": count, "completion_tokens": 3}
    backend = HttpBackend(flaky_server, "test-model", retry_backoff_ms=1)
    with pytest.raises(BadResponse, match="usage prompt_tokens is"):
        backend.complete(req())
    FlakyHandler.usage = [count]
    with pytest.raises(BadResponse, match="is not an object"):
        backend.complete(req())
    assert len(FlakyHandler.seen) == 2  # not retried


def test_http_payload_shape(flaky_server):
    backend = HttpBackend(flaky_server, "test-model", retry_backoff_ms=1)
    backend.complete(
        CompletionRequest(
            system="sys text",
            user="usr text",
            agent_role="planner",
            temperature=0.25,
            max_output_tokens=128,
        )
    )
    sent = FlakyHandler.seen[0]
    assert sent["model"] == "test-model"
    assert sent["messages"] == [
        {"role": "system", "content": "sys text"},
        {"role": "user", "content": "usr text"},
    ]
    assert sent["temperature"] == 0.25
    assert sent["max_tokens"] == 128


# -- router ----------------------------------------------------------------------


def test_router_routes_roles_and_books_usage():
    ledger = TokenLedger()
    default = ScriptedBackend(script_entries("explorer", ["e"]), name="strong")
    worker = ScriptedBackend(script_entries("worker", ["w"]), name="fast")
    router = RoleRouter(
        ledger,
        default,
        overrides={"worker": worker},
        settings={"worker": RoleSettings(temperature=0.8)},
    )
    assert router.complete("explorer", "s", "u").text == "e"
    assert router.complete("worker", "s", "u").text == "w"
    report = ledger.report()
    assert set(report["per_backend"]) == {"strong", "fast"}
    assert report["per_role"]["worker"]["calls"] == 1


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest(system="", user="u", agent_role="explorer", temperature=-1)
    with pytest.raises(ValueError):
        CompletionRequest(system="", user="u", agent_role="boss")


# -- mutator ----------------------------------------------------------------------


def test_mutator_reads_context_lines_and_answers_json():
    backend = MutatorBackend(seed=1, alphabet="ACDE")
    user = "## DATA\n\n0.5000: ACDCA\n0.1000: DDDDD\n\npropose"
    result = backend.complete(
        CompletionRequest(system="", user=user, agent_role="explorer")
    )
    payload = json.loads(result.text)
    assert payload["candidates"]
    assert all(set(c) <= set("ACDE") for c in payload["candidates"])


def test_mutator_uses_worker_input_line():
    backend = MutatorBackend(seed=2, alphabet="KLWR")
    result = backend.complete(
        CompletionRequest(
            system="task text", user="Input Peptide: KLWRKLLR\nModify it.",
            agent_role="worker",
        )
    )
    payload = json.loads(result.text)
    assert 5 <= len(payload["candidates"]) <= 10


def test_mutator_is_deterministic_per_seed():
    a = MutatorBackend(seed=7).complete(req(user="0.5: KLWRK")).text
    b = MutatorBackend(seed=7).complete(req(user="0.5: KLWRK")).text
    assert a == b


def test_mutator_planner_reuses_visible_task_names():
    backend = MutatorBackend(seed=1)
    user = (
        "## TASK PERFORMANCE\n\nNo performance data yet.\n\n"
        "## EXISTING TASKS\n\nSIMILAR: TASK: small variants.\n"
        "EXPLORE: TASK: bigger moves.\nSHUFFLE: TASK: rearrange.\n"
    )
    result = backend.complete(
        CompletionRequest(system="", user=user, agent_role="planner")
    )
    payload = json.loads(result.text)
    assert payload == {
        "SIMILAR": "USE_EXISTING",
        "EXPLORE": "USE_EXISTING",
        "SHUFFLE": "USE_EXISTING",
    }
