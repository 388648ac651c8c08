from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import yaml
from hypothesis import given, note, settings
from hypothesis import strategies as st

import agentopt.events as events_module
from agentopt.backends import MutatorBackend
from agentopt.cli import main
from agentopt.config import build_init_plan, default_config, validate_config
from agentopt.core import PortfolioSpec
from agentopt.errors import InsufficientInit, OracleFailure
from agentopt.events import Replay, Step, load_checkpoint, read_log, read_steps
from agentopt.oracles import MotifMatchOracle
from agentopt.rng import RngHub

from .conftest import (
    Killed,
    assert_events_agree,
    candidates_reply,
    diverse_init,
    multi_round_replies,
    write_script,
)


def write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def scripted_run_config(tmp_path: Path, n_rounds: int = 4, seed: int = 0) -> Path:
    init_file = tmp_path / "init.txt"
    init_file.write_text("\n".join(diverse_init(10)) + "\n", encoding="utf-8")
    script_file = tmp_path / "script.jsonl"
    write_script(script_file, multi_round_replies(n_rounds))
    return write_yaml(
        tmp_path / "config.yaml",
        {
            "run": {"seed": seed, "output_dir": str(tmp_path / "out")},
            "domain": {"kind": "generic"},
            "objective": {"direction": "maximize", "budget": 10 + 4 * n_rounds},
            "backends": {"default": {"kind": "scripted", "script": str(script_file)}},
            "oracle": {
                "kind": "synthetic",
                "name": "hidden-weights",
                "params": {"weights": {"A": 1.0}, "normalize": False},
            },
            "init": {"source": {"kind": "file", "path": str(init_file)}, "count": 10},
        },
    )


def mutator_run_config(tmp_path: Path, budget: int = 40) -> Path:
    return write_yaml(
        tmp_path / "config.yaml",
        {
            "run": {"seed": 3, "output_dir": str(tmp_path / "out")},
            "domain": {"kind": "peptide"},
            "objective": {"direction": "maximize", "budget": budget},
            "backends": {"default": {"kind": "mutator", "seed": 5}},
            "oracle": {
                "kind": "synthetic",
                "name": "motif-match",
                "params": {"target": "KLWKKLRW"},
            },
            "init": {
                "source": {
                    "kind": "templates_plus_mutations",
                    "templates": ["KTLKIIRLLF", "RQKNHGIHFRVLAKALR"],
                },
                "count": 20,
            },
        },
    )


# -- run ---------------------------------------------------------------------


def test_run_scripted_smoke(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    for name in ("events.jsonl", "history.jsonl", "checkpoint.json", "summary.json",
                 "config.json"):
        assert (out_dir / name).is_file()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["evals_used"] == summary["budget"] == 26
    assert summary["stop_reason"] == "budget"
    assert summary["best_score"] == 4.0
    assert summary["tokens"]["total"]["calls"] > 0


def test_run_mutator_smoke_improves(tmp_path):
    config = mutator_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["evals_used"] == 40
    history = read_log(tmp_path / "out" / "history.jsonl")
    init_best = max(r["score"] for r in history[:20])
    assert summary["best_score"] >= init_best


@pytest.mark.parametrize(
    "portfolio", [[], ["--objective.portfolio.size=3"]], ids=["no-portfolio", "portfolio"]
)
def test_run_directory_holds_exactly_its_five_files(tmp_path, portfolio):
    # one checkpoint over several rounds: no per-round copy, no temporary file left
    config = mutator_run_config(tmp_path, budget=150)
    assert main(["run", "--config", str(config), *portfolio]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "checkpoint.json", "config.json", "events.jsonl", "history.jsonl", "summary.json",
    ]


def test_run_portfolio_mode_summary_and_curve(tmp_path):
    config = mutator_run_config(tmp_path)
    code = main(
        [
            "run",
            "--config",
            str(config),
            "--objective.portfolio.size=3",
            "--objective.portfolio.beta=0.5",
        ]
    )
    assert code == 0
    out_dir = tmp_path / "out"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["portfolio"]["size"] <= 3
    assert "agg_value" in summary["portfolio"]
    # sibling config carries the portfolio spec, so the curve grows columns
    curve = out_dir / "curve.csv"
    assert main(["export-curve", str(out_dir / "history.jsonl"), "--out", str(curve)]) == 0
    header = curve.read_text().splitlines()[0]
    assert header == "eval_index,best_so_far,portfolio_agg,portfolio_complete"


def test_run_missing_template_file_names_path(tmp_path, capsys):
    empty_dir = tmp_path / "templates"
    empty_dir.mkdir()
    config = scripted_run_config(tmp_path)
    code = main(
        ["run", "--config", str(config), "--set", f"domain.template_dir={empty_dir}"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "explorer.txt" in err
    assert str(empty_dir) in err


def test_run_cli_flag_overrides(tmp_path):
    config = scripted_run_config(tmp_path)
    code = main(
        [
            "run",
            "--config",
            str(config),
            "--set",
            "loop.max_fails=5",
            "--loop.seeds_m=3",
            "--run.output_dir=" + str(tmp_path / "out2"),
        ]
    )
    # the run itself fails fast (script mismatch with max_fails=5) or ends;
    # either way the resolved config copy must carry the overrides
    assert code in (0, 2)
    resolved = json.loads((tmp_path / "out2" / "config.json").read_text())
    assert resolved["loop"]["max_fails"] == 5
    assert resolved["loop"]["seeds_m"] == 3


def test_events_log_is_gapless_and_rebuilds_history(tmp_path):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    # read_steps refuses a gap in seq; the helper compares the rebuilt rows
    assert_events_agree(tmp_path / "out")


# -- validate-config -----------------------------------------------------------


def test_validate_config_ok(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(["validate-config", "--config", str(config)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_config_rejects_bad_values(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(
        ["validate-config", "--config", str(config), "--set", "loop.max_fails=0"]
    ) == 1
    assert "error[" in capsys.readouterr().err


def test_validate_config_missing_file(tmp_path):
    assert main(["validate-config", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_bytes(b"\xff\xfe" + f"run: {{output_dir: {out_dir}}}\n".encode())
    for command in ("validate-config", "run"):
        assert main([command, "--config", str(config)]) == 1
        assert f"error[ConfigError]: cannot read config {config}: " in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_nested_too_deep_is_a_config_error(tmp_path, capsys):
    deep = "[" * 3000 + "]" * 3000
    config = tmp_path / "config.yaml"
    config.write_text(f"run: {{seed: {deep}}}\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 1
    assert f"error[ConfigError]: config {config} is not valid YAML: " in capsys.readouterr().err
    # an override too deep to parse stays a string, which no int key takes
    config = write_yaml(tmp_path / "config.yaml", {"domain": {"kind": "generic"}})
    assert main(["validate-config", "--config", str(config), "--set", f"run.seed={deep}"]) == 1
    assert "error[ConfigError]" in capsys.readouterr().err


def test_explorer_reply_nested_too_deep_is_a_failed_step(tmp_path):
    config = scripted_run_config(tmp_path, n_rounds=2)
    replies = multi_round_replies(2)
    replies[1] = ("explorer", '{"a":' * 5000)  # in place of the first failing batch
    write_script(tmp_path / "script.jsonl", replies)
    assert main(["run", "--config", str(config), "--set", "objective.budget=17"]) == 0
    calls = [s for s in read_steps(tmp_path / "out" / "events.jsonl") if s.call is not None]
    # that call evaluates nothing and is the first of the three fails that end
    # the phase: the planner comes next after the fourth explorer call
    assert [s.call["role"] for s in calls] == (
        ["explorer"] * 4 + ["planner"] + ["worker"] * 6 + ["explorer"] * 4
    )
    assert ["eval_batch" in s.events for s in calls[:4]] == [True, False, True, True]
    assert calls[1].call["rejected"] == {}
    assert_events_agree(tmp_path / "out")


@pytest.mark.parametrize(
    "overrides",
    [
        ["oracle.timeout_ms=abc"],
        ["init.floor=abc"],
        ["backends.roles.worker.temperature=abc"],
        ["init.pool={kind: mutations}"],
        ["init.pool={kind: bogus}"],
        ["oracle.params.bogus=1"],
        ["oracle.params.target=5"],
        ["oracle.name=plateau", "oracle.params.floor=abc"],
        ["oracle.name=hidden-weights", "oracle.params.weights={A: x}"],
        ["init.count=abc"],
        ['init.zero_signal_guard="false"'],
        ["objective.budget=true"],
        ["backends.roles.worker.temperature=-1"],
        ["loop.registry_capacity=3"],
        ["domain.kind=bogus"],
        ["loop.seed_threshold=null"],
    ],
    ids=" ".join,
)
def test_validate_and_run_reject_the_same_configs(tmp_path, capsys, overrides):
    out_dir = tmp_path / "out"
    config = write_yaml(
        tmp_path / "config.yaml",
        {
            "run": {"seed": 1, "output_dir": str(out_dir)},
            "domain": {"kind": "generic"},
            "objective": {"budget": 30},
        },
    )
    sets = [arg for override in overrides for arg in ("--set", override)]
    for command in ("validate-config", "run"):
        assert main([command, "--config", str(config), *sets]) == 1
        assert "error[ConfigError]" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    ("text", "override", "message"),
    [
        ("init: {count: .inf}", None, "config key init.count is inf, expected int"),
        (
            "objective: {portfolio: {size: .inf}}",
            None,
            "objective.portfolio: config key size is inf, expected int",
        ),
        ("init: {count: 2.9}", None, "config key init.count is 2.9, expected int"),
        (
            'loop: {context: {context_size: "20"}}',
            None,
            "config key loop.context.context_size is '20', expected int",
        ),
        ("loop: {seed_threshold: .nan}", None, "config key loop.seed_threshold is nan"),
        ("oracle: {timeout_ms: .inf}", None, "config key oracle.timeout_ms is inf"),
        ("{}", "init.count=2.9", "config key init.count is 2.9, expected int"),
    ],
)
def test_number_keys_take_only_finite_numbers_of_their_kind(
    tmp_path, capsys, text, override, message
):
    config = tmp_path / "config.yaml"
    config.write_text(text + "\n", encoding="utf-8")
    sets = ["--set", override] if override else []
    assert main(["validate-config", "--config", str(config), *sets]) == 1
    assert f"error[ConfigError]: {message}" in capsys.readouterr().err


def test_init_file_that_is_not_utf8_names_key_and_path(tmp_path, capsys):
    init_file = tmp_path / "init.txt"
    init_file.write_bytes(b"\xff\xfeKLWR\n")
    out_dir = tmp_path / "out"
    config = write_yaml(
        tmp_path / "config.yaml",
        {"run": {"output_dir": str(out_dir)}, "domain": {"kind": "peptide"}},
    )
    for key in ("init.source", "init.pool"):
        override = f"{key}={{kind: file, path: {init_file}}}"
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(config), "--set", override]) == 1
            err = capsys.readouterr().err
            assert f"error[ConfigError]: {key}.path: cannot read init file {init_file}" in err
    assert not out_dir.exists()


def test_readme_config_examples_validate():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^( *)```yaml\n(.*?)^\1```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 4
    for _, block in blocks:
        validate_config(yaml.safe_load(textwrap.dedent(block)))


def test_default_config_loop_values():
    for kind in ("peptide", "smiles", "generic"):
        cfg = default_config(kind)
        assert cfg["loop"]["context"]["context_size"] == 20
        assert cfg["loop"]["context"]["top_k"] == 8
        assert cfg["loop"]["max_fails"] == 3
        assert cfg["loop"]["seeds_m"] == 2
        assert cfg["loop"]["registry_capacity"] == 20
        assert cfg["init"]["count"] == 100
    assert default_config("peptide")["loop"]["seed_threshold"] == 0.75
    assert default_config("smiles")["loop"]["seed_threshold"] == 0.5


# -- init plan edge cases ---------------------------------------------------------


def test_init_plan_insufficient_file(tmp_path):
    init_file = tmp_path / "short.txt"
    init_file.write_text("AAA\nBBB\nCCC\n", encoding="utf-8")
    cfg = default_config("generic")
    cfg["init"] = {
        "source": {"kind": "file", "path": str(init_file)},
        "count": 5,
    }
    config = validate_config(cfg)
    with pytest.raises(InsufficientInit):
        build_init_plan(config, RngHub(0))


def test_init_plan_ten_templates_plus_ninety_mutants():
    cfg = default_config("peptide")
    templates = ["ACDEFGHIKL"[i] * 3 + "LKWRLKWRLK" for i in range(10)]
    cfg["init"]["source"] = {"kind": "templates_plus_mutations", "templates": templates}
    plan = build_init_plan(validate_config(cfg), RngHub(1))
    assert len(plan.candidates) == 100
    assert len({c.canonical for c in plan.candidates}) == 100
    assert [c.canonical for c in plan.candidates[:10]] == [
        t.upper() for t in templates
    ]


def test_init_plan_dedups_with_shortfall(tmp_path, caplog):
    lines = ["AAA", "BBB", "AAA", "CCC", "BBB", "DDD", "EEE", "FFF", "GGG", "HHH"]
    init_file = tmp_path / "dups.txt"
    init_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = default_config("generic")
    cfg["init"] = {
        "source": {"kind": "file", "path": str(init_file)},
        "count": 10,
    }
    plan = build_init_plan(validate_config(cfg), RngHub(0))
    assert len(plan.candidates) == 8  # two duplicate lines dropped
    assert "8 distinct candidates for requested 10" in caplog.text


def test_init_plan_keeps_the_guard_pool_only_when_the_guard_is_on():
    cfg = default_config("peptide")
    assert validate_config(cfg).init_pool is None
    assert build_init_plan(validate_config(cfg), RngHub(0)).pool is None
    cfg["init"]["zero_signal_guard"] = True
    config = validate_config(cfg)
    plan = build_init_plan(config, RngHub(0))
    assert plan.pool.templates == config.init_source.templates
    assert plan.pool is not config.init_pool  # each run draws from its own copy


# -- resume ------------------------------------------------------------------------


def test_resume_finished_run_is_noop(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    assert main(["resume", str(tmp_path / "out")]) == 0
    assert "nothing to resume" in capsys.readouterr().out


@pytest.mark.parametrize(
    "portfolio", [None, {"size": 4, "beta": 0.5}], ids=["no-portfolio", "portfolio"]
)
def test_resume_finished_run_without_summary_writes_it(tmp_path, capsys, portfolio):
    # a kill between the last checkpoint and the summary leaves a finished
    # checkpoint, no summary
    config = mutator_run_config(tmp_path, budget=150)
    if portfolio is not None:
        cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
        cfg["objective"]["portfolio"] = portfolio
        write_yaml(config, cfg)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert ("portfolio" in summary) == (portfolio is not None)
    (out_dir / "summary.json").unlink()
    logs = {name: (out_dir / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()

    assert main(["resume", str(out_dir)]) == 0
    assert capsys.readouterr().out.startswith("finished: 150/150 evaluations")
    rewritten = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    del summary["wall_time_s"], rewritten["wall_time_s"]
    assert rewritten == summary
    assert {name: (out_dir / name).read_bytes() for name in logs} == logs


def test_reply_with_a_lone_surrogate_is_refused_where_the_script_is_read(
    tmp_path, capsys, checkpoint_recorder
):
    # "\ud800" is a valid JSON escape, but its lone surrogate has no UTF-8
    # form, so no log could write the reply
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    checkpoint_recorder.rewind(out_dir, 1)
    replies = multi_round_replies(4)
    index = [i for i, (role, _) in enumerate(replies) if role == "explorer"][4]  # round 2
    replies[index] = ("explorer", "CANDIDATES:\nAAB\ud800A\n")
    write_script(tmp_path / "script.jsonl", replies)
    logs = {name: (out_dir / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()
    assert main(["resume", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"script.jsonl:{index + 1}: not UTF-8 text" in err
    assert {name: (out_dir / name).read_bytes() for name in logs} == logs
    assert main(["run", "--config", str(config)]) == 1
    assert f"script.jsonl:{index + 1}: not UTF-8 text" in capsys.readouterr().err


def test_run_refuses_a_script_row_that_is_no_object(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    script = tmp_path / "script.jsonl"
    script.write_text(script.read_text(encoding="utf-8") + "[1]\n", encoding="utf-8")
    n_rows = len(multi_round_replies(4)) + 1
    assert main(["run", "--config", str(config)]) == 1
    assert f"script.jsonl:{n_rows}: not a JSON object" in capsys.readouterr().err


def test_resume_takes_a_run_directory_only(tmp_path, capsys, checkpoint_recorder):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    checkpoint_recorder.rewind(out_dir, 1)
    logs = {name: (out_dir / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()
    assert main(["resume", str(out_dir / "checkpoint.json")]) == 2
    missing = out_dir / "checkpoint.json" / "checkpoint.json"
    assert f"error[CorruptCheckpoint]: cannot read {missing}: " in capsys.readouterr().err
    assert {name: (out_dir / name).read_bytes() for name in logs} == logs


def test_resume_truncated_events_is_corrupt(tmp_path, capsys, checkpoint_recorder):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    # pretend the run stopped at round 1 but damage the event log
    checkpoint_recorder.rewind(out_dir, 1)
    events = (out_dir / "events.jsonl").read_text().splitlines()
    (out_dir / "events.jsonl").write_text("\n".join(events[:3]) + "\n", encoding="utf-8")
    assert main(["resume", str(out_dir)]) == 2
    assert "CorruptCheckpoint" in capsys.readouterr().err


def test_resume_from_round_boundary_reproduces_history(tmp_path, checkpoint_recorder):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    full_history = (out_dir / "history.jsonl").read_bytes()

    # rewind to the round-2 checkpoint and resume
    checkpoint_recorder.rewind(out_dir, 2)
    assert main(["resume", str(out_dir)]) == 0
    assert (out_dir / "history.jsonl").read_bytes() == full_history
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["evals_used"] == 26


def test_resume_config_with_removed_keys(tmp_path, checkpoint_recorder):
    # config.json files written before these keys were dropped still resume
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    full_history = (out_dir / "history.jsonl").read_bytes()
    resolved = json.loads((out_dir / "config.json").read_text())
    resolved["oracle"]["cache"] = True
    resolved["loop"].update(
        explorer_batch_request="10-20",
        worker_batch_request="5-10",
        planner_task_request="8-10",
    )
    (out_dir / "config.json").write_text(json.dumps(resolved), encoding="utf-8")
    checkpoint_recorder.rewind(out_dir, 2)
    assert main(["resume", str(out_dir)]) == 0
    assert (out_dir / "history.jsonl").read_bytes() == full_history
    old_portfolio = {"objective": {"portfolio": {"size": 3, "agg": "mean"}}}
    assert validate_config(old_portfolio).objective.portfolio == PortfolioSpec(size=3)


# -- failures and resume -------------------------------------------------------------


# fails on its first batch, which is the init batch
FAILING_ORACLE = {
    "kind": "subprocess",
    "command": [sys.executable, "-c", "import sys; sys.exit(3)"],
}


def test_oracle_failure_during_init_leaves_no_checkpoint(tmp_path, capsys):
    config = yaml.safe_load(scripted_run_config(tmp_path).read_text())
    config["oracle"] = FAILING_ORACLE
    write_yaml(tmp_path / "config.yaml", config)
    assert main(["run", "--config", str(tmp_path / "config.yaml")]) == 2
    assert "error[OracleFailure]" in capsys.readouterr().err
    out_dir = tmp_path / "out"
    assert not (out_dir / "checkpoint.json").exists()
    last = read_log(out_dir / "events.jsonl")[-1]
    assert (last["kind"], last["round"], last["phase"]) == ("error", 0, "init")
    assert main(["resume", str(out_dir)]) == 2
    assert "error[CorruptCheckpoint]" in capsys.readouterr().err


def http_oracle_run_config(tmp_path: Path, url: str) -> Path:
    """The scripted run, scored by the loopback server's count of A."""
    config = yaml.safe_load(scripted_run_config(tmp_path).read_text())
    config["oracle"] = {"kind": "http", "url": url}
    return write_yaml(tmp_path / "config.yaml", config)


def test_http_oracle_run_rides_out_a_503(tmp_path, score_server):
    histories, retries = [], []
    for name, statuses in (("steady", []), ("flaky", [503])):
        score_server.statuses = statuses
        (tmp_path / name).mkdir()
        config = http_oracle_run_config(tmp_path / name, score_server.url)
        assert main(["run", "--config", str(config)]) == 0
        histories.append((tmp_path / name / "out" / "history.jsonl").read_bytes())
        batches = [step.events.get("eval_batch", {}) for step in
                   read_steps(tmp_path / name / "out" / "events.jsonl")]
        retries.append([batch["failed_attempts"] for batch in batches
                        if "failed_attempts" in batch])
    assert histories[0] == histories[1]
    assert len(histories[0].splitlines()) == 26
    assert len(score_server.candidates) == 2 * 26 + 1
    assert retries == [[], [1]]  # the retried request is logged on its batch


def test_http_oracle_run_stops_at_a_418(tmp_path, capsys, score_server):
    score_server.statuses = [418]
    config = http_oracle_run_config(tmp_path, score_server.url)
    assert main(["run", "--config", str(config)]) == 2
    assert "error[OracleFailure]: oracle HTTP 418" in capsys.readouterr().err
    assert len(score_server.candidates) == 1


class ChatHandler(BaseHTTPRequestHandler):
    """Loopback chat endpoint whose reply is a pure function of the request:
    three candidates spelled from the hash of its messages. ``requests``
    records each request's messages in order."""

    requests: list[list[dict]] = []

    def do_POST(self):
        messages = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["messages"]
        type(self).requests.append(messages)
        digest = hashlib.sha256(json.dumps(messages).encode()).hexdigest()
        candidates = ["".join("AKLW"[int(c, 16) % 4] for c in digest[i:i + 6]) for i in (0, 6, 12)]
        body = {"choices": [{"message": {"content": candidates_reply(candidates)}}],
                "usage": {"prompt_tokens": len(digest), "completion_tokens": 9}}
        raw = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    """A running ``ChatHandler`` subclass; its ``url`` is its endpoint."""
    handler = type("Handler", (ChatHandler,), {"requests": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    handler.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield handler
    server.shutdown()
    server.server_close()


def test_resume_asks_nothing_for_logged_work(tmp_path, chat_server, score_server,
                                             checkpoint_recorder):
    config = yaml.safe_load(http_oracle_run_config(tmp_path, score_server.url).read_text())
    config["backends"] = {"default": {"kind": "http", "endpoint_url": chat_server.url,
                                      "model_name": "m", "retry_backoff_ms": 1}}
    config["objective"]["budget"] = 60
    config["loop"] = {"max_fails": 2, "seeds_m": 1}
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    reference = tmp_path / "out"
    assert sorted(checkpoint_recorder.rounds(reference))[-1] >= 2
    asked, scored = list(chat_server.requests), list(score_server.candidates)

    variant = tmp_path / "variant"
    shutil.copytree(reference, variant)
    checkpoint_recorder.rewind(reference, 1, to=variant)
    (variant / "summary.json").unlink()
    prefix = read_steps(variant / "events.jsonl", load_checkpoint(variant / "checkpoint.json")
                        .events_seq)
    logged_calls = sum(step.call is not None for step in prefix)
    chat_server.requests.clear()
    score_server.candidates.clear()
    assert main(["resume", str(variant)]) == 0
    assert chat_server.requests == asked[logged_calls:]
    assert score_server.candidates == scored[len(prefix.rows):]
    assert 0 < len(prefix.rows) and 0 < logged_calls < len(asked)
    assert (variant / "history.jsonl").read_bytes() == (reference / "history.jsonl").read_bytes()
    assert summary_without_wall_time(variant) == summary_without_wall_time(reference)
    assert_events_agree(variant)


def test_cli_import_does_not_load_requests():
    # requests adds about 8 MB to peak RSS; only runs that post pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = "import sys, agentopt.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_new_run_does_not_inherit_old_checkpoint(tmp_path, capsys):
    config = yaml.safe_load(mutator_run_config(tmp_path).read_text())
    assert main(["run", "--config", str(tmp_path / "config.yaml")]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "summary.json").is_file()
    assert (out_dir / "checkpoint.json").is_file()
    config["oracle"] = FAILING_ORACLE
    write_yaml(tmp_path / "config.yaml", config)
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.yaml")]) == 2
    assert "error[OracleFailure]" in capsys.readouterr().err
    assert (out_dir / "history.jsonl").read_text() == ""
    assert not (out_dir / "checkpoint.json").exists()
    assert not (out_dir / "summary.json").exists()
    assert main(["resume", str(out_dir)]) == 2
    assert "error[CorruptCheckpoint]" in capsys.readouterr().err
    assert not (out_dir / "summary.json").exists()


def record_script(tmp_path: Path) -> tuple[dict, list[dict]]:
    """Config and agent replies (as scripted-backend rows) of a mutator run."""
    config = yaml.safe_load(mutator_run_config(tmp_path, budget=160).read_text())
    config["loop"] = {"max_fails": 2, "seeds_m": 1}  # two rounds, each with all phases
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    script = [
        {"match": {"role": step.call["role"]}, "reply": step.call["reply"]}
        for step in read_steps(tmp_path / "out" / "events.jsonl")
        if step.call is not None
    ]
    return config, script


def write_rows(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def events_without_ts(path: Path) -> list[dict]:
    return [{k: v for k, v in e.items() if k != "ts"} for e in read_log(path)]


def test_resume_after_failure_at_every_agent_call(tmp_path, capsys):
    config, script = record_script(tmp_path)
    script_file = tmp_path / "script.jsonl"
    write_rows(script_file, script)
    config["backends"] = {"default": {"kind": "scripted", "script": str(script_file)}}
    reference = tmp_path / "reference"
    config["run"]["output_dir"] = str(reference)
    assert main(["run", "--config", str(write_yaml(tmp_path / "c.yaml", config))]) == 0
    calls = [step for step in read_steps(reference / "events.jsonl") if step.call is not None]
    assert len(calls) == len(script)
    assert {(step.round, step.phase) for step in calls} == {
        (r, phase) for r in (1, 2) for phase in ("explorer", "planner", "worker")
    }

    for index, failing in enumerate(script):
        # call `index` finds its role's queue empty; every earlier call succeeds
        role = failing["match"]["role"]
        write_rows(
            script_file,
            [row for i, row in enumerate(script) if i < index or row["match"]["role"] != role],
        )
        out = tmp_path / f"cut_{index:03d}"
        config["run"]["output_dir"] = str(out)
        assert main(["run", "--config", str(write_yaml(tmp_path / "c.yaml", config))]) == 2
        assert "error[BackendUnavailable]" in capsys.readouterr().err
        write_rows(script_file, script)
        for name in ("events.jsonl", "history.jsonl"):
            with open(out / name, "a", encoding="utf-8") as fh:
                fh.write('{"seq": 9')  # a write torn by the crash
        assert main(["resume", str(out)]) == 0, f"resume after failing call {index}"
        assert (out / "history.jsonl").read_bytes() == (
            reference / "history.jsonl"
        ).read_bytes(), f"history diverged after failing call {index}"
        assert events_without_ts(out / "events.jsonl") == events_without_ts(
            reference / "events.jsonl"
        ), f"events diverged after failing call {index}"
        assert_events_agree(out)


def test_resume_after_oracle_failure_at_every_batch(tmp_path, capsys, monkeypatch):
    config, script = record_script(tmp_path)
    script_file = tmp_path / "script.jsonl"
    write_rows(script_file, script)
    config["backends"] = {"default": {"kind": "scripted", "script": str(script_file)}}
    reference = tmp_path / "reference"
    config["run"]["output_dir"] = str(reference)
    assert main(["run", "--config", str(write_yaml(tmp_path / "c.yaml", config))]) == 0
    batches = [
        step for step in read_steps(reference / "events.jsonl")
        if step.events.get("eval_batch", {}).get("n")
    ]
    assert {step.phase for step in batches} == {"init", "explorer", "worker"}

    calls = {"made": 0, "failing": 0}  # oracle batches so far; the one that fails
    score_many = MotifMatchOracle._score_many

    def flaky(self, texts):
        calls["made"] += 1
        if calls["made"] == calls["failing"]:
            raise OracleFailure("oracle exited 3")
        return score_many(self, texts)

    monkeypatch.setattr(MotifMatchOracle, "_score_many", flaky)
    # batch 1 is the init batch, after which there is no checkpoint to resume
    # from (test_oracle_failure_during_init_leaves_no_checkpoint)
    for failing in range(2, len(batches) + 1):
        calls.update(made=0, failing=failing)
        out = tmp_path / f"cut_{failing:03d}"
        config["run"]["output_dir"] = str(out)
        assert main(["run", "--config", str(write_yaml(tmp_path / "c.yaml", config))]) == 2
        assert "error[OracleFailure]" in capsys.readouterr().err
        calls.update(failing=0)
        for name in ("events.jsonl", "history.jsonl"):
            with open(out / name, "a", encoding="utf-8") as fh:
                fh.write('{"seq": 9')  # a write torn by the crash
        assert main(["resume", str(out)]) == 0, f"resume after failing batch {failing}"
        assert (out / "history.jsonl").read_bytes() == (
            reference / "history.jsonl"
        ).read_bytes(), f"history diverged after failing batch {failing}"
        assert events_without_ts(out / "events.jsonl") == events_without_ts(
            reference / "events.jsonl"
        ), f"events diverged after failing batch {failing}"
        assert_events_agree(out)


def mutator_rounds_run(tmp_path: Path) -> Path:
    """A finished 320-evaluation mutator run of five rounds; its run directory."""
    config = yaml.safe_load(mutator_run_config(tmp_path, budget=320).read_text())
    config["loop"] = {"max_fails": 2, "seeds_m": 1}
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    return tmp_path / "out"


def test_mutator_resume_from_every_round_is_exact(tmp_path, checkpoint_recorder):
    reference = mutator_rounds_run(tmp_path)
    rounds = sorted(checkpoint_recorder.rounds(reference))
    assert len(rounds) >= 5  # after init, then rounds 1 to 4 at least
    for round_idx in rounds:
        variant = tmp_path / f"round_{round_idx:05d}"
        shutil.copytree(reference, variant)
        checkpoint_recorder.rewind(reference, round_idx, to=variant)
        assert main(["resume", str(variant)]) == 0
        assert (variant / "history.jsonl").read_bytes() == (
            reference / "history.jsonl"
        ).read_bytes(), f"history diverged after resuming round {round_idx}"
        assert events_without_ts(variant / "events.jsonl") == events_without_ts(
            reference / "events.jsonl"
        ), f"events diverged after resuming round {round_idx}"
        assert_events_agree(variant)


def test_worker_steps_name_their_parent(tmp_path):
    config = yaml.safe_load(mutator_run_config(tmp_path, budget=240).read_text())
    config["loop"] = {"max_fails": 2, "seeds_m": 2}
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    history = read_log(tmp_path / "out" / "history.jsonl")
    scores = {row["eval_index"]: row["score"] for row in history}
    moves_followed = 0
    evaluated = 0  # records before the current step's batch
    first: dict[tuple, int] = {}  # (round, trajectory) -> its seed
    last: dict[tuple, Step] = {}  # (round, trajectory) -> its latest step
    for step in read_steps(tmp_path / "out" / "events.jsonl"):
        call = step.call
        if call is not None and call["role"] == "worker":
            parent = call["parent"]
            assert 1 <= parent <= evaluated  # in the history, before the step's batch
            key = (step.round, call["trajectory"])
            before = last.get(key)
            if before is None:
                first[key] = parent
            elif before.call["success"]:  # the move chosen from the last batch
                moves = before.events["eval_batch"]["records"]
                assert parent in [row["eval_index"] for row in moves]
                assert scores[parent] > scores[before.call["parent"]]
                moves_followed += 1
            else:
                assert parent == before.call["parent"]
            last[key] = step
        evaluated += step.events.get("eval_batch", {}).get("n", 0)
    # the trajectories of one round are tasks x seeds, seed-major within a task
    assert len(first) > 4 and moves_followed > 0
    for (round_idx, index), seed in first.items():
        assert seed == first[(round_idx, index % 2)]


def summary_without_wall_time(run_dir: Path) -> dict:
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    del summary["wall_time_s"]
    return summary


def test_resume_after_a_kill_at_every_write(tmp_path, capsys, write_killer):
    config = yaml.safe_load(mutator_run_config(tmp_path, budget=120).read_text())
    config["loop"] = {"max_fails": 1, "seeds_m": 1}  # three checkpoints: rounds 0 to 2
    reference = tmp_path / "reference"
    config["run"]["output_dir"] = str(reference)
    assert main(["run", "--config", str(write_yaml(tmp_path / "c.yaml", config))]) == 0
    writes = write_killer.writes
    kinds = [event["kind"] for event in read_log(reference / "events.jsonl")]
    assert kinds.count("checkpoint") >= 3

    init_kills = []
    for kill_at in range(1, writes + 1):
        out = tmp_path / f"kill_{kill_at:04d}"
        config["run"]["output_dir"] = str(out)
        config_path = write_yaml(tmp_path / "c.yaml", config)
        write_killer.kill_at, write_killer.writes = kill_at, 0
        with pytest.raises(Killed):
            main(["run", "--config", str(config_path)])
        write_killer.kill_at = None
        capsys.readouterr()
        if not (out / "checkpoint.json").exists():
            # the documented exception: a kill during init leaves nothing to resume
            assert main(["resume", str(out)]) == 2
            assert "error[CorruptCheckpoint]" in capsys.readouterr().err
            init_kills.append(kill_at)
            continue
        assert main(["resume", str(out)]) == 0, f"resume after a kill at write {kill_at}"
        assert (out / "history.jsonl").read_bytes() == (
            reference / "history.jsonl"
        ).read_bytes(), f"history diverged after a kill at write {kill_at}"
        assert events_without_ts(out / "events.jsonl") == events_without_ts(
            reference / "events.jsonl"
        ), f"events diverged after a kill at write {kill_at}"
        assert summary_without_wall_time(out) == summary_without_wall_time(reference)
        assert_events_agree(out)
        shutil.rmtree(out)
    # init writes 20 history rows, its eval_batch and its checkpoint event,
    # and a kill at the round-0 checkpoint's temporary file counts as init too
    assert init_kills == list(range(1, 24))


# The files a resume that fails must leave as they were
RUN_FILES = ("checkpoint.json", "events.jsonl", "history.jsonl")


@pytest.mark.parametrize("tamper", [lambda cp: cp.update(stop_reason=5)], ids=["stop-reason"])
def test_resume_malformed_checkpoint_leaves_logs_untouched(
    tmp_path, capsys, checkpoint_recorder, tamper
):
    out = mutator_rounds_run(tmp_path)
    checkpoint = json.loads(checkpoint_recorder.rounds(out)[1])
    tamper(checkpoint)
    (out / "checkpoint.json").write_text(json.dumps(checkpoint), encoding="utf-8")
    logs = {name: (out / name).read_bytes() for name in RUN_FILES}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert "error[CorruptCheckpoint]" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in logs} == logs


def test_resume_finished_run_with_a_bad_stop_reason_is_corrupt(tmp_path, capsys):
    # a finished run without its summary would write the bad reason into a new one
    assert main(["run", "--config", str(mutator_run_config(tmp_path, budget=150))]) == 0
    out = tmp_path / "out"
    (out / "summary.json").unlink()
    checkpoint = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    (out / "checkpoint.json").write_text(json.dumps({**checkpoint, "stop_reason": 5}))
    logs = {name: (out / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert "error[CorruptCheckpoint]: checkpoint field stop_reason" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in logs} == logs
    assert not (out / "summary.json").exists()


def planner_changes_script() -> list[tuple[str, str]]:
    """Five rounds whose plans add, replace and evict tasks, under a count-of-A
    oracle, ``loop.max_fails: 1``, ``seeds_m: 1`` and ``registry_capacity: 4``.

    Per round: one explorer batch that does not improve, one plan, then one
    worker trajectory per task to run. The first trajectory's first move
    improves, so it takes a second call that fails; every other trajectory
    fails at once. Two evaluations land per round.
    """
    plans = [
        '{"ALPHA": "TASK: alpha.", "SIMILAR": "USE_EXISTING"}',  # add ALPHA
        '{"alpha": "TASK: alpha, rewritten.", "EXPLORE": "USE_EXISTING"}',  # replace it
        '{"BETA": "TASK: beta."}',  # add BETA, evict ALPHA
        "no plan in this reply",  # the defaults run
        # add ALPHA again, which evicts BETA, so BETA does not run
        '{"ALPHA": "TASK: alpha again.", "BETA": "USE_EXISTING"}',
    ]
    tasks_run = [2, 2, 1, 3, 1]
    replies: list[tuple[str, str]] = []
    for r, (plan, n_tasks) in enumerate(zip(plans, tasks_run), start=1):
        replies.append(("explorer", candidates_reply([f"Z{r}"])))
        replies.append(("planner", plan))
        replies.append(("worker", candidates_reply(["A" * (r + 1) + "Q"])))
        replies += [("worker", "no json in this reply")] * n_tasks
    return replies


def test_resume_replays_planner_changes_from_every_round(
    tmp_path, capsys, checkpoint_recorder
):
    config = yaml.safe_load(scripted_run_config(tmp_path).read_text())
    write_script(tmp_path / "script.jsonl", planner_changes_script())
    config["objective"]["budget"] = 10 + 2 * 5
    config["loop"] = {"max_fails": 1, "seeds_m": 1, "registry_capacity": 4}
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    reference = tmp_path / "out"
    changes = [
        (event["round"], event["payload"]["op"], event["payload"]["task"])
        for event in read_log(reference / "events.jsonl")
        if event["kind"] == "registry_change"
    ]
    assert changes == [
        (1, "add", "ALPHA"), (2, "replace", "ALPHA"), (3, "add", "BETA"),
        (3, "evict", "ALPHA"), (5, "add", "ALPHA"), (5, "evict", "BETA"),
    ]
    tasks_run = [
        (step.round, step.call["task"])
        for step in read_steps(reference / "events.jsonl")
        if step.call is not None and step.call.get("trajectory") == 0
    ]
    assert list(dict.fromkeys(tasks_run)) == [
        (1, "ALPHA"), (2, "ALPHA"), (3, "BETA"), (4, "SIMILAR"), (5, "ALPHA")
    ]
    rounds = sorted(checkpoint_recorder.rounds(reference))
    assert rounds == [0, 1, 2, 3, 4, 5]
    for round_idx in rounds:
        variant = tmp_path / f"round_{round_idx}"
        shutil.copytree(reference, variant)
        checkpoint_recorder.rewind(reference, round_idx, to=variant)
        (variant / "summary.json").unlink()
        assert main(["resume", str(variant)]) == 0, f"resume from round {round_idx}"
        assert (variant / "history.jsonl").read_bytes() == (
            reference / "history.jsonl"
        ).read_bytes(), f"history diverged after resuming round {round_idx}"
        assert events_without_ts(variant / "events.jsonl") == events_without_ts(
            reference / "events.jsonl"
        ), f"events diverged after resuming round {round_idx}"
        assert summary_without_wall_time(variant) == summary_without_wall_time(reference)
        assert_events_agree(variant)

    # a registry_change the plans do not make: refused before anything is cut
    out = tmp_path / "round_4"
    checkpoint_recorder.rewind(reference, 4, to=out)
    index = next(
        i for i, event in enumerate(read_log(out / "events.jsonl"))
        if event["kind"] == "registry_change" and event["round"] == 3
    )
    edit_line(out / "events.jsonl", index, lambda event: event["payload"].update(task="GAMMA"))
    logs = {name: (out / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"error[CorruptCheckpoint]: {out / 'events.jsonl'} line {index + 1}: " in (
        capsys.readouterr().err
    )
    assert {name: (out / name).read_bytes() for name in logs} == logs


def test_failed_attempts_are_logged_and_survive_a_resume(
    tmp_path, capsys, monkeypatch, checkpoint_recorder
):
    # a stand-in for a backend that retried: some calls report failed attempts
    complete = MutatorBackend.complete

    def retried(self, request):
        result = complete(self, request)
        return dataclasses.replace(result, failed_attempts=len(request.user) % 3)

    monkeypatch.setattr(MutatorBackend, "complete", retried)
    reference = mutator_rounds_run(tmp_path)
    calls = [step.call for step in read_steps(reference / "events.jsonl") if step.call]
    counts = [call.get("failed_attempts", 0) for call in calls]
    assert 0 in counts and max(counts) == 2
    assert all(call["failed_attempts"] for call in calls if "failed_attempts" in call)
    summary = json.loads((reference / "summary.json").read_text(encoding="utf-8"))
    failed = summary["tokens"]["failed_attempts"]
    assert sum(failed.values()) == sum(counts) and set(failed) <= {
        "explorer/mutator", "planner/mutator", "worker/mutator"
    }
    assert_events_agree(reference)
    capsys.readouterr()
    assert main(["token-report", str(reference)]) == 0
    assert "failed_attempts:\n  explorer/mutator: " in capsys.readouterr().out

    variant = tmp_path / "round_1"
    shutil.copytree(reference, variant)
    checkpoint_recorder.rewind(reference, 1, to=variant)
    (variant / "summary.json").unlink()
    assert main(["resume", str(variant)]) == 0
    assert summary_without_wall_time(variant) == summary_without_wall_time(reference)
    assert events_without_ts(variant / "events.jsonl") == events_without_ts(
        reference / "events.jsonl"
    )
    assert_events_agree(variant)


def test_resume_bad_history_row_leaves_logs_untouched(tmp_path, capsys, checkpoint_recorder):
    out = mutator_rounds_run(tmp_path)
    checkpoint_recorder.rewind(out, 0)
    lines = (out / "history.jsonl").read_bytes().splitlines(keepends=True)
    row = json.loads(lines[4])
    row["score"] = "x"
    for bad in (json.dumps(row).encode() + b"\n", b"\xff\xfe" + lines[4]):
        (out / "history.jsonl").write_bytes(b"".join(lines[:4] + [bad] + lines[5:]))
        logs = {name: (out / name).read_bytes() for name in RUN_FILES}
        capsys.readouterr()
        assert main(["resume", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error[CorruptCheckpoint]" in err and "history.jsonl line 5" in err
        assert {name: (out / name).read_bytes() for name in logs} == logs


def edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    row = json.loads(lines[index])
    edit(row)
    lines[index] = json.dumps(row).encode() + b"\n"
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("kind", ["step", "eval_batch"], ids=["reply", "score"])
def test_resume_of_a_tampered_prefix_names_the_line_and_writes_nothing(
    tmp_path, capsys, checkpoint_recorder, kind
):
    out = mutator_rounds_run(tmp_path)
    checkpoint_recorder.rewind(out, 2)
    index, event = next(
        (i, e) for i, e in enumerate(read_log(out / "events.jsonl"))
        if e["round"] == 1 and e["kind"] == kind and e["payload"].get("n", 1)
    )
    if kind == "step":  # a logged reply the mutator does not give again
        assert event["payload"]["role"] in ("explorer", "worker")
        edit_line(out / "events.jsonl", index, lambda e: e["payload"].update(reply="{}"))
        where = f"{out / 'events.jsonl'} line {index + 1}"
    else:  # a logged score, which its history row no longer agrees with
        record = event["payload"]["records"][0]
        edit_line(out / "events.jsonl", index,
                  lambda e: e["payload"]["records"][0].update(score=record["score"] + 0.25))
        where = f"{out / 'history.jsonl'} line {record['eval_index']}"
    files = {name: (out / name).read_bytes() for name in RUN_FILES}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"error[CorruptCheckpoint]: {where}: " in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in RUN_FILES} == files


@pytest.mark.parametrize(
    "name, index, edit",
    [
        ("history.jsonl", 4, lambda row: row.update(score=0.99)),
        ("events.jsonl", 10, lambda event: event.update(kind="nonsense", payload=[1])),
    ],
    ids=["history-score", "event-kind"],
)
def test_resume_logs_that_disagree_leave_logs_untouched(
    tmp_path, capsys, checkpoint_recorder, name, index, edit
):
    # the edited row is still a valid record: only its eval_batch record shows the change
    out = mutator_rounds_run(tmp_path)
    checkpoint_recorder.rewind(out, 2)
    edit_line(out / name, index, edit)
    logs = {log: (out / log).read_bytes() for log in RUN_FILES}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"error[CorruptCheckpoint]: {out / name} line {index + 1}: " in capsys.readouterr().err
    assert {log: (out / log).read_bytes() for log in logs} == logs


@pytest.mark.parametrize(
    "name, damage",
    [
        ("config.json", lambda data: data[: len(data) // 2]),
        ("config.json", lambda data: b"\xff\xfe" + data),
        ("checkpoint.json", lambda data: b"\xff\xfe" + data),
        ("config.json", lambda data: b"[]"),
    ],
    ids=["config-torn", "config-utf-8", "checkpoint-utf-8", "config-not-object"],
)
def test_resume_unreadable_run_file_leaves_logs_untouched(
    tmp_path, capsys, checkpoint_recorder, name, damage
):
    out = mutator_rounds_run(tmp_path)
    checkpoint_recorder.rewind(out, 1)
    (out / name).write_bytes(damage((out / name).read_bytes()))
    logs = {log: (out / log).read_bytes() for log in RUN_FILES}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"error[CorruptCheckpoint]: {out / name}: " in capsys.readouterr().err
    assert {log: (out / log).read_bytes() for log in logs} == logs


def test_resume_names_a_history_row_of_other_bytes(tmp_path, capsys):
    # the same row in the bytes of another encoder: render_row never writes it
    assert main(["run", "--config", str(mutator_run_config(tmp_path, budget=150))]) == 0
    out = tmp_path / "out"
    (out / "summary.json").unlink()
    lines = (out / "history.jsonl").read_bytes().splitlines(keepends=True)
    lines[4] = json.dumps(json.loads(lines[4]), separators=(",", ":")).encode() + b"\n"
    (out / "history.jsonl").write_bytes(b"".join(lines))
    files = {name: (out / name).read_bytes() for name in (*RUN_FILES, "config.json")}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"error[CorruptCheckpoint]: {out / 'history.jsonl'} line 5: " in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in files} == files
    assert not (out / "summary.json").exists()


def test_resume_names_a_logged_batch_of_another_size(tmp_path, capsys):
    # a worker batch logged one record short: its scores cannot answer the
    # candidates the engine asks about, so the resume stops at that line
    out = mutator_rounds_run(tmp_path)
    (out / "summary.json").unlink()
    index = 9
    event = json.loads((out / "events.jsonl").read_bytes().splitlines()[index])
    assert event["payload"]["origin"].startswith("worker:")
    n = event["payload"]["n"]

    def drop_last(event):
        event["payload"]["records"].pop()
        event["payload"]["n"] -= 1

    edit_line(out / "events.jsonl", index, drop_last)
    files = {name: (out / name).read_bytes() for name in (*RUN_FILES, "config.json")}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert (f"error[CorruptCheckpoint]: {out / 'events.jsonl'} line {index + 1}: "
            f"the log has {n - 1} scores for {n} candidates") in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in files} == files
    assert not (out / "summary.json").exists()


def test_replay_decodes_only_the_lines_it_hands_out(tmp_path, monkeypatch):
    out = mutator_rounds_run(tmp_path)
    (out / "summary.json").unlink()
    checkpoint = load_checkpoint(out / "checkpoint.json")
    lines = (out / "events.jsonl").read_bytes().splitlines(keepends=True)
    kinds = [json.loads(line)["kind"] for line in lines]
    assert {"step", "round_end", "checkpoint"} < set(kinds) and kinds.count("checkpoint") >= 5
    decoded: list[tuple[str, bytes]] = []
    decode = events_module._decode

    def counting(path, data, where=""):
        decoded.append((Path(path).name, data))
        return decode(path, data, where)

    monkeypatch.setattr(events_module, "_decode", counting)
    Replay(out, checkpoint)
    assert decoded == [("events.jsonl", lines[-1])]  # the checkpoint it ends with
    decoded.clear()
    assert main(["resume", str(out)]) == 0
    batches = [line for line, kind in zip(lines, kinds) if kind == "eval_batch"]
    assert [data for name, data in decoded if name == "events.jsonl"] == [lines[-1], *batches]
    assert not [name for name, _ in decoded if name == "history.jsonl"]


# The bytes of one JSON number outside a string, and of one JSON string
NUMBER = re.compile(rb'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)')
# The fields of a logged call that a resume hands to the engine instead of asking again
ANSWERS = re.compile(rb'"(?:reply|input_tokens|output_tokens|latency_ms|failed_attempts)": '
                     rb'("(?:[^"\\]|\\.)*"|\d+)')
SCORES = re.compile(rb'"score": ([^,}]+)')
TS_FIELD = re.compile(rb'^\{"seq": \d+, ("ts": [^,]*)')


def damage_line(data, line: bytes) -> tuple[bytes, tuple[int, int], str]:
    """One damaged form of ``line``: the bytes that replace it, the span of
    ``line`` that the damage hit, and its name."""
    body = len(line) - 1  # the newline stays
    how = data.draw(st.sampled_from(["flip", "cut", "delete", "number", "nest"]))
    if how == "flip":
        at = data.draw(st.integers(0, body - 1))
        value = data.draw(st.one_of(st.just(0xFF), st.integers(0, 255)).filter(
            lambda v: v != line[at]))
        return line[:at] + bytes([value]) + line[at + 1:], (at, at + 1), how
    if how == "cut":
        at = data.draw(st.integers(0, body - 1))
        return line[:at] + b"\n", (at, body), how
    if how == "number":
        numbers = [m.span(1) for m in NUMBER.finditer(line) if m.group(1)]
        start, end = data.draw(st.sampled_from(numbers))
        value = data.draw(st.sampled_from([b"NaN", b"1e999", b"true"]))
        return line[:start] + value + line[end:], (start, end), how
    if how == "nest":
        return b"[" * 3000 + line[:body] + b"]" * 3000 + b"\n", (0, body), how
    return b"", (0, body), how


def inside(span: tuple[int, int], spans) -> bool:
    return any(start <= span[0] and span[1] <= end for start, end in spans)


def downstream(lines: list[bytes], index: int, name: str, lineno: int) -> bool:
    """Whether line ``lineno`` of log ``name`` is one the engine writes after it
    acts on an answer logged on events line ``index + 1``: from the batch that
    the answer fed on, in either log."""
    event = json.loads(lines[index])
    if event["kind"] == "step" and index and json.loads(lines[index - 1])["kind"] == "eval_batch":
        index -= 1  # an explorer or worker reply feeds the batch logged right before it
    if name == "events.jsonl":
        return lineno > index
    rows = sum(json.loads(line)["payload"]["n"] for line in lines[:index]
               if json.loads(line)["kind"] == "eval_batch")
    return lineno > rows


@pytest.mark.parametrize("backend", ["mutator", "chat"])
def test_resume_of_a_damaged_prefix_names_the_line_or_changes_nothing(
    tmp_path, capsys, chat_server, backend
):
    """One line of either log damaged, in one of five ways, anywhere in a
    finished run. The resume fails and names that line, leaving every run
    file as it was, or it reproduces the history when only ``ts`` was hit.

    A value that the replay hands out (a logged score, or a replayed call's
    reply and counts) is trusted: a changed one that is still valid is named
    at the first line the engine writes otherwise because of it, and one that
    changes nothing the engine does goes unseen. A line deleted from, or split
    in, the event log shifts every later line, so the end of the prefix is
    named instead."""
    config = yaml.safe_load(mutator_run_config(tmp_path, budget=120).read_text())
    config["loop"] = {"max_fails": 1, "seeds_m": 1}
    if backend == "chat":
        config["backends"] = {"default": {"kind": "http", "endpoint_url": chat_server.url,
                                          "model_name": "m", "retry_backoff_ms": 1}}
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    reference = tmp_path / "out"
    (reference / "summary.json").unlink()
    logs = {name: (reference / name).read_bytes().splitlines(keepends=True)
            for name in ("events.jsonl", "history.jsonl")}
    cases = itertools.count()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(logs)))
        index = data.draw(st.integers(0, len(logs[name]) - 1))
        line = logs[name][index]
        damaged, span, how = damage_line(data, line)
        out = tmp_path / f"case{next(cases)}"
        shutil.copytree(reference, out)
        (out / name).write_bytes(b"".join(logs[name][:index] + [damaged] + logs[name][index + 1:]))
        files = {file: (out / file).read_bytes() for file in (*RUN_FILES, "config.json")}
        is_event = name == "events.jsonl"
        ts_only = is_event and inside(span, [TS_FIELD.match(line).span(1)])
        answers = [*SCORES.finditer(line), *(ANSWERS.finditer(line) if backend == "chat" else ())]
        # a flipped byte can leave a valid answer; NaN, 1e999 or true never is one
        handed_out = how == "flip" and is_event and inside(span, [m.span(1) for m in answers])
        shifted = is_event and (how == "delete" or b"\n" in damaged[:-1])
        capsys.readouterr()
        code = main(["resume", str(out)])
        err = capsys.readouterr().err
        note(f"{name} line {index + 1}, {how} at {span}: exit {code}, {err}")
        if code == 0:
            assert ts_only or handed_out
            assert (out / "history.jsonl").read_bytes() == b"".join(logs["history.jsonl"])
            shutil.rmtree(out)
            return
        assert code == 2 and "error[CorruptCheckpoint]: " in err
        assert {file: (out / file).read_bytes() for file in files} == files
        assert not (out / "summary.json").exists()
        named = re.search(rf"{re.escape(str(out))}/(\S+?)(?: line (\d+))?:? ", err)
        assert named, err
        file, lineno = named.group(1), int(named.group(2) or 0)
        ok = (file, lineno) == (name, index + 1)
        if shifted:
            ok = ok or file == name and (lineno in (0, len(logs[name])))
        if handed_out and not ok:
            ok = downstream(logs["events.jsonl"], index, file, lineno)
        assert ok, err
        shutil.rmtree(out)

    check()


# -- exports -----------------------------------------------------------------------


def write_history(path: Path, scores: list[float]) -> None:
    rows = []
    for i, score in enumerate(scores, start=1):
        rows.append(
            {
                "eval_index": i,
                "raw": f"C{i}",
                "canonical": f"C{i}",
                "domain": "generic",
                "score": score,
                "origin": "init",
            }
        )
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_export_curve_running_max(tmp_path):
    history = tmp_path / "history.jsonl"
    write_history(history, [1.0, 3.0, 2.0])
    out = tmp_path / "curve.csv"
    assert main(
        ["export-curve", str(history), "--out", str(out), "--direction", "maximize"]
    ) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["eval_index", "best_so_far"]
    assert [r[1] for r in rows[1:]] == ["1.0", "3.0", "3.0"]


def test_export_curve_running_min(tmp_path):
    history = tmp_path / "history.jsonl"
    write_history(history, [9.0, 7.0, 8.0])
    out = tmp_path / "curve.csv"
    assert main(
        ["export-curve", str(history), "--out", str(out), "--direction", "minimize"]
    ) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [r[1] for r in rows[1:]] == ["9.0", "7.0", "7.0"]


@pytest.mark.parametrize(
    "flags, curve, first",
    [([], ["9.0", "7.0", "7.0"], 7.0), (["--direction", "maximize"], ["9.0", "9.0", "9.0"], 9.0)],
    ids=["from-config", "flag-overrides"],
)
def test_export_direction_comes_from_the_run_config(tmp_path, flags, curve, first):
    history = tmp_path / "history.jsonl"
    write_history(history, [9.0, 7.0, 8.0])
    (tmp_path / "config.json").write_text(
        json.dumps({"objective": {"direction": "minimize"}}), encoding="utf-8"
    )
    out = tmp_path / "curve.csv"
    assert main(["export-curve", str(history), "--out", str(out), *flags]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [r[1] for r in rows[1:]] == curve
    out = tmp_path / "portfolio.json"
    assert main(["export-portfolio", str(history), "--out", str(out), *flags]) == 0
    assert json.loads(out.read_text())[0]["score"] == first


def test_export_curve_portfolio_columns(tmp_path):
    history = tmp_path / "history.jsonl"
    rows = []
    for i, (text, score) in enumerate(
        [("AAAAA", 5.0), ("DDDDD", 4.0), ("KKKKK", 3.0)], start=1
    ):
        rows.append(
            {
                "eval_index": i,
                "raw": text,
                "canonical": text,
                "domain": "generic",
                "score": score,
                "origin": "init",
            }
        )
    history.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "curve.csv"
    assert main(
        [
            "export-curve",
            str(history),
            "--out",
            str(out),
            "--direction",
            "maximize",
            "--portfolio-size",
            "2",
            "--portfolio-beta",
            "0.75",
        ]
    ) == 0
    table = list(csv.reader(out.read_text().splitlines()))
    assert table[0] == ["eval_index", "best_so_far", "portfolio_agg", "portfolio_complete"]
    assert table[1][2:] == ["5.0", "false"]  # one member only: incomplete
    assert table[2][2:] == ["4.5", "true"]
    assert table[3][2:] == ["4.5", "true"]


def test_export_portfolio_shape(tmp_path):
    history = tmp_path / "history.jsonl"
    write_history(history, [1.0, 2.0])
    out = tmp_path / "portfolio.json"
    assert main(
        [
            "export-portfolio",
            str(history),
            "--out",
            str(out),
            "--direction",
            "maximize",
            "--portfolio-size",
            "2",
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload and set(payload[0]) == {"sequence", "score", "eval_index"}


@pytest.mark.parametrize(
    "command, flags, portfolio",
    [
        ("export-curve", ["--portfolio-size", "1"], None),
        ("export-portfolio", ["--portfolio-size", "3", "--portfolio-beta", "2"], None),
        ("export-portfolio", ["--portfolio-size", "3", "--portfolio-beta", "0"], None),
        ("export-portfolio", ["--portfolio-beta", "5"], None),
        ("export-curve", [], "abc"),
        ("export-portfolio", [], "abc"),
        ("export-curve", [], [3]),
        ("export-portfolio", [], [3]),
    ],
    ids=[
        "export-curve-flags0", "export-portfolio-flags1", "export-portfolio-flags2",
        "export-portfolio-flags3",
        "export-curve-config-str", "export-portfolio-config-str",
        "export-curve-config-list", "export-portfolio-config-list",
    ],
)
def test_export_bad_portfolio_flags_are_config_errors(
    tmp_path, capsys, command, flags, portfolio
):
    history = tmp_path / "history.jsonl"
    write_history(history, [1.0, 2.0])
    if portfolio is not None:  # from the run's config.json beside the history
        (tmp_path / "config.json").write_text(
            json.dumps({"objective": {"portfolio": portfolio}}), encoding="utf-8"
        )
    out = tmp_path / "out.file"
    assert main([command, str(history), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    if portfolio is None:
        assert "error[ConfigError]: objective.portfolio:" in err
    else:
        assert f"error[ConfigError]: config key objective.portfolio is {portfolio!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"domain": "xyz"},
        {"score": "x"},
        {"score": True},
        {"score": float("nan")},
        {"eval_index": "2"},
        {"canonical": 5},
        {"canonical": "C1"},
        b'\xff\xfe{"score": 2.0}',
    ],
    ids=[
        "domain", "score-str", "score-bool", "score-nan", "eval-index-str", "canonical",
        "duplicate", "utf-8",
    ],
)
@pytest.mark.parametrize("command", ["export-curve", "export-portfolio"])
def test_export_bad_history_row_is_an_error(tmp_path, capsys, command, bad):
    history = tmp_path / "history.jsonl"
    write_history(history, [1.0, 2.0])
    lines = history.read_bytes().splitlines()
    if not isinstance(bad, bytes):
        bad = json.dumps({**json.loads(lines[1]), **bad}).encode()
    history.write_bytes(lines[0] + b"\n" + bad + b"\n")
    out = tmp_path / "out.file"
    assert main([command, str(history), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error[CorruptCheckpoint]" in err and "line 2" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config_json",
    [
        b'{"objective": {"direction": "minimize"',
        b'\xff\xfe{"objective": {}}',
        b"[]",
        b'{"objective": []}',
    ],
    ids=["torn", "utf-8", "not-object", "objective-not-object"],
)
def test_export_next_to_unreadable_config_is_an_error(tmp_path, capsys, config_json):
    write_history(tmp_path / "history.jsonl", [9.0, 7.0])
    (tmp_path / "config.json").write_bytes(config_json)
    out = tmp_path / "curve.csv"
    assert main(["export-curve", str(tmp_path / "history.jsonl"), "--out", str(out)]) == 1
    assert f"error[CorruptCheckpoint]: {tmp_path / 'config.json'}: " in capsys.readouterr().err
    assert not out.exists()


def write_texts(path: Path, pairs: list[tuple[str, float]]) -> None:
    rows = [
        {
            "eval_index": i,
            "raw": text,
            "canonical": text,
            "domain": "generic",
            "score": score,
            "origin": "init",
        }
        for i, (text, score) in enumerate(pairs, start=1)
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "section, flags, expected",
    [
        ({"size": 2, "beta": 0.75}, ["--portfolio-beta", "0.1"], ["AAAAA", "AAAAB"]),
        ({"size": 2, "beta": 0.1}, ["--portfolio-size", "3"], ["AAAAA", "AAAAB", "DDDDD"]),
        ({"size": 2, "beta": 0.75}, [], ["AAAAA", "DDDDD"]),
        (None, ["--portfolio-beta", "0.1"], ["AAAAA", "AAAAB", "DDDDD"]),  # size 20
    ],
    ids=["beta-alone", "size-alone", "config-only", "beta-alone-default-size"],
)
def test_export_portfolio_flag_overrides_only_its_key(tmp_path, section, flags, expected):
    history = tmp_path / "history.jsonl"
    write_texts(history, [("AAAAA", 5.0), ("AAAAB", 4.0), ("DDDDD", 3.0)])
    if section is not None:
        (tmp_path / "config.json").write_text(
            json.dumps({"objective": {"portfolio": section}}), encoding="utf-8"
        )
    out = tmp_path / "portfolio.json"
    assert main(["export-portfolio", str(history), "--out", str(out), *flags]) == 0
    assert [m["sequence"] for m in json.loads(out.read_text())] == expected


def test_export_curve_beta_alone_writes_portfolio_columns(tmp_path):
    history = tmp_path / "history.jsonl"
    write_texts(history, [("AAAAA", 5.0), ("AAAAB", 4.0), ("DDDDD", 3.0)])
    out = tmp_path / "curve.csv"
    assert main(["export-curve", str(history), "--out", str(out), "--portfolio-beta", "0.5"]) == 0
    table = list(csv.reader(out.read_text().splitlines()))
    assert table[0] == ["eval_index", "best_so_far", "portfolio_agg", "portfolio_complete"]
    # the default size of 20 is never reached; AAAAB sits 0.2 from AAAAA
    assert [row[2:] for row in table[1:]] == [
        ["5.0", "false"], ["5.0", "false"], ["4.0", "false"]
    ]


def test_export_portfolio_reads_spec_from_sibling_config(tmp_path):
    config = mutator_run_config(tmp_path)
    assert main(
        ["run", "--config", str(config), "--objective.portfolio={size: 3, beta: 0.3}"]
    ) == 0
    out_dir = tmp_path / "out"
    out = tmp_path / "portfolio.json"
    assert main(["export-portfolio", str(out_dir / "history.jsonl"), "--out", str(out)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    payload = json.loads(out.read_text())
    assert len(payload) == summary["portfolio"]["size"] == 3
    mean = sum(member["score"] for member in payload) / len(payload)
    assert mean == pytest.approx(summary["portfolio"]["agg_value"])


# -- token report -------------------------------------------------------------------


def test_token_report_from_summary(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    assert main(["token-report", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "per_role:" in out
    assert "explorer:" in out
    assert "total:" in out


def test_token_report_refuses_a_log_with_a_gap(tmp_path, capsys):
    # a dropped step would otherwise go uncounted without a word
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    events = tmp_path / "out" / "events.jsonl"
    lines = events.read_bytes().splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "step")
    events.write_bytes(b"".join(lines[:dropped] + lines[dropped + 1:]))
    capsys.readouterr()
    assert main(["token-report", str(tmp_path / "out")]) == 1
    seq = dropped + 1
    assert f"error[CorruptCheckpoint]: {events} line {seq}: seq is not {seq}" in (
        capsys.readouterr().err
    )


def test_token_report_recovers_from_events(tmp_path, capsys):
    # a killed run: no summary.json, and a last event line torn mid-write
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    total = json.loads((out_dir / "summary.json").read_text())["tokens"]["total"]
    (out_dir / "summary.json").unlink()
    with open(out_dir / "events.jsonl", "ab") as fh:
        fh.write(b'{"seq": 99, "kind": "step", "payload": {"role": "wor')
    capsys.readouterr()
    assert main(["token-report", str(out_dir)]) == 0
    assert (
        f"total: in={total['input_tokens']} out={total['output_tokens']} "
        f"total={total['total_tokens']} calls={total['calls']}"
    ) in capsys.readouterr().out

    # a step event that lacks a field is named by its line
    lines = (out_dir / "events.jsonl").read_bytes().splitlines(keepends=True)[:-1]
    bad = b'{"seq": 1, "kind": "step", "payload": {"role": "worker"}}\n'
    (out_dir / "events.jsonl").write_bytes(b"".join(lines) + bad)
    assert main(["token-report", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error[CorruptCheckpoint]: {out_dir / 'events.jsonl'} line {len(lines) + 1}: " in err


def test_version_2_run_is_refused_by_resume_and_token_report(tmp_path, capsys):
    out = mutator_rounds_run(tmp_path)
    checkpoint = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    (out / "checkpoint.json").write_text(json.dumps({**checkpoint, "version": 2}))
    (out / "summary.json").unlink()
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert "error[CorruptCheckpoint]: checkpoint version 2 is not supported" in (
        capsys.readouterr().err
    )
    # a version-2 log: its agent calls are agent_call events
    lines = (out / "events.jsonl").read_bytes().splitlines(keepends=True)[:2]
    call = {"role": "explorer", "backend": "mutator", "system_sha": "s", "user_sha": "u",
            "reply": "{}", "input_tokens": 7, "output_tokens": 3, "latency_ms": 0}
    old = {"seq": 3, "ts": 0.0, "round": 1, "phase": "explorer", "kind": "agent_call",
           "payload": call}
    (out / "events.jsonl").write_bytes(b"".join(lines) + json.dumps(old).encode() + b"\n")
    assert main(["token-report", str(out)]) == 1
    assert (
        f"error[CorruptCheckpoint]: {out / 'events.jsonl'} line 3: "
        "kind 'agent_call' is not an event kind"
    ) in capsys.readouterr().err
