from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

from agentopt.cli import main
from agentopt.config import build_init_plan, default_config, validate_config
from agentopt.core import PortfolioSpec
from agentopt.errors import InsufficientInit, OracleFailure
from agentopt.events import read_log, read_steps
from agentopt.oracles import MotifMatchOracle
from agentopt.rng import RngHub

from .conftest import assert_events_agree, diverse_init, multi_round_replies, write_script


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
    assert plan.requested == 100
    assert len(plan.candidates) == 100
    assert len({c.canonical for c in plan.candidates}) == 100
    assert [c.canonical for c in plan.candidates[:10]] == [
        t.upper() for t in templates
    ]


def test_init_plan_dedups_with_shortfall(tmp_path):
    lines = ["AAA", "BBB", "AAA", "CCC", "BBB", "DDD", "EEE", "FFF", "GGG", "HHH"]
    init_file = tmp_path / "dups.txt"
    init_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = default_config("generic")
    cfg["init"] = {
        "source": {"kind": "file", "path": str(init_file)},
        "count": 10,
    }
    plan = build_init_plan(validate_config(cfg), RngHub(0))
    assert plan.requested == 10
    assert len(plan.candidates) == 8  # two duplicate lines dropped


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
    # a kill at the last archive write leaves a finished checkpoint, no summary
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


def test_reply_with_a_lone_surrogate_is_refused_where_the_script_is_read(tmp_path, capsys):
    # "\ud800" is a valid JSON escape, but its lone surrogate has no UTF-8
    # form, so no log could write the reply
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    round1 = out_dir / "checkpoints" / "round_00001.json"
    (out_dir / "checkpoint.json").write_text(round1.read_text(), encoding="utf-8")
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


def test_resume_truncated_events_is_corrupt(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    # pretend the run stopped at round 1 but damage the event log
    round1 = out_dir / "checkpoints" / "round_00001.json"
    (out_dir / "checkpoint.json").write_text(round1.read_text(), encoding="utf-8")
    events = (out_dir / "events.jsonl").read_text().splitlines()
    (out_dir / "events.jsonl").write_text("\n".join(events[:3]) + "\n", encoding="utf-8")
    assert main(["resume", str(out_dir)]) == 2
    assert "CorruptCheckpoint" in capsys.readouterr().err


def test_resume_from_round_boundary_reproduces_history(tmp_path):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    full_history = (out_dir / "history.jsonl").read_bytes()

    # rewind to the round-2 checkpoint and resume
    round2 = out_dir / "checkpoints" / "round_00002.json"
    (out_dir / "checkpoint.json").write_text(round2.read_text(), encoding="utf-8")
    assert main(["resume", str(out_dir)]) == 0
    assert (out_dir / "history.jsonl").read_bytes() == full_history
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["evals_used"] == 26


def test_resume_config_with_removed_keys(tmp_path):
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
    round2 = out_dir / "checkpoints" / "round_00002.json"
    (out_dir / "checkpoint.json").write_text(round2.read_text(), encoding="utf-8")
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
    histories = []
    for name, statuses in (("steady", []), ("flaky", [503])):
        score_server.statuses = statuses
        (tmp_path / name).mkdir()
        config = http_oracle_run_config(tmp_path / name, score_server.url)
        assert main(["run", "--config", str(config)]) == 0
        histories.append((tmp_path / name / "out" / "history.jsonl").read_bytes())
    assert histories[0] == histories[1]
    assert len(histories[0].splitlines()) == 26
    assert len(score_server.candidates) == 2 * 26 + 1


def test_http_oracle_run_stops_at_a_418(tmp_path, capsys, score_server):
    score_server.statuses = [418]
    config = http_oracle_run_config(tmp_path, score_server.url)
    assert main(["run", "--config", str(config)]) == 2
    assert "error[OracleFailure]: oracle HTTP 418" in capsys.readouterr().err
    assert len(score_server.candidates) == 1


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
    assert list((out_dir / "checkpoints").glob("round_*.json"))
    config["oracle"] = FAILING_ORACLE
    write_yaml(tmp_path / "config.yaml", config)
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.yaml")]) == 2
    assert "error[OracleFailure]" in capsys.readouterr().err
    assert (out_dir / "history.jsonl").read_text() == ""
    assert not (out_dir / "checkpoint.json").exists()
    assert not list((out_dir / "checkpoints").glob("round_*.json"))
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


def test_mutator_resume_from_every_round_is_exact(tmp_path):
    reference = mutator_rounds_run(tmp_path)
    archived = sorted((reference / "checkpoints").glob("round_*.json"))
    assert len(archived) >= 5  # after init, then rounds 1 to 4 at least
    for checkpoint in archived:
        variant = tmp_path / checkpoint.stem
        shutil.copytree(reference, variant)
        shutil.copy(checkpoint, variant / "checkpoint.json")
        assert main(["resume", str(variant)]) == 0
        assert (variant / "history.jsonl").read_bytes() == (
            reference / "history.jsonl"
        ).read_bytes(), f"history diverged after resuming {checkpoint.name}"
        assert events_without_ts(variant / "events.jsonl") == events_without_ts(
            reference / "events.jsonl"
        ), f"events diverged after resuming {checkpoint.name}"
        assert_events_agree(variant)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda cp: cp["rng"].update(context_offset=[1, 2]),
        lambda cp: cp["rng"]["context_offset"].update(words="AAAAAAAAAAA="),
        lambda cp: cp["registry"]["SIMILAR"].pop("attempts"),
        lambda cp: cp["ledger"].update(per_role=5),
        lambda cp: cp["backends"]["default"].update(words="AAAA"),
        lambda cp: cp["backends"].clear(),
    ],
    ids=["rng-list", "rng-two-words", "registry-attempts", "ledger", "mutator", "backends"],
)
def test_resume_malformed_checkpoint_leaves_logs_untouched(tmp_path, capsys, tamper):
    out = mutator_rounds_run(tmp_path)
    checkpoint = json.loads((out / "checkpoints" / "round_00001.json").read_text())
    tamper(checkpoint)
    (out / "checkpoint.json").write_text(json.dumps(checkpoint), encoding="utf-8")
    logs = {name: (out / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert "error[CorruptCheckpoint]" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in logs} == logs


def test_resume_bad_history_row_leaves_logs_untouched(tmp_path, capsys):
    out = mutator_rounds_run(tmp_path)
    shutil.copy(out / "checkpoints" / "round_00000.json", out / "checkpoint.json")
    lines = (out / "history.jsonl").read_bytes().splitlines(keepends=True)
    row = json.loads(lines[4])
    row["score"] = "x"
    for bad in (json.dumps(row).encode() + b"\n", b"\xff\xfe" + lines[4]):
        (out / "history.jsonl").write_bytes(b"".join(lines[:4] + [bad] + lines[5:]))
        logs = {name: (out / name).read_bytes() for name in ("events.jsonl", "history.jsonl")}
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


@pytest.mark.parametrize(
    "name, index, edit",
    [
        ("history.jsonl", 4, lambda row: row.update(score=0.99)),
        ("events.jsonl", 10, lambda event: event.update(kind="nonsense", payload=[1])),
    ],
    ids=["history-score", "event-kind"],
)
def test_resume_logs_that_disagree_leave_logs_untouched(tmp_path, capsys, name, index, edit):
    # the edited row is still a valid record: only its eval_batch record shows the change
    out = mutator_rounds_run(tmp_path)
    shutil.copy(out / "checkpoints" / "round_00002.json", out / "checkpoint.json")
    edit_line(out / name, index, edit)
    logs = {log: (out / log).read_bytes() for log in ("events.jsonl", "history.jsonl")}
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
def test_resume_unreadable_run_file_leaves_logs_untouched(tmp_path, capsys, name, damage):
    out = mutator_rounds_run(tmp_path)
    shutil.copy(out / "checkpoints" / "round_00001.json", out / "checkpoint.json")
    (out / name).write_bytes(damage((out / name).read_bytes()))
    logs = {log: (out / log).read_bytes() for log in ("events.jsonl", "history.jsonl")}
    capsys.readouterr()
    assert main(["resume", str(out)]) == 2
    assert f"error[CorruptCheckpoint]: {out / name}: " in capsys.readouterr().err
    assert {log: (out / log).read_bytes() for log in logs} == logs


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
    # a dropped agent_call would otherwise go uncounted without a word
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    events = tmp_path / "out" / "events.jsonl"
    lines = events.read_bytes().splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "agent_call")
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
        fh.write(b'{"seq": 99, "kind": "agent_call", "payload": {"role": "wor')
    capsys.readouterr()
    assert main(["token-report", str(out_dir)]) == 0
    assert (
        f"total: in={total['input_tokens']} out={total['output_tokens']} "
        f"total={total['total_tokens']} calls={total['calls']}"
    ) in capsys.readouterr().out

    # an agent_call event that lacks a field is named by its line
    lines = (out_dir / "events.jsonl").read_bytes().splitlines(keepends=True)[:-1]
    bad = b'{"seq": 1, "kind": "agent_call", "payload": {"role": "worker"}}\n'
    (out_dir / "events.jsonl").write_bytes(b"".join(lines) + bad)
    assert main(["token-report", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error[CorruptCheckpoint]: {out_dir / 'events.jsonl'} line {len(lines) + 1}: " in err
