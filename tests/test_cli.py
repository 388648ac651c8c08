from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest
import yaml

from agentopt.cli import main
from agentopt.config import build_init_plan, default_config, validate_config
from agentopt.core import PortfolioSpec
from agentopt.errors import InsufficientInit
from agentopt.events import read_jsonl
from agentopt.rng import RngHub

from .conftest import diverse_init, multi_round_replies, write_script


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
    history = read_jsonl(tmp_path / "out" / "history.jsonl")
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
    out_dir = tmp_path / "out"
    events = read_jsonl(out_dir / "events.jsonl")
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    rebuilt = [
        record
        for event in events
        if event["kind"] == "eval_batch"
        for record in event["payload"]["records"]
    ]
    history_rows = read_jsonl(out_dir / "history.jsonl")
    assert rebuilt == history_rows


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


def test_oracle_failure_during_init_leaves_no_checkpoint(tmp_path, capsys):
    config = yaml.safe_load(scripted_run_config(tmp_path).read_text())
    config["oracle"] = {
        "kind": "subprocess",
        "command": [sys.executable, "-c", "import sys; sys.exit(3)"],
    }
    write_yaml(tmp_path / "config.yaml", config)
    assert main(["run", "--config", str(tmp_path / "config.yaml")]) == 2
    assert "error[OracleFailure]" in capsys.readouterr().err
    out_dir = tmp_path / "out"
    assert not (out_dir / "checkpoint.json").exists()
    last = read_jsonl(out_dir / "events.jsonl")[-1]
    assert (last["kind"], last["round"], last["phase"]) == ("error", 0, "init")
    assert main(["resume", str(out_dir)]) == 2
    assert "error[CorruptCheckpoint]" in capsys.readouterr().err


def record_script(tmp_path: Path) -> tuple[dict, list[dict]]:
    """Config and agent replies (as scripted-backend rows) of a mutator run."""
    config = yaml.safe_load(mutator_run_config(tmp_path, budget=160).read_text())
    config["loop"] = {"max_fails": 2, "seeds_m": 1}  # two rounds, each with all phases
    assert main(["run", "--config", str(write_yaml(tmp_path / "config.yaml", config))]) == 0
    script = [
        {"match": {"role": e["payload"]["role"]}, "reply": e["payload"]["reply"]}
        for e in read_jsonl(tmp_path / "out" / "events.jsonl")
        if e["kind"] == "agent_call"
    ]
    return config, script


def write_rows(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def events_without_ts(path: Path) -> list[dict]:
    return [{k: v for k, v in e.items() if k != "ts"} for e in read_jsonl(path)]


def test_resume_after_failure_at_every_agent_call(tmp_path, capsys):
    config, script = record_script(tmp_path)
    script_file = tmp_path / "script.jsonl"
    write_rows(script_file, script)
    config["backends"] = {"default": {"kind": "scripted", "script": str(script_file)}}
    reference = tmp_path / "reference"
    config["run"]["output_dir"] = str(reference)
    assert main(["run", "--config", str(write_yaml(tmp_path / "c.yaml", config))]) == 0
    calls = [e for e in read_jsonl(reference / "events.jsonl") if e["kind"] == "agent_call"]
    assert len(calls) == len(script)
    assert {(e["round"], e["phase"]) for e in calls} == {
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
    "command, flags",
    [
        ("export-curve", ["--portfolio-size", "1"]),
        ("export-portfolio", ["--portfolio-size", "3", "--portfolio-beta", "2"]),
        ("export-portfolio", ["--portfolio-size", "3", "--portfolio-beta", "0"]),
    ],
)
def test_export_bad_portfolio_flags_are_config_errors(tmp_path, capsys, command, flags):
    history = tmp_path / "history.jsonl"
    write_history(history, [1.0, 2.0])
    out = tmp_path / "out.file"
    assert main([command, str(history), "--out", str(out), *flags]) == 1
    assert "error[ConfigError]: objective.portfolio:" in capsys.readouterr().err
    assert not out.exists()


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


def test_token_report_recovers_from_events(tmp_path, capsys):
    config = scripted_run_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    (tmp_path / "out" / "summary.json").unlink()
    assert main(["token-report", str(tmp_path / "out")]) == 0
    assert "total:" in capsys.readouterr().out
