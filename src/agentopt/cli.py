"""Command-line entry points: run, resume, exports, and reports."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from pathlib import Path
from typing import Optional

from .backends import CompletionResult, TokenLedger
from .config import (
    RunConfig,
    _expect,
    apply_overrides,
    build_init_plan,
    build_oracle,
    build_portfolio_spec,
    build_router,
    load_config_file,
    validate_config,
)
from .core import Direction, History, PortfolioSpec
from .distance import EditDistanceIndex
from .diversity import best_portfolio_greedy, portfolio_progress
from .engine import Engine, RunResult
from .errors import AgentOptError, ConfigError, CorruptCheckpoint
from .events import (
    CHECKPOINT_FILE,
    CONFIG_COPY_FILE,
    EVENTS_FILE,
    HISTORY_FILE,
    SUMMARY_FILE,
    Checkpoint,
    EventLog,
    HistoryLog,
    Replay,
    Steps,
    load_checkpoint,
    load_history,
    read_json,
    read_steps,
)
from .oracles import ReplayOracle
from .rng import RngHub

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_INTERRUPT = 130


def _fail(code: int, error: Exception) -> int:
    print(f"error[{type(error).__name__}]: {error}", file=sys.stderr)
    return code


def _split_overrides(extras: list[str]) -> list[str]:
    overrides = []
    for item in extras:
        if item.startswith("--") and "=" in item:
            overrides.append(item[2:])
        else:
            raise ConfigError(f"unrecognized argument: {item}")
    return overrides


def _load_run_config(config_path: str, sets: list[str], extras: list[str]) -> RunConfig:
    cfg = load_config_file(Path(config_path))
    cfg = apply_overrides(cfg, list(sets) + _split_overrides(extras))
    return validate_config(cfg)


def _write_summary(
    run_dir: Path,
    config: RunConfig,
    result: RunResult,
    ledger: TokenLedger,
    wall_time_s: float,
) -> dict:
    best = result.history.best_record()
    summary = {
        "budget": config.objective.budget,
        "evals_used": result.history.evals_used,
        "rounds": result.rounds,
        "stop_reason": result.stop_reason,
        "best_score": best.score,
        "best_candidate": best.candidate.canonical,
        "best_eval_index": best.eval_index,
        "wall_time_s": round(wall_time_s, 3),
        "tokens": ledger.report(),
    }
    if result.portfolio is not None:
        summary["portfolio"] = {
            "agg_value": result.portfolio.agg_value,
            "size": len(result.portfolio.members),
            "complete": result.portfolio.complete,
        }
    (run_dir / SUMMARY_FILE).write_text(
        json.dumps(summary, ensure_ascii=False, indent=1), encoding="utf-8"
    )
    return summary


def _open_engine(
    config: RunConfig, run_dir: Path, checkpoint: Optional[Checkpoint]
) -> tuple[Engine, TokenLedger]:
    """The oracle, router and engine of a run, resuming ``checkpoint`` if given.

    A resume builds the engine that ``run`` builds and re-runs it against the
    logs up to the checkpoint, a ``Replay``: the oracle and the ``replayed``
    backends answer from them, and the logs stay as they were until the
    first line past the checkpoint.
    """
    ledger = TokenLedger()
    rng = RngHub(config.seed)
    oracle = build_oracle(config.raw)
    router = build_router(config, ledger)
    replay = None
    if checkpoint is not None:
        replay = Replay(run_dir, checkpoint)
        oracle = ReplayOracle(oracle, replay)
        router.replaying(replay)
    engine = Engine(
        domain=config.domain,
        objective=config.objective,
        loop=config.loop,
        router=router,
        oracle=oracle,
        constraint=config.constraint,
        init_plan=build_init_plan(config, rng),
        rng=rng,
        run_dir=run_dir,
        event_log=EventLog(run_dir / EVENTS_FILE, replay),
        history_log=HistoryLog(run_dir / HISTORY_FILE, replay),
    )
    return engine, ledger


def _open_failed(exc: Exception) -> int:
    # a damaged run directory fails at run time; anything else is the config's
    return _fail(EXIT_RUNTIME if isinstance(exc, CorruptCheckpoint) else EXIT_CONFIG, exc)


def _execute(
    config: RunConfig, run_dir: Path, checkpoint: Optional[Checkpoint] = None
) -> int:
    """Run or resume, then write the summary; a resume of a finished run
    without its summary (killed right before it) replays it to its end."""
    try:
        engine, ledger = _open_engine(config, run_dir, checkpoint)
    except (AgentOptError, OSError) as exc:
        return _open_failed(exc)
    started = time.monotonic()
    try:
        result = engine.run()
    except KeyboardInterrupt:
        print("interrupted; logs flushed, last round checkpoint kept", file=sys.stderr)
        return EXIT_INTERRUPT
    except AgentOptError as exc:
        return _fail(EXIT_RUNTIME, exc)
    finally:
        engine.close()
    summary = _write_summary(run_dir, config, result, ledger, time.monotonic() - started)
    print(
        f"finished: {summary['evals_used']}/{summary['budget']} evaluations, "
        f"best {summary['best_score']} ({summary['stop_reason']})"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace, extras: list[str]) -> int:
    config = _load_run_config(args.config, args.set or [], extras)  # main() reports errors

    run_dir = config.output_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's checkpoint and summary must not outlive it: resume
    # would read them if this run fails before its first checkpoint
    for stale in (CHECKPOINT_FILE, SUMMARY_FILE):
        (run_dir / stale).unlink(missing_ok=True)
    (run_dir / CONFIG_COPY_FILE).write_text(
        json.dumps(config.raw, ensure_ascii=False, indent=1), encoding="utf-8"
    )
    return _execute(config, run_dir)


def cmd_resume(args: argparse.Namespace, extras: list[str]) -> int:
    run_dir = Path(args.run_dir)
    try:
        checkpoint = load_checkpoint(run_dir / CHECKPOINT_FILE)
        if checkpoint.stop_reason is not None and (run_dir / SUMMARY_FILE).exists():
            print("run already finished; nothing to resume")
            return EXIT_OK
        config = validate_config(_read_run_config(run_dir / CONFIG_COPY_FILE))
    except AgentOptError as exc:
        return _open_failed(exc)
    return _execute(config, run_dir, checkpoint)


def _read_run_config(path: Path) -> dict:
    """The ``config.json`` a run wrote, which must hold a JSON object."""
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise CorruptCheckpoint(f"{path}: {type(cfg).__name__} is not a config object")
    return cfg


def _load_export(args: argparse.Namespace) -> tuple[History, Optional[PortfolioSpec]]:
    """The history an export reads, ranked by its direction, and its portfolio spec.

    Both come from the ``objective`` section of the run's ``config.json``
    beside the history, if there is one. Each flag given overrides its own
    key there; a portfolio key that neither sets takes its default, and the
    direction defaults to ``maximize``.
    """
    run_cfg = Path(args.history).parent / CONFIG_COPY_FILE
    cfg = _read_run_config(run_cfg) if run_cfg.is_file() else {}
    objective = cfg.get("objective", {})
    if not isinstance(objective, dict):
        raise CorruptCheckpoint(f"{run_cfg}: objective {objective!r} is not an object")
    try:
        direction = Direction(args.direction or objective.get("direction", "maximize"))
    except ValueError as exc:
        raise ConfigError(f"objective.direction: {exc}") from exc
    section = _expect(cfg, "objective.portfolio", dict, None)
    flags = {"size": args.portfolio_size, "beta": args.portfolio_beta}
    flags = {key: value for key, value in flags.items() if value is not None}
    if flags:
        section = {**(section or {}), **flags}
    spec = build_portfolio_spec(section) if section else None
    return load_history(args.history, direction), spec


def cmd_export_curve(args: argparse.Namespace, extras: list[str]) -> int:
    history, portfolio_spec = _load_export(args)  # main() reports errors
    out_path = Path(args.out)
    header = ["eval_index", "best_so_far"]
    points = None
    if portfolio_spec is not None:
        header += ["portfolio_agg", "portfolio_complete"]
        points = portfolio_progress(history, portfolio_spec, EditDistanceIndex())
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        best: Optional[float] = None
        for i, record in enumerate(history.records):
            if best is None or history.improves(record.score, best):
                best = record.score
            row = [record.eval_index, best]
            if points is not None:
                row += [points[i].agg_value, str(points[i].complete).lower()]
            writer.writerow(row)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_export_portfolio(args: argparse.Namespace, extras: list[str]) -> int:
    history, spec = _load_export(args)  # main() reports errors
    portfolio = best_portfolio_greedy(history, spec or PortfolioSpec(), EditDistanceIndex())
    payload = [
        {
            "sequence": record.candidate.canonical,
            "score": record.score,
            "eval_index": record.eval_index,
        }
        for record in portfolio.members
    ]
    Path(args.out).write_text(
        json.dumps(payload, ensure_ascii=False, indent=1), encoding="utf-8"
    )
    print(
        f"wrote {args.out}: {len(payload)} members, agg {portfolio.agg_value}, "
        f"complete={portfolio.complete}"
    )
    return EXIT_OK


def fold_tokens(steps: Steps, ledger: TokenLedger) -> TokenLedger:
    """Record the agent calls among ``steps`` into ``ledger``, and return it."""
    for call in (step.call for step in steps if step.call is not None):
        usage = call["input_tokens"], call["output_tokens"], 0, call.get("failed_attempts", 0)
        ledger.record(call["role"], call["backend"], CompletionResult("", *usage))
    return ledger


def cmd_token_report(args: argparse.Namespace, extras: list[str]) -> int:
    # from events.jsonl alone, so killed runs without a summary report too
    steps = read_steps(Path(args.run_dir) / EVENTS_FILE)  # main() reports errors
    tokens = fold_tokens(steps, TokenLedger()).report()
    for section in ("per_role", "per_backend"):
        print(f"{section}:")
        for key, row in sorted(tokens[section].items()):
            print(
                f"  {key}: in={row['input_tokens']} out={row['output_tokens']} "
                f"total={row['total_tokens']} calls={row['calls']}"
            )
    total = tokens["total"]
    print(
        f"total: in={total['input_tokens']} out={total['output_tokens']} "
        f"total={total['total_tokens']} calls={total['calls']}"
    )
    if tokens["failed_attempts"]:
        print("failed_attempts:")
        for key, count in sorted(tokens["failed_attempts"].items()):
            print(f"  {key}: {count}")
    return EXIT_OK


def cmd_validate_config(args: argparse.Namespace, extras: list[str]) -> int:
    config = _load_run_config(args.config, args.set or [], extras)  # main() reports errors
    print(
        f"ok: domain={config.domain.kind.value} direction="
        f"{config.objective.direction.value} budget={config.objective.budget}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentopt",
        description="Agent-driven black-box optimization over discrete designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an optimization run")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override any config leaf (repeatable); bare --key.path=value works too",
    )
    p_run.set_defaults(func=cmd_run, allow_extras=True)

    p_resume = sub.add_parser("resume", help="continue a checkpointed run")
    p_resume.add_argument("run_dir", help="run directory holding checkpoint.json")
    p_resume.set_defaults(func=cmd_resume, allow_extras=False)

    p_curve = sub.add_parser(
        "export-curve", help="write best-so-far (and portfolio) CSV from a history"
    )
    p_curve.add_argument("history", help="path to history.jsonl")
    p_curve.add_argument("--out", default="curve.csv")
    p_curve.add_argument("--direction", choices=[d.value for d in Direction])
    p_curve.add_argument("--portfolio-size", type=int, default=None)
    p_curve.add_argument("--portfolio-beta", type=float, default=None)
    p_curve.set_defaults(func=cmd_export_curve, allow_extras=False)

    p_port = sub.add_parser(
        "export-portfolio", help="write the diverse portfolio as JSON"
    )
    p_port.add_argument("history", help="path to history.jsonl")
    p_port.add_argument("--out", default="portfolio.json")
    p_port.add_argument("--direction", choices=[d.value for d in Direction])
    p_port.add_argument("--portfolio-size", type=int, default=None)
    p_port.add_argument("--portfolio-beta", type=float, default=None)
    p_port.set_defaults(func=cmd_export_portfolio, allow_extras=False)

    p_tok = sub.add_parser("token-report", help="print token usage for a run")
    p_tok.add_argument("run_dir")
    p_tok.set_defaults(func=cmd_token_report, allow_extras=False)

    p_val = sub.add_parser("validate-config", help="check a config file and exit")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--set", action="append", default=[])
    p_val.set_defaults(func=cmd_validate_config, allow_extras=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras and not getattr(args, "allow_extras", False):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args, extras)
    except AgentOptError as exc:  # an input that does not read or does not validate
        return _fail(EXIT_CONFIG, exc)


if __name__ == "__main__":
    sys.exit(main())
