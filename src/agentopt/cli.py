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
from .core import Direction, History, PortfolioSpec, is_improvement
from .distance import EditDistanceIndex
from .diversity import best_portfolio_greedy, portfolio_progress
from .engine import Engine, RunResult
from .errors import AgentOptError, ConfigError, CorruptCheckpoint
from .events import (
    CHECKPOINT_DIR,
    CHECKPOINT_FILE,
    CONFIG_COPY_FILE,
    EVENTS_FILE,
    HISTORY_FILE,
    SUMMARY_FILE,
    Checkpoint,
    EventLog,
    HistoryLog,
    Steps,
    load_checkpoint,
    load_history,
    read_json,
    read_steps,
    resume_logs,
)
from .registry import TaskRegistry
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
    best = result.history.best_record(config.objective.direction)
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

    A resume reads the checkpointed log prefixes and restores every piece of
    state before it cuts the logs back to the checkpoint, so a damaged run
    directory leaves both logs as they were.
    """
    ledger = TokenLedger()
    rng = RngHub(config.seed)
    oracle = build_oracle(config.raw)
    router = build_router(config, ledger)
    events_path, history_path = run_dir / EVENTS_FILE, run_dir / HISTORY_FILE
    resume = checkpoint is not None
    history = registry = init_plan = None
    if not resume:
        init_plan = build_init_plan(config, rng)
    else:
        history, cut_logs = resume_logs(run_dir, checkpoint)
        try:
            registry = TaskRegistry.restore(
                checkpoint.registry, capacity=config.loop.registry_capacity
            )
            rng.restore(checkpoint.rng)
            ledger.restore(checkpoint.ledger)
            router.restore(checkpoint.backends)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptCheckpoint(f"run state does not load: {exc!r}") from exc
        cut_logs()
    engine = Engine(
        domain=config.domain,
        objective=config.objective,
        loop=config.loop,
        router=router,
        oracle=oracle,
        constraint=config.constraint,
        init_plan=init_plan,
        rng=rng,
        run_dir=run_dir,
        event_log=EventLog(
            events_path, next_seq=checkpoint.events_seq + 1 if resume else 1, append=resume
        ),
        history_log=HistoryLog(history_path, append=resume),
        history=history,
        registry=registry,
        start_round=checkpoint.round_idx if resume else 0,
    )
    return engine, ledger


def _open_failed(exc: Exception) -> int:
    # a damaged run directory fails at run time; anything else is the config's
    return _fail(EXIT_RUNTIME if isinstance(exc, CorruptCheckpoint) else EXIT_CONFIG, exc)


def _execute(
    config: RunConfig, run_dir: Path, checkpoint: Optional[Checkpoint] = None
) -> int:
    """Run or resume, then write the summary.

    A finished ``checkpoint`` (a run killed after its last checkpoint, before
    its summary) runs no round: the summary comes from the restored state.
    """
    try:
        engine, ledger = _open_engine(config, run_dir, checkpoint)
    except (AgentOptError, OSError) as exc:
        return _open_failed(exc)
    started = time.monotonic()
    try:
        if checkpoint is not None and checkpoint.finished:
            result = engine.result(checkpoint.stop_reason)
        else:
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
    # an earlier run's checkpoints and summary must not outlive it: resume
    # would read them if this run fails before its first checkpoint
    for stale in (
        run_dir / CHECKPOINT_FILE,
        run_dir / SUMMARY_FILE,
        *(run_dir / CHECKPOINT_DIR).glob("round_*.json"),
    ):
        stale.unlink(missing_ok=True)
    (run_dir / CONFIG_COPY_FILE).write_text(
        json.dumps(config.raw, ensure_ascii=False, indent=1), encoding="utf-8"
    )
    return _execute(config, run_dir)


def cmd_resume(args: argparse.Namespace, extras: list[str]) -> int:
    checkpoint_path = Path(args.checkpoint)
    if checkpoint_path.is_dir():
        checkpoint_path = checkpoint_path / CHECKPOINT_FILE
    run_dir = checkpoint_path.parent
    try:
        checkpoint = load_checkpoint(checkpoint_path)
        if checkpoint.finished and (run_dir / SUMMARY_FILE).exists():
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


def _load_export(
    args: argparse.Namespace,
) -> tuple[History, Direction, Optional[PortfolioSpec]]:
    """The history an export reads, its direction and its portfolio spec.

    Both come from the ``objective`` section of the run's ``config.json``
    beside the history, if there is one. Each flag given overrides its own
    key there; a portfolio key that neither sets takes its default.
    """
    history = load_history(args.history)
    run_cfg = Path(args.history).parent / CONFIG_COPY_FILE
    cfg = _read_run_config(run_cfg) if run_cfg.is_file() else {}
    objective = cfg.get("objective", {})
    if not isinstance(objective, dict):
        raise CorruptCheckpoint(f"{run_cfg}: objective {objective!r} is not an object")
    section = _expect(cfg, "objective.portfolio", dict, None)
    flags = {"size": args.portfolio_size, "beta": args.portfolio_beta}
    flags = {key: value for key, value in flags.items() if value is not None}
    if flags:
        section = {**(section or {}), **flags}
    try:
        direction = Direction(args.direction or objective.get("direction", "maximize"))
    except ValueError as exc:
        raise ConfigError(f"objective.direction: {exc}") from exc
    return history, direction, build_portfolio_spec(section) if section else None


def cmd_export_curve(args: argparse.Namespace, extras: list[str]) -> int:
    history, direction, portfolio_spec = _load_export(args)  # main() reports errors
    out_path = Path(args.out)
    header = ["eval_index", "best_so_far"]
    points = None
    if portfolio_spec is not None:
        header += ["portfolio_agg", "portfolio_complete"]
        points = portfolio_progress(
            history, portfolio_spec, EditDistanceIndex(), direction
        )
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        best: Optional[float] = None
        for i, record in enumerate(history.records):
            if best is None or is_improvement(record.score, best, direction):
                best = record.score
            row = [record.eval_index, best]
            if points is not None:
                row += [points[i].agg_value, str(points[i].complete).lower()]
            writer.writerow(row)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_export_portfolio(args: argparse.Namespace, extras: list[str]) -> int:
    history, direction, spec = _load_export(args)  # main() reports errors
    portfolio = best_portfolio_greedy(
        history, spec or PortfolioSpec(), EditDistanceIndex(), direction
    )
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


def fold_tokens(steps: Steps) -> dict:
    """The ``TokenLedger`` report of the agent calls among ``steps``."""
    ledger = TokenLedger()
    for call in (step.call for step in steps if step.call is not None):
        result = CompletionResult("", call["input_tokens"], call["output_tokens"], 0)
        ledger.record(call["role"], call["backend"], result)
    return ledger.report()


def cmd_token_report(args: argparse.Namespace, extras: list[str]) -> int:
    # from events.jsonl alone, so killed runs without a summary report too
    tokens = fold_tokens(read_steps(Path(args.run_dir) / EVENTS_FILE))  # main() reports errors
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
    p_resume.add_argument("checkpoint", help="run directory or checkpoint.json path")
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
