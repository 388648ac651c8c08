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
    apply_overrides,
    build_init_plan,
    build_oracle,
    build_portfolio_spec,
    build_router,
    load_config_file,
    validate_config,
)
from .core import Direction, History, PortfolioSpec, is_improvement
from .distance import normalized_edit_distance
from .diversity import best_portfolio_greedy, portfolio_progress
from .engine import Engine, RunResult
from .errors import AgentOptError, ConfigError, CorruptCheckpoint
from .events import (
    CHECKPOINT_FILE,
    CONFIG_COPY_FILE,
    EVENTS_FILE,
    HISTORY_FILE,
    SUMMARY_FILE,
    EventLog,
    HistoryLog,
    load_checkpoint,
    load_history,
    read_jsonl,
    truncate_jsonl,
    validate_event_log,
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


def _execute(engine: Engine, config: RunConfig, ledger: TokenLedger) -> int:
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
    summary = _write_summary(
        engine.run_dir, config, result, ledger, time.monotonic() - started
    )
    print(
        f"finished: {summary['evals_used']}/{summary['budget']} evaluations, "
        f"best {summary['best_score']} ({summary['stop_reason']})"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace, extras: list[str]) -> int:
    try:
        config = _load_run_config(args.config, args.set or [], extras)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)

    run_dir = config.output_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CONFIG_COPY_FILE).write_text(
        json.dumps(config.raw, ensure_ascii=False, indent=1), encoding="utf-8"
    )

    ledger = TokenLedger()
    rng = RngHub(config.seed)
    try:
        oracle = build_oracle(config.raw)
        router = build_router(config, ledger)
        init_plan = build_init_plan(config, rng)
    except AgentOptError as exc:
        return _fail(EXIT_CONFIG, exc)

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
        event_log=EventLog(run_dir / EVENTS_FILE),
        history_log=HistoryLog(run_dir / HISTORY_FILE),
    )
    return _execute(engine, config, ledger)


def _resolve_run_dir(path_arg: str) -> tuple[Path, Path]:
    path = Path(path_arg)
    if path.is_dir():
        return path, path / CHECKPOINT_FILE
    return path.parent, path


def cmd_resume(args: argparse.Namespace, extras: list[str]) -> int:
    run_dir, checkpoint_path = _resolve_run_dir(args.checkpoint)
    try:
        checkpoint = load_checkpoint(checkpoint_path)
        if checkpoint.finished:
            print("run already finished; nothing to resume")
            return EXIT_OK
        config_path = run_dir / CONFIG_COPY_FILE
        if not config_path.is_file():
            raise CorruptCheckpoint(f"missing resolved config: {config_path}")
        config = validate_config(json.loads(config_path.read_text(encoding="utf-8")))

        events_path = run_dir / EVENTS_FILE
        history_path = run_dir / HISTORY_FILE
        if not events_path.is_file() or not history_path.is_file():
            raise CorruptCheckpoint("events.jsonl or history.jsonl is missing")
        validate_event_log(events_path, checkpoint.events_seq)
        truncate_jsonl(events_path, checkpoint.events_seq)
        truncate_jsonl(history_path, checkpoint.history_len)

        history = load_history(history_path)
        if history.evals_used != checkpoint.evals_used:
            raise CorruptCheckpoint(
                f"history has {history.evals_used} records, checkpoint says "
                f"{checkpoint.evals_used}"
            )
        registry = TaskRegistry.restore(
            checkpoint.registry, capacity=config.loop.registry_capacity
        )
        rng = RngHub(config.seed)
        rng.restore(checkpoint.rng)
        ledger = TokenLedger()
        ledger.restore(checkpoint.ledger)
        oracle = build_oracle(config.raw)
        router = build_router(config, ledger)
        router.seek(checkpoint.backend_positions)
    except (AgentOptError, json.JSONDecodeError, OSError) as exc:
        return _fail(EXIT_RUNTIME if isinstance(exc, CorruptCheckpoint) else EXIT_CONFIG, exc)

    engine = Engine(
        domain=config.domain,
        objective=config.objective,
        loop=config.loop,
        router=router,
        oracle=oracle,
        constraint=config.constraint,
        init_plan=None,
        rng=rng,
        run_dir=run_dir,
        event_log=EventLog(
            run_dir / EVENTS_FILE, next_seq=checkpoint.events_seq + 1, append=True
        ),
        history_log=HistoryLog(run_dir / HISTORY_FILE, append=True),
        history=history,
        registry=registry,
        start_round=checkpoint.round_idx,
    )
    return _execute(engine, config, ledger)


def _history_from_file(path: str) -> History:
    return load_history(Path(path))


def _sibling_config(history_path: str) -> Optional[dict]:
    candidate = Path(history_path).parent / CONFIG_COPY_FILE
    if candidate.is_file():
        try:
            return json.loads(candidate.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
    return None


def _direction_for(args: argparse.Namespace, cfg: Optional[dict]) -> Direction:
    if args.direction:
        return Direction(args.direction)
    if cfg:
        return Direction(cfg["objective"]["direction"])
    return Direction.MAXIMIZE


def cmd_export_curve(args: argparse.Namespace, extras: list[str]) -> int:
    try:
        history = _history_from_file(args.history)
    except (AgentOptError, OSError, json.JSONDecodeError, KeyError) as exc:
        return _fail(EXIT_CONFIG, exc)
    cfg = _sibling_config(args.history)
    direction = _direction_for(args, cfg)

    portfolio_spec = _portfolio_spec_from(args, cfg)
    out_path = Path(args.out)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if portfolio_spec is None:
            writer.writerow(["eval_index", "best_so_far"])
            best: Optional[float] = None
            for record in history.records:
                if best is None or is_improvement(record.score, best, direction):
                    best = record.score
                writer.writerow([record.eval_index, best])
        else:
            writer.writerow(
                ["eval_index", "best_so_far", "portfolio_agg", "portfolio_complete"]
            )
            points = portfolio_progress(
                history, portfolio_spec, normalized_edit_distance, direction
            )
            best = None
            for record, point in zip(history.records, points):
                if best is None or is_improvement(record.score, best, direction):
                    best = record.score
                writer.writerow(
                    [record.eval_index, best, point.agg_value, str(point.complete).lower()]
                )
    print(f"wrote {out_path}")
    return EXIT_OK


def _portfolio_spec_from(
    args: argparse.Namespace, cfg: Optional[dict]
) -> Optional[PortfolioSpec]:
    """Portfolio flags when ``--portfolio-size`` is given, else the run's config."""
    if args.portfolio_size is not None:
        section = {"size": args.portfolio_size}
        if args.portfolio_beta is not None:
            section["beta"] = args.portfolio_beta
    else:
        section = cfg["objective"].get("portfolio") if cfg else None
    return build_portfolio_spec(section) if section else None


def cmd_export_portfolio(args: argparse.Namespace, extras: list[str]) -> int:
    try:
        history = _history_from_file(args.history)
    except (AgentOptError, OSError, json.JSONDecodeError, KeyError) as exc:
        return _fail(EXIT_CONFIG, exc)
    cfg = _sibling_config(args.history)
    direction = _direction_for(args, cfg)
    spec = _portfolio_spec_from(args, cfg) or PortfolioSpec()
    portfolio = best_portfolio_greedy(
        history, spec, normalized_edit_distance, direction
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


def cmd_token_report(args: argparse.Namespace, extras: list[str]) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / SUMMARY_FILE
    tokens: Optional[dict] = None
    if summary_path.is_file():
        try:
            tokens = json.loads(summary_path.read_text(encoding="utf-8")).get("tokens")
        except (OSError, json.JSONDecodeError):
            tokens = None
    if tokens is None:
        # Interrupted runs have no summary yet; rebuild totals from events.
        events_path = run_dir / EVENTS_FILE
        if not events_path.is_file():
            return _fail(EXIT_CONFIG, ConfigError(f"no summary or events in {run_dir}"))
        ledger = TokenLedger()
        for event in read_jsonl(events_path):
            if event.get("kind") != "agent_call":
                continue
            payload = event["payload"]
            ledger.record(
                payload["role"],
                payload.get("backend", "unknown"),
                CompletionResult(
                    text="",
                    input_tokens=payload.get("input_tokens", 0),
                    output_tokens=payload.get("output_tokens", 0),
                    latency_ms=payload.get("latency_ms", 0),
                ),
            )
        tokens = ledger.report()
    for section in ("per_role", "per_backend"):
        print(f"{section}:")
        for key, row in sorted(tokens.get(section, {}).items()):
            print(
                f"  {key}: in={row['input_tokens']} out={row['output_tokens']} "
                f"total={row['total_tokens']} calls={row['calls']}"
            )
    total = tokens.get("total", {})
    print(
        f"total: in={total.get('input_tokens', 0)} out={total.get('output_tokens', 0)} "
        f"total={total.get('total_tokens', 0)} calls={total.get('calls', 0)}"
    )
    return EXIT_OK


def cmd_validate_config(args: argparse.Namespace, extras: list[str]) -> int:
    try:
        config = _load_run_config(args.config, args.set or [], extras)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
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
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)


if __name__ == "__main__":
    sys.exit(main())
