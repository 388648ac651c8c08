"""Run configuration: defaults, YAML loading, validation, and wiring.

A config is a plain key tree. ``default_config`` carries every loop default;
user files are merged over it, and any leaf can be overridden from the
command line with a dotted path (``loop.max_fails=5``). Builders turn the
validated tree into live objects (domain, oracle, backends, init plan).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .backends import (
    Backend,
    HttpBackend,
    MutatorBackend,
    RoleRouter,
    RoleSettings,
    TokenLedger,
    scripted_load,
)
from .context import ContextSpec
from .core import Direction, DomainKind, ObjectiveSpec, PortfolioSpec, canonicalize
from .domains import DEFAULT_SEED_THRESHOLDS, DomainSpec, make_domain
from .engine import InitPlan, LoopParams
from .errors import ConfigError, InsufficientInit
from .filtering import (
    NO_CONSTRAINT,
    ExternalLineValidator,
    HardConstraint,
    TemplateSimilarityConstraint,
)
from .oracles import (
    CandidatePool,
    HttpOracle,
    Oracle,
    SubprocessOracle,
    make_synthetic,
    read_candidate_file,
    template_mutants,
)
from .rng import RngHub

ROLE_TEMPERATURES = {"explorer": 0.7, "planner": 0.7, "worker": 0.8}

# Synthetic starting points so a bare default config runs out of the box;
# real experiments point init.source at their own data instead.
DEFAULT_INIT_TEMPLATES = {
    DomainKind.PEPTIDE: [
        "KLWKKLLKWLKKLL",
        "RWLRWLARWLARLA",
        "FKKLWKLWKKFLKL",
    ],
    DomainKind.SMILES: [
        "CCO",
        "CC(=O)O",
        "c1ccccc1",
        "CCN(CC)CC",
        "CC(C)CCO",
    ],
    DomainKind.GENERIC: [
        "ABABABABAB",
        "CDCDCDCDCD",
        "EFEFEFEFEF",
    ],
}


def default_config(domain_kind: str = "generic") -> dict:
    """Full configuration tree with every built-in default filled in."""
    kind = DomainKind(domain_kind)
    return {
        "run": {"seed": 0, "output_dir": "runs/out"},
        "domain": {
            "kind": kind.value,
            "template_dir": None,
            "peptide_min_len": 5,
            "peptide_max_len": 60,
            "external_validator": None,
        },
        "objective": {
            "direction": "minimize" if kind == DomainKind.PEPTIDE else "maximize",
            "budget": 20000,
            "description": None,
            "portfolio": None,
        },
        "loop": {
            "max_fails": 3,
            "seeds_m": 2,
            "seed_threshold": DEFAULT_SEED_THRESHOLDS[kind],
            "registry_capacity": 20,
            "context": {"context_size": 20, "top_k": 8},
        },
        "backends": {
            "default": {"kind": "mutator", "seed": 0},
            "explorer": None,
            "planner": None,
            "worker": None,
            "roles": {
                role: {"temperature": temp, "max_output_tokens": 4096}
                for role, temp in ROLE_TEMPERATURES.items()
            },
        },
        "oracle": {
            "kind": "synthetic",
            "name": "motif-match",
            "params": {"target": "KLWKKLRWRLLK"},
            "command": None,
            "url": None,
            "timeout_ms": 60000,
        },
        "init": {
            "source": {
                "kind": "templates_plus_mutations",
                "path": None,
                "templates": list(DEFAULT_INIT_TEMPLATES[kind]),
                "templates_file": None,
            },
            "count": 100,
            "zero_signal_guard": False,
            "floor": 0.0,
            "pool": None,
        },
        "constraint": {
            "kind": "none",
            "templates": None,
            "templates_file": None,
            "min_similarity": 0.75,
        },
    }


# Subtrees replaced wholesale when the user supplies them: their default
# contents belong to a different kind (e.g. another oracle's params) and
# must not leak into the user's choice.
_REPLACE_PATHS = {
    ("oracle", "params"),
    ("oracle", "command"),
    ("init", "source"),
    ("init", "pool"),
    ("backends", "default"),
    ("backends", "explorer"),
    ("backends", "planner"),
    ("backends", "worker"),
}


def deep_merge(base: dict, override: dict, _path: tuple = ()) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        path = _path + (key,)
        if (
            path not in _REPLACE_PATHS
            and isinstance(value, dict)
            and isinstance(merged.get(key), dict)
        ):
            merged[key] = deep_merge(merged[key], value, path)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.path=value`` overrides; values parse as YAML scalars."""
    out = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key.path=value: {item!r}")
        dotted, raw_value = item.split("=", 1)
        keys = [k for k in dotted.strip().lstrip("-").split(".") if k]
        if not keys:
            raise ConfigError(f"override has an empty key path: {item!r}")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError:
            value = raw_value
        node = out
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return out


def load_config_file(path: Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return data


@dataclass
class RunConfig:
    """Validated configuration plus the objects cheap enough to prebuild."""

    raw: dict
    seed: int
    output_dir: Path
    domain: DomainSpec
    objective: ObjectiveSpec
    loop: LoopParams
    constraint: HardConstraint


def _expect(cfg: dict, path: str, types, required: bool = True) -> Any:
    node: Any = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing config key: {path}")
            return None
        node = node[part]
    if node is None and not required:
        return None
    if not isinstance(node, types):
        raise ConfigError(
            f"config key {path} has type {type(node).__name__}, expected "
            f"{getattr(types, '__name__', types)}"
        )
    return node


def validate_config(cfg: dict) -> RunConfig:
    """Check the whole tree and construct the typed pieces; raises ConfigError."""
    merged = deep_merge(default_config(cfg.get("domain", {}).get("kind", "generic")), cfg)

    try:
        kind = DomainKind(_expect(merged, "domain.kind", str))
    except ValueError as exc:
        raise ConfigError(f"domain.kind: {exc}") from exc

    template_dir = merged["domain"].get("template_dir")
    external_validator = merged["domain"].get("external_validator")
    validator = None
    if external_validator:
        if not isinstance(external_validator, list):
            raise ConfigError("domain.external_validator must be an argv list")
        validator = ExternalLineValidator(external_validator)
    try:
        domain = make_domain(
            kind,
            template_dir=Path(template_dir) if template_dir else None,
            peptide_min_len=int(_expect(merged, "domain.peptide_min_len", int)),
            peptide_max_len=int(_expect(merged, "domain.peptide_max_len", int)),
            validator=validator,
        )
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    try:
        direction = Direction(_expect(merged, "objective.direction", str))
    except ValueError as exc:
        raise ConfigError(f"objective.direction: {exc}") from exc
    portfolio_cfg = merged["objective"].get("portfolio")
    portfolio = build_portfolio_spec(portfolio_cfg) if portfolio_cfg else None
    try:
        objective = ObjectiveSpec(
            direction=direction,
            budget=int(_expect(merged, "objective.budget", int)),
            description=merged["objective"].get("description"),
            portfolio=portfolio,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"objective: {exc}") from exc

    ctx_cfg = merged["loop"]["context"]
    try:
        loop = LoopParams(
            max_fails=int(_expect(merged, "loop.max_fails", int)),
            seeds_m=int(_expect(merged, "loop.seeds_m", int)),
            seed_threshold=(
                None
                if merged["loop"].get("seed_threshold") is None
                else float(merged["loop"]["seed_threshold"])
            ),
            registry_capacity=int(_expect(merged, "loop.registry_capacity", int)),
            context=ContextSpec(
                context_size=int(ctx_cfg.get("context_size", 20)),
                top_k=int(ctx_cfg.get("top_k", 8)),
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"loop: {exc}") from exc

    constraint = build_constraint(merged["constraint"], domain)
    _precheck_backends(merged["backends"])
    _precheck_oracle(merged["oracle"])
    _precheck_init(merged["init"])

    return RunConfig(
        raw=merged,
        seed=int(_expect(merged, "run.seed", int)),
        output_dir=Path(_expect(merged, "run.output_dir", str)),
        domain=domain,
        objective=objective,
        loop=loop,
        constraint=constraint,
    )


def build_portfolio_spec(cfg: dict) -> PortfolioSpec:
    """``PortfolioSpec`` from an ``objective.portfolio`` mapping; raises ConfigError."""
    try:
        return PortfolioSpec(
            size=int(cfg.get("size", 20)),
            beta=float(cfg.get("beta", 0.75)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"objective.portfolio: {exc}") from exc


def _read_lines(path: str, what: str) -> list[str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file does not exist: {p}")
    return [line for line in p.read_text(encoding="utf-8").splitlines() if line.strip()]


def build_constraint(cfg: dict, domain: DomainSpec) -> HardConstraint:
    kind = cfg.get("kind", "none")
    if kind == "none":
        return NO_CONSTRAINT
    if kind != "template_similarity":
        raise ConfigError(f"constraint.kind: unknown kind {kind!r}")
    raw_templates = cfg.get("templates")
    if not raw_templates and cfg.get("templates_file"):
        raw_templates = _read_lines(cfg["templates_file"], "constraint templates")
    if not raw_templates:
        raise ConfigError("template_similarity constraint needs templates")
    templates = [canonicalize(t, domain.kind) for t in raw_templates]
    try:
        return TemplateSimilarityConstraint(
            templates, float(cfg.get("min_similarity", 0.75))
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"constraint: {exc}") from exc


def _precheck_backends(cfg: dict) -> None:
    for slot in ("default", "explorer", "planner", "worker"):
        entry = cfg.get(slot)
        if slot == "default" and entry is None:
            raise ConfigError("backends.default is required")
        if entry is None:
            continue
        kind = entry.get("kind")
        if kind not in ("http", "scripted", "mutator"):
            raise ConfigError(f"backends.{slot}.kind: unknown kind {kind!r}")
        if kind == "http":
            if not entry.get("endpoint_url") or not entry.get("model_name"):
                raise ConfigError(
                    f"backends.{slot}: http kind requires endpoint_url and model_name"
                )
        if kind == "scripted":
            script = entry.get("script")
            if not script:
                raise ConfigError(f"backends.{slot}: scripted kind requires script")
            if not Path(script).is_file():
                raise ConfigError(f"backends.{slot}.script does not exist: {script}")


def _precheck_oracle(cfg: dict) -> None:
    kind = cfg.get("kind")
    if kind == "synthetic":
        if not cfg.get("name"):
            raise ConfigError("oracle.name is required for synthetic oracles")
    elif kind == "subprocess":
        if not cfg.get("command"):
            raise ConfigError("oracle.command is required for subprocess oracles")
    elif kind == "http":
        if not cfg.get("url"):
            raise ConfigError("oracle.url is required for http oracles")
    else:
        raise ConfigError(f"oracle.kind: unknown kind {kind!r}")


def _precheck_init(cfg: dict) -> None:
    source = cfg.get("source") or {}
    kind = source.get("kind")
    if kind == "file":
        if not source.get("path"):
            raise ConfigError("init.source.path is required for file initialization")
        if not Path(source["path"]).is_file():
            raise ConfigError(f"init.source.path does not exist: {source['path']}")
    elif kind == "templates_plus_mutations":
        if not source.get("templates") and not source.get("templates_file"):
            raise ConfigError(
                "init.source needs templates or templates_file for templates_plus_mutations"
            )
        tf = source.get("templates_file")
        if tf and not Path(tf).is_file():
            raise ConfigError(f"init.source.templates_file does not exist: {tf}")
    else:
        raise ConfigError(f"init.source.kind: unknown kind {kind!r}")
    if int(cfg.get("count", 0)) < 1:
        raise ConfigError("init.count must be >= 1")


# ---------------------------------------------------------------------------
# Builders for the run-time objects
# ---------------------------------------------------------------------------


def build_oracle(cfg: dict) -> Oracle:
    oracle_cfg = cfg["oracle"]
    timeout_s = float(oracle_cfg.get("timeout_ms", 60000)) / 1000.0
    kind = oracle_cfg["kind"]
    if kind == "synthetic":
        try:
            return make_synthetic(oracle_cfg["name"], oracle_cfg.get("params") or {})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"oracle: {exc}") from exc
    if kind == "subprocess":
        return SubprocessOracle(oracle_cfg["command"], timeout_s=timeout_s)
    return HttpOracle(oracle_cfg["url"], timeout_s=timeout_s)


def _build_backend(entry: dict, config: RunConfig, ledger: TokenLedger) -> Backend:
    kind = entry["kind"]
    if kind == "scripted":
        return scripted_load(Path(entry["script"]))
    if kind == "mutator":
        return MutatorBackend(
            seed=int(entry.get("seed", config.seed)),
            alphabet=entry.get("alphabet") or config.domain.alphabet,
        )
    return HttpBackend(
        endpoint_url=entry["endpoint_url"],
        model_name=entry["model_name"],
        api_key_env_var=entry.get("api_key_env_var"),
        max_retries=int(entry.get("max_retries", 3)),
        retry_backoff_ms=int(entry.get("retry_backoff_ms", 500)),
        timeout_s=float(entry.get("timeout_s", 300.0)),
        ledger=ledger,
    )


def build_router(config: RunConfig, ledger: TokenLedger) -> RoleRouter:
    backends_cfg = config.raw["backends"]
    default = _build_backend(backends_cfg["default"], config, ledger)
    overrides: dict[str, Backend] = {}
    for role in ("explorer", "planner", "worker"):
        entry = backends_cfg.get(role)
        if entry:
            overrides[role] = _build_backend(entry, config, ledger)
    settings = {}
    for role, role_cfg in (backends_cfg.get("roles") or {}).items():
        settings[role] = RoleSettings(
            temperature=float(role_cfg.get("temperature", ROLE_TEMPERATURES.get(role, 0.7))),
            max_output_tokens=int(role_cfg.get("max_output_tokens", 4096)),
        )
    return RoleRouter(ledger, default, overrides, settings)


def build_init_plan(config: RunConfig, rng: RngHub) -> InitPlan:
    init_cfg = config.raw["init"]
    source = init_cfg["source"]
    count = int(init_cfg["count"])
    domain = config.domain

    if source["kind"] == "file":
        candidates = read_candidate_file(Path(source["path"]), domain.kind)
        if len(candidates) < count:
            raise InsufficientInit(
                f"init file {source['path']} has {len(candidates)} candidates, "
                f"requested {count}"
            )
        head = candidates[:count]
        seen: set[str] = set()
        deduped = []
        for candidate in head:
            if candidate.canonical in seen:
                continue
            seen.add(candidate.canonical)
            deduped.append(candidate)
        plan_candidates = deduped
        default_pool = CandidatePool(items=candidates)
    else:
        raw_templates = source.get("templates")
        if not raw_templates:
            raw_templates = _read_lines(source["templates_file"], "init templates")
        templates = [canonicalize(t, domain.kind) for t in raw_templates]
        plan_candidates = template_mutants(
            templates, count, domain.alphabet, rng.stream("init_mutations")
        )
        default_pool = CandidatePool(templates=templates, alphabet=domain.alphabet)

    pool = default_pool
    pool_cfg = init_cfg.get("pool")
    if pool_cfg:
        if pool_cfg.get("kind") == "file":
            pool = CandidatePool(
                items=read_candidate_file(Path(pool_cfg["path"]), domain.kind)
            )
        elif pool_cfg.get("kind") == "mutations":
            raw = pool_cfg.get("templates") or _read_lines(
                pool_cfg["templates_file"], "pool templates"
            )
            pool = CandidatePool(
                templates=[canonicalize(t, domain.kind) for t in raw],
                alphabet=domain.alphabet,
            )
        else:
            raise ConfigError(f"init.pool.kind: unknown kind {pool_cfg.get('kind')!r}")

    return InitPlan(
        candidates=plan_candidates,
        requested=count,
        zero_signal_guard=bool(init_cfg.get("zero_signal_guard", False)),
        floor=float(init_cfg.get("floor", 0.0)),
        pool=pool,
    )
