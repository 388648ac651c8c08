"""Run configuration: defaults, YAML loading, and one reader per section.

A config is a plain key tree. ``default_config`` carries every loop default;
user files are merged over it, and a leaf can be overridden from the command
line with a dotted path (``loop.max_fails=5``). Each section has one reader,
which checks its leaves and builds its object (domain, oracle, backends, init
sources, ...); ``validate_config`` runs them all.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .backends import (
    MAX_RETRIES,
    RETRY_BACKOFF_MS,
    ROLES,
    Backend,
    HttpBackend,
    MutatorBackend,
    RoleRouter,
    RoleSettings,
    TokenLedger,
    scripted_load,
)
from .context import ContextSpec
from .core import (
    Candidate,
    Direction,
    DomainKind,
    ObjectiveSpec,
    PortfolioSpec,
    canonicalize,
)
from .domains import BUILTIN, DomainSpec, make_domain
from .engine import InitPlan, LoopParams
from .errors import ConfigError, EmptyCandidate, InsufficientInit, MalformedScript
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
from .registry import TaskRegistry
from .rng import RngHub


def default_config(domain_kind: str = "generic") -> dict:
    """Full configuration tree with every built-in default filled in."""
    kind = DomainKind(domain_kind)
    defaults = BUILTIN[kind]
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
            "direction": defaults.direction.value,
            "budget": 20000,
            "description": None,
            "portfolio": None,
        },
        "loop": {
            "max_fails": 3,
            "seeds_m": 2,
            "seed_threshold": defaults.seed_threshold,
            "registry_capacity": 20,
            "context": {"context_size": 20, "top_k": 8},
        },
        "backends": {
            "default": {"kind": "mutator", "seed": 0},
            "explorer": None,
            "planner": None,
            "worker": None,
            "roles": {
                "explorer": {"temperature": 0.7, "max_output_tokens": 4096},
                "planner": {"temperature": 0.7, "max_output_tokens": 4096},
                "worker": {"temperature": 0.8, "max_output_tokens": 4096},
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
                "templates": list(defaults.init_templates),
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
    """``override`` merged over ``base``; shares the subtrees it leaves alone."""
    merged = dict(base)
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
    except (OSError, UnicodeDecodeError) as exc:
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
    init_count: int
    init_source: CandidatePool  # the items of a ``file``, or templates to mutate
    init_pool: CandidatePool  # the zero-signal guard's draws; the source's by default
    zero_signal_guard: bool
    init_floor: float


_REQUIRED = object()


def _get(cfg: dict, path: str, default: Any = _REQUIRED) -> Any:
    """The value at dotted ``path``, or ``default`` when it is missing or null."""
    node: Any = cfg
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing config key: {path}")
            return default
    return node


def _bad(path: str, value: Any, expected: str) -> ConfigError:
    return ConfigError(f"config key {path} is {value!r}, expected {expected}")


def _expect(cfg: dict, path: str, types: type, default: Any = _REQUIRED) -> Any:
    """The leaf at ``path``, which must be a ``types``.

    A bool is not an int here, and every list leaf is a list of strings.
    """
    value = _get(cfg, path, default)
    if value is not default and (
        not isinstance(value, types)
        or (isinstance(value, bool) and types is not bool)
        or (types is list and not all(isinstance(item, str) for item in value))
    ):
        raise _bad(path, value, types.__name__)
    return value


def _number(cfg: dict, path: str, kind: type, default: Any = _REQUIRED) -> Any:
    """The leaf at ``path`` read by ``kind`` (``int`` or ``float``), never from a bool."""
    value = _get(cfg, path, default)
    if value is default:
        return value
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise _bad(path, value, kind.__name__)


def validate_config(cfg: dict) -> RunConfig:
    """Read the whole tree, each section by its one reader; raises ConfigError.

    The oracle and the backends are built here and dropped, so a config that
    validates also gets through the setup of a run.
    """
    try:
        merged = deep_merge(default_config(_get(cfg, "domain.kind", "generic")), cfg)
    except ValueError as exc:
        raise ConfigError(f"domain.kind: {exc}") from exc

    template_dir = _expect(merged, "domain.template_dir", str, None)
    argv = _expect(merged, "domain.external_validator", list, None)
    try:
        domain = make_domain(
            DomainKind(_expect(merged, "domain.kind", str)),
            template_dir=Path(template_dir) if template_dir else None,
            peptide_min_len=_expect(merged, "domain.peptide_min_len", int),
            peptide_max_len=_expect(merged, "domain.peptide_max_len", int),
            validator=ExternalLineValidator(argv) if argv else None,
        )
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    portfolio = _expect(merged, "objective.portfolio", dict, None)
    try:
        objective = ObjectiveSpec(
            direction=Direction(_expect(merged, "objective.direction", str)),
            budget=_expect(merged, "objective.budget", int),
            description=_expect(merged, "objective.description", str, None),
            portfolio=build_portfolio_spec(portfolio) if portfolio else None,
        )
    except ValueError as exc:
        raise ConfigError(f"objective: {exc}") from exc

    try:
        loop = LoopParams(
            max_fails=_expect(merged, "loop.max_fails", int),
            seeds_m=_expect(merged, "loop.seeds_m", int),
            seed_threshold=_number(merged, "loop.seed_threshold", float),
            registry_capacity=_expect(merged, "loop.registry_capacity", int),
            context=ContextSpec(
                context_size=_number(merged, "loop.context.context_size", int),
                top_k=_number(merged, "loop.context.top_k", int),
            ),
        )
        TaskRegistry(domain.default_tasks, capacity=loop.registry_capacity)
    except ValueError as exc:
        raise ConfigError(f"loop: {exc}") from exc

    init_count = _number(merged, "init.count", int)
    if init_count < 1:
        raise ConfigError("init.count must be >= 1")
    init_source = _candidate_pool(merged, "init.source", "templates_plus_mutations", domain)
    config = RunConfig(
        raw=merged,
        seed=_expect(merged, "run.seed", int),
        output_dir=Path(_expect(merged, "run.output_dir", str)),
        domain=domain,
        objective=objective,
        loop=loop,
        constraint=build_constraint(merged, domain),
        init_count=init_count,
        init_source=init_source,
        init_pool=(
            _candidate_pool(merged, "init.pool", "mutations", domain)
            if _expect(merged, "init.pool", dict, None)
            else init_source
        ),
        zero_signal_guard=_expect(merged, "init.zero_signal_guard", bool),
        init_floor=_number(merged, "init.floor", float),
    )
    build_oracle(merged)
    build_router(config, TokenLedger())
    return config


def build_portfolio_spec(cfg: dict) -> PortfolioSpec:
    """``PortfolioSpec`` from an ``objective.portfolio`` mapping; raises ConfigError."""
    try:
        return PortfolioSpec(
            size=_number(cfg, "size", int, 20), beta=_number(cfg, "beta", float, 0.75)
        )
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"objective.portfolio: {exc}") from exc


def _templates(cfg: dict, at: str, domain: DomainSpec) -> list[Candidate]:
    """The canonical ``<at>.templates``, else the lines of ``<at>.templates_file``."""
    raw = _expect(cfg, f"{at}.templates", list, None)
    path = _expect(cfg, f"{at}.templates_file", str, None)
    if not raw and path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{at}.templates_file: cannot read {path}: {exc}") from exc
        raw = [line for line in text.splitlines() if line.strip()]
    if not raw:
        raise ConfigError(f"{at} needs templates or templates_file")
    try:
        return [canonicalize(t, domain.kind) for t in raw]
    except EmptyCandidate as exc:
        raise ConfigError(f"{at}.templates: {exc}") from exc


def _candidate_pool(
    cfg: dict, at: str, mutation_kind: str, domain: DomainSpec
) -> CandidatePool:
    """The candidates of ``init.source`` or ``init.pool``: a file, or templates."""
    kind = _get(cfg, f"{at}.kind", None)
    if kind == "file":
        path = _expect(cfg, f"{at}.path", str)
        try:
            return CandidatePool(items=read_candidate_file(Path(path), domain.kind))
        except InsufficientInit as exc:
            raise ConfigError(f"{at}.path: {exc}") from exc
    if kind == mutation_kind:
        return CandidatePool(
            templates=_templates(cfg, at, domain), alphabet=domain.alphabet
        )
    raise ConfigError(f"{at}.kind: unknown kind {kind!r}")


def build_constraint(cfg: dict, domain: DomainSpec) -> HardConstraint:
    """The hard constraint of the ``constraint`` section; raises ConfigError."""
    kind = _get(cfg, "constraint.kind", None)
    if kind == "none":
        return NO_CONSTRAINT
    if kind != "template_similarity":
        raise ConfigError(f"constraint.kind: unknown kind {kind!r}")
    templates = _templates(cfg, "constraint", domain)
    try:
        return TemplateSimilarityConstraint(
            templates, _number(cfg, "constraint.min_similarity", float)
        )
    except ValueError as exc:
        raise ConfigError(f"constraint: {exc}") from exc


def build_oracle(cfg: dict) -> Oracle:
    """The oracle of the ``oracle`` section; raises ConfigError.

    Constructing an oracle starts no process and sends no request, so
    ``validate_config`` checks the section by building one.
    """
    kind = _get(cfg, "oracle.kind", None)
    timeout_s = _number(cfg, "oracle.timeout_ms", float) / 1000.0
    try:
        if kind == "synthetic":
            return make_synthetic(
                _expect(cfg, "oracle.name", str), _expect(cfg, "oracle.params", dict, {})
            )
        if kind == "subprocess":
            return SubprocessOracle(_expect(cfg, "oracle.command", list), timeout_s=timeout_s)
        if kind == "http":
            return HttpOracle(_expect(cfg, "oracle.url", str), timeout_s=timeout_s)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    raise ConfigError(f"oracle.kind: unknown kind {kind!r}")


def _build_backend(config: RunConfig, slot: str, ledger: TokenLedger) -> Backend:
    """The backend of the entry ``backends.<slot>``; raises ConfigError."""
    cfg, at = config.raw, f"backends.{slot}"
    kind = _get(cfg, f"{at}.kind", None)
    try:
        if kind == "scripted":
            return scripted_load(Path(_expect(cfg, f"{at}.script", str)))
        if kind == "mutator":
            return MutatorBackend(
                seed=_number(cfg, f"{at}.seed", int, config.seed),
                alphabet=_expect(cfg, f"{at}.alphabet", str, None) or config.domain.alphabet,
            )
        if kind == "http":
            # an entry replaces the default one whole, so these keep fallbacks
            return HttpBackend(
                endpoint_url=_expect(cfg, f"{at}.endpoint_url", str),
                model_name=_expect(cfg, f"{at}.model_name", str),
                api_key_env_var=_expect(cfg, f"{at}.api_key_env_var", str, None),
                max_retries=_number(cfg, f"{at}.max_retries", int, MAX_RETRIES),
                retry_backoff_ms=_number(cfg, f"{at}.retry_backoff_ms", int, RETRY_BACKOFF_MS),
                timeout_s=_number(cfg, f"{at}.timeout_s", float, 300.0),
                ledger=ledger,
            )
    except (MalformedScript, ValueError) as exc:
        raise ConfigError(f"{at}: {exc}") from exc
    raise ConfigError(f"{at}.kind: unknown kind {kind!r}")


def build_router(config: RunConfig, ledger: TokenLedger) -> RoleRouter:
    """The backends of the ``backends`` section, routed by role; raises ConfigError."""
    default = _build_backend(config, "default", ledger)
    overrides = {
        role: _build_backend(config, role, ledger)
        for role in ROLES
        if _expect(config.raw, f"backends.{role}", dict, None)
    }
    settings = {}
    for role in ROLES:
        at = f"backends.roles.{role}"
        try:
            settings[role] = RoleSettings(
                temperature=_number(config.raw, f"{at}.temperature", float),
                max_output_tokens=_number(config.raw, f"{at}.max_output_tokens", int),
            )
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    return RoleRouter(ledger, default, overrides, settings)


def build_init_plan(config: RunConfig, rng: RngHub) -> InitPlan:
    """The first ``init.count`` candidates: the file's distinct leading lines,
    or the templates and then their mutants. Raises ``InsufficientInit``."""
    count, source, pool = config.init_count, config.init_source, config.init_pool
    if source.items is not None:
        if len(source.items) < count:
            raise InsufficientInit(
                f"init.source.path has {len(source.items)} candidates, requested {count}"
            )
        first: dict[str, Candidate] = {}
        for candidate in source.items[:count]:
            first.setdefault(candidate.canonical, candidate)
        candidates = list(first.values())
    else:
        candidates = template_mutants(
            source.templates, count, source.alphabet, rng.stream("init_mutations")
        )
    return InitPlan(
        candidates=candidates,
        requested=count,
        zero_signal_guard=config.zero_signal_guard,
        floor=config.init_floor,
        # a fresh pool: what one run has drawn must not shrink the next run's
        pool=CandidatePool(pool.items, pool.templates, pool.alphabet),
    )
