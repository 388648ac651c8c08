"""Built-in domain descriptors: peptide sequences, SMILES strings, generic.

Switching domains is meant to cost nothing but a different descriptor. What
a kind brings by default (direction, mutation alphabet, seed threshold,
default tasks, init templates and validator) is written once, in
:data:`BUILTIN`; ``config.default_config`` and :func:`make_domain` both read
it, and :class:`DomainSpec` is what the engine gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .core import Direction, DomainKind
from .errors import ConfigError
from .filtering import PeptideValidator, Validator, smiles_syntax_ok
from .prompts import PromptPack, load_prompt_pack


@dataclass(frozen=True)
class KindDefaults:
    """The defaults of one built-in domain kind."""

    direction: Direction
    # mutation alphabet; its order feeds rng.choice, so it fixes every mutant
    alphabet: str
    # greedy seed-selection threshold on normalized edit distance
    seed_threshold: float
    # exactly three; each task's text is the file task_<name in lower case>.txt
    task_names: tuple[str, ...]
    # synthetic starting points, so a bare default config runs out of the box
    init_templates: tuple[str, ...]
    # None: a PeptideValidator over ``alphabet``, with length bounds from config
    validator: Optional[Validator]


BUILTIN: dict[DomainKind, KindDefaults] = {
    DomainKind.PEPTIDE: KindDefaults(
        direction=Direction.MINIMIZE,
        alphabet="ACDEFGHIKLMNPQRSTVWY",
        seed_threshold=0.75,
        task_names=("SIMILAR", "EXPLORE", "SHUFFLE"),
        init_templates=("KLWKKLLKWLKKLL", "RWLRWLARWLARLA", "FKKLWKLWKKFLKL"),
        validator=None,
    ),
    DomainKind.SMILES: KindDefaults(
        direction=Direction.MAXIMIZE,
        # single-character atoms only, so random substitutions stay parseable
        alphabet="CNOSPFIcnos",
        seed_threshold=0.5,
        task_names=("SIMILAR", "EXPLORE", "SCAFFOLD_HOP"),
        init_templates=("CCO", "CC(=O)O", "c1ccccc1", "CCN(CC)CC", "CC(C)CCO"),
        validator=smiles_syntax_ok,
    ),
    DomainKind.GENERIC: KindDefaults(
        direction=Direction.MAXIMIZE,
        alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ",
        seed_threshold=0.75,
        task_names=("SIMILAR", "EXPLORE", "SHUFFLE"),
        init_templates=("ABABABABAB", "CDCDCDCDCD", "EFEFEFEFEF"),
        validator=bool,
    ),
}


@dataclass
class DomainSpec:
    """Everything the engine needs to know about one design space."""

    kind: DomainKind
    validator: Validator
    default_tasks: list[tuple[str, str]]  # (name, text) pairs
    prompt_pack: PromptPack
    alphabet: str


def builtin_template_dir(kind: DomainKind) -> Path:
    return Path(str(resources.files("agentopt") / "templates" / kind.value))


def make_domain(
    kind: DomainKind,
    template_dir: Optional[Path] = None,
    peptide_min_len: int = 5,
    peptide_max_len: int = 60,
    validator: Optional[Validator] = None,
) -> DomainSpec:
    """Assemble a built-in domain, allowing template and validator overrides."""
    defaults = BUILTIN[kind]
    directory = Path(template_dir) if template_dir else builtin_template_dir(kind)
    pack = load_prompt_pack(directory)
    tasks = []
    for name in defaults.task_names:
        task_path = directory / f"task_{name.lower()}.txt"
        if not task_path.is_file():
            raise ConfigError(f"missing default task file: {task_path}")
        tasks.append((name, task_path.read_text(encoding="utf-8").rstrip("\n")))
    if validator is None:
        validator = defaults.validator or PeptideValidator(
            defaults.alphabet, min_len=peptide_min_len, max_len=peptide_max_len
        )
    return DomainSpec(
        kind=kind,
        validator=validator,
        default_tasks=tasks,
        prompt_pack=pack,
        alphabet=defaults.alphabet,
    )
