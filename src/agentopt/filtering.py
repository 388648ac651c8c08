"""Pre-oracle candidate filtering: validity, dedup, and hard constraints.

Everything here runs before any oracle call, so the evaluation budget is
never spent on malformed strings, repeats, or infeasible designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from . import distance
from .core import Candidate, History, canonicalize
from .errors import EmptyCandidate
from .oracles import run_lines

if TYPE_CHECKING:
    from .domains import DomainSpec

REASON_INVALID = "invalid"
REASON_DUP_BATCH = "duplicate_in_batch"
REASON_DUP_HISTORY = "duplicate_in_history"
REASON_CONSTRAINT = "constraint_violation"


@dataclass(frozen=True)
class Rejection:
    """Why one candidate of a batch was not accepted."""

    reason: str


@dataclass
class FilterReport:
    """Partition of an agent batch into evaluable candidates and rejects."""

    accepted: list[Candidate]
    rejected: list[Rejection]

    @property
    def n_input(self) -> int:
        return len(self.accepted) + len(self.rejected)


# ---------------------------------------------------------------------------
# Validators (operate on canonical text)
# ---------------------------------------------------------------------------


class PeptideValidator:
    """Accepts sequences over ``alphabet`` within length bounds."""

    def __init__(self, alphabet: str, min_len: int = 5, max_len: int = 60):
        self.min_len = min_len
        self.max_len = max_len
        self._alphabet = frozenset(alphabet)

    def __call__(self, canonical: str) -> bool:
        if not self.min_len <= len(canonical) <= self.max_len:
            return False
        return self._alphabet.issuperset(canonical)


_SMILES_CHARS = frozenset(
    "ABCDEFGHIKLMNOPRSTUVWXYZabcdefghiklmnoprstuvy0123456789()[]=#+-/\\%@.:*$"
)


def smiles_syntax_ok(text: str) -> bool:
    """Cheap syntactic screen for SMILES: charset, bracket balance, ring digits.

    This is not chemistry. It rejects strings no parser could read (unbalanced
    parentheses, dangling ring-bond digits, stray characters) and accepts the
    rest; real chemical validity belongs to an external validator.
    """
    if not text or not any(ch.isalpha() for ch in text):
        return False
    if any(ch not in _SMILES_CHARS for ch in text):
        return False
    depth = 0
    in_brackets = False
    open_rings: set[str] = set()
    i = 0
    while i < len(text):
        ch = text[i]
        if in_brackets:
            if ch == "[":
                return False
            if ch == "]":
                in_brackets = False
        elif ch == "[":
            in_brackets = True
        elif ch == "]":
            return False
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        elif ch == "%":
            if i + 2 >= len(text) or not text[i + 1 : i + 3].isdigit():
                return False
            open_rings ^= {text[i + 1 : i + 3]}
            i += 2
        elif ch.isdigit():
            open_rings ^= {ch}
        i += 1
    return depth == 0 and not in_brackets and not open_rings


class ExternalLineValidator:
    """Delegate validity to a subprocess speaking a line protocol.

    The command receives one candidate per stdin line and must answer with
    one ``VALID``/``INVALID`` line each. Used to attach a real chemistry
    toolkit without making it a dependency of the core.
    """

    def __init__(self, command: Sequence[str], timeout_s: float = 60.0):
        self.command = list(command)
        self.timeout_s = timeout_s

    def validate_many(self, texts: Sequence[str]) -> list[bool]:
        answers = run_lines(self.command, texts, self.timeout_s, "external validator")
        return [line.strip().upper() == "VALID" for line in answers]


# a per-text check, or an external one that answers a whole batch
Validator = Union[Callable[[str], bool], ExternalLineValidator]


def _validate_many(validator: Validator, texts: list[str]) -> list[bool]:
    if isinstance(validator, ExternalLineValidator):
        return validator.validate_many(texts)
    return [validator(t) for t in texts]


# ---------------------------------------------------------------------------
# Hard constraints
# ---------------------------------------------------------------------------


class HardConstraint:
    """Feasibility predicate applied after dedup, before evaluation."""

    def allows(self, candidate: Candidate) -> bool:
        return True


NO_CONSTRAINT = HardConstraint()


class TemplateSimilarityConstraint(HardConstraint):
    """Require similarity of at least ``min_similarity`` to some template.

    Similarity, ``1 - min(1, edits / shorter)``, falls as the edits grow, so
    the rule is asked as ``edits <= most``; ``most`` comes from that float
    expression at each count, and every verdict stays exact. Templates are
    asked latest admitter first, so the one that admitted the last text
    leads: one template tends to admit most texts, and since any one close
    template admits a text, the order changes no verdict.
    """

    def __init__(self, templates: Sequence[Candidate], min_similarity: float):
        if not templates:
            raise ValueError("template constraint needs at least one template")
        if not 0 < min_similarity <= 1:
            raise ValueError("min_similarity must lie in (0, 1]")
        self.templates = list(templates)
        self.min_similarity = min_similarity
        self._masked = [(t.canonical, distance.bit_masks(t.canonical)) for t in self.templates]
        self._most: dict[int, int] = {}

    def _most_edits(self, shorter: int) -> int:
        """The largest edit count that passes at this shorter length."""
        if shorter not in self._most:  # at length 0, two empty texts pass with 0 edits
            rule = [1.0 - min(1.0, e / shorter) >= self.min_similarity for e in range(shorter)]
            self._most[shorter] = max(sum(rule) - 1, 0)  # the passing counts: a prefix
        return self._most[shorter]

    def allows(self, candidate: Candidate) -> bool:
        text = candidate.canonical
        for i, (other, masks) in enumerate(self._masked):
            most = self._most_edits(min(len(text), len(other)))
            # edits >= |len a - len b|: skip a template this bound already rules out
            if abs(len(text) - len(other)) > most:
                continue
            # looked up as the module global, so a wrapper sees every call
            if distance.levenshtein(text, other, masks) <= most:
                self._masked.insert(0, self._masked.pop(i))
                return True
        return False


# ---------------------------------------------------------------------------
# Batch filter
# ---------------------------------------------------------------------------


def filter_batch(
    batch: Sequence[str],
    history: History,
    constraint: HardConstraint,
    domain: "DomainSpec",
) -> FilterReport:
    """Run the full pre-evaluation pipeline over one agent batch.

    Order: validity (exactly one line, then the domain's validator),
    within-batch dedup (first occurrence kept), dedup against history,
    then the hard constraint. Rejects are in batch order.
    Accepted candidates are exactly those the oracle may be charged for.
    """
    accepted: list[Candidate] = []
    rejected: list[Rejection] = []

    canonicals: list[Optional[Candidate]] = []
    to_check: list[str] = []
    check_slots: list[int] = []
    for slot, raw in enumerate(batch):
        try:
            candidate = canonicalize(raw, domain.kind)
        except EmptyCandidate:
            candidate = None
        canonicals.append(candidate)
        # one line only: a line protocol would read a line break as two candidates
        if candidate is not None and candidate.canonical.splitlines() == [candidate.canonical]:
            to_check.append(candidate.canonical)
            check_slots.append(slot)

    verdicts = dict(zip(check_slots, _validate_many(domain.validator, to_check)))

    seen_in_batch: set[str] = set()
    for slot, candidate in enumerate(canonicals):
        if candidate is None or not verdicts.get(slot, False):
            rejected.append(Rejection(REASON_INVALID))
            continue
        if candidate.canonical in seen_in_batch:
            rejected.append(Rejection(REASON_DUP_BATCH))
            continue
        seen_in_batch.add(candidate.canonical)
        if history.contains(candidate.canonical):
            rejected.append(Rejection(REASON_DUP_HISTORY))
            continue
        if not constraint.allows(candidate):
            rejected.append(Rejection(REASON_CONSTRAINT))
            continue
        accepted.append(candidate)
    return FilterReport(accepted=accepted, rejected=rejected)
