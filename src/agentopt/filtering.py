"""Pre-oracle candidate filtering: validity, dedup, and hard constraints.

Everything here runs before any oracle call, so the evaluation budget is
never spent on malformed strings, repeats, or infeasible designs. Duplicates
of already-scored candidates are rejected with their memoized score attached
so the loop can surface the known value instead of re-paying for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core import Candidate, History, canonicalize
from .distance import similarity
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
    raw: str
    reason: str
    memo_score: Optional[float] = None  # set for duplicate_in_history


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

    def __call__(self, text: str) -> bool:
        return self.validate_many([text])[0]


Validator = Callable[[str], bool]


def _validate_many(validator: Validator, texts: list[str]) -> list[bool]:
    bulk = getattr(validator, "validate_many", None)
    if bulk is not None:
        return bulk(texts)
    return [validator(t) for t in texts]


# ---------------------------------------------------------------------------
# Hard constraints
# ---------------------------------------------------------------------------


class HardConstraint:
    """Feasibility predicate applied after dedup, before evaluation."""

    kind = "none"

    def allows(self, candidate: Candidate) -> bool:
        return True


NO_CONSTRAINT = HardConstraint()


class TemplateSimilarityConstraint(HardConstraint):
    """Require similarity of at least ``min_similarity`` to some template."""

    kind = "template_similarity"

    def __init__(self, templates: Sequence[Candidate], min_similarity: float):
        if not templates:
            raise ValueError("template constraint needs at least one template")
        if not 0 < min_similarity <= 1:
            raise ValueError("min_similarity must lie in (0, 1]")
        self.templates = list(templates)
        self.min_similarity = min_similarity

    def allows(self, candidate: Candidate) -> bool:
        text = candidate.canonical
        for template in self.templates:
            shorter = min(len(text), len(template.canonical))
            # edits >= |len a - len b|: skip a template this bound already rules out
            gap = abs(len(text) - len(template.canonical))
            if shorter and 1.0 - min(1.0, gap / shorter) < self.min_similarity:
                continue
            if similarity(text, template.canonical) >= self.min_similarity:
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
    within-batch dedup (first occurrence kept), dedup against history
    (rejects carry the memoized score), then the hard constraint.
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
    for slot, raw in enumerate(batch):
        candidate = canonicals[slot]
        if candidate is None or not verdicts.get(slot, False):
            rejected.append(Rejection(raw=raw, reason=REASON_INVALID))
            continue
        if candidate.canonical in seen_in_batch:
            rejected.append(Rejection(raw=raw, reason=REASON_DUP_BATCH))
            continue
        seen_in_batch.add(candidate.canonical)
        memo = history.score_of(candidate.canonical)
        if memo is not None:
            rejected.append(
                Rejection(raw=raw, reason=REASON_DUP_HISTORY, memo_score=memo)
            )
            continue
        if not constraint.allows(candidate):
            rejected.append(Rejection(raw=raw, reason=REASON_CONSTRAINT))
            continue
        accepted.append(candidate)
    return FilterReport(accepted=accepted, rejected=rejected)
