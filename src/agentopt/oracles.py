"""The black-box objective boundary.

Built-in synthetic objectives cover the regimes the loop has to survive at
desk scale (easy gradient, hidden structure, near-total plateau); subprocess
and HTTP adapters connect real predictors. Every adapter enforces the same
contract: one finite float per candidate or an ``OracleFailure``.
"""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .backends import post_json
from .core import Candidate, DomainKind, canonicalize
from .errors import BackendUnavailable, BadResponse, EmptyCandidate, InsufficientInit
from .errors import OracleFailure, OracleTimeout


class Oracle:
    """Base oracle: scores candidates and counts calls.

    Call counting is serialized so concurrent evaluation (when a caller
    wants it) cannot corrupt the bookkeeping.
    """

    name = "oracle"

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def _score(self, canonical: str) -> float:
        raise NotImplementedError

    def evaluate(self, candidate: Candidate) -> float:
        return self.evaluate_many([candidate])[0]

    def evaluate_many(self, candidates: Sequence[Candidate]) -> list[float]:
        """Score a batch; every value must be a finite number (a bool is none)."""
        texts = [c.canonical for c in candidates]
        if not texts:
            return []
        scores: list[float] = []
        for text, value in zip(texts, self._score_many(texts), strict=True):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or not math.isfinite(value):
                raise OracleFailure(
                    f"oracle {self.name} returned {value!r} for {text!r}, "
                    f"not a finite number"
                )
            scores.append(float(value))
        with self._lock:
            self.calls += len(texts)
        return scores

    def _score_many(self, texts: list[str]) -> list[float]:
        return [self._score(t) for t in texts]


def _check(name: str, value: Any, *types: type) -> None:
    """Raise ``TypeError`` unless ``value`` is one of ``types``; a bool is no number."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{name} is {value!r}, expected {expected}")


class MotifMatchOracle(Oracle):
    """Similarity to a hidden target via normalized longest common subsequence.

    Scores lie in [0, 1] with 1.0 exactly at the target, which gives the
    loop a smooth, deterministic gradient to climb in tests and demos.
    """

    def __init__(self, target: str):
        super().__init__()
        _check("target", target, str)
        if not target:
            raise ValueError("motif target must be non-empty")
        self.target = target
        self.name = "motif-match"

    def _score(self, canonical: str) -> float:
        lcs = _lcs_length(canonical, self.target)
        return lcs / max(len(canonical), len(self.target))


def _lcs_length(a: str, b: str) -> int:
    """Longest common subsequence length, bit-parallel over ``a``.

    The row update of Allison and Dix (1986) in Hyyrö's form (2004): the
    zero bits of ``v`` mark where the LCS row steps up by one.
    """
    if not a or not b:
        return 0
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    v = mask
    for ch in b:
        u = v & peq.get(ch, 0)
        v = ((v + u) | (v - u)) & mask
    return (~v & mask).bit_count()


class HiddenWeightsOracle(Oracle):
    """Linear score over character counts with optional per-candidate noise.

    Noise, when enabled, is hashed from the candidate text so the oracle
    stays a pure function and full-loop tests remain reproducible.
    """

    def __init__(
        self,
        weights: dict[str, float],
        normalize: bool = True,
        noise_sd: float = 0.0,
        seed: int = 0,
    ):
        super().__init__()
        _check("weights", weights, dict)
        for letter, weight in weights.items():
            _check(f"weights.{letter}", weight, int, float)
        _check("normalize", normalize, bool)
        _check("noise_sd", noise_sd, int, float)
        _check("seed", seed, int)
        self.weights = dict(weights)
        self.normalize = normalize
        self.noise_sd = noise_sd
        self.seed = seed
        self.name = "hidden-weights"

    def _score(self, canonical: str) -> float:
        total = sum(self.weights.get(ch, 0.0) for ch in canonical)
        if self.normalize and canonical:
            total /= len(canonical)
        if self.noise_sd > 0:
            rng = random.Random(_stable_hash(f"{self.seed}:{canonical}"))
            total += rng.gauss(0.0, self.noise_sd)
        return total


class PlateauOracle(Oracle):
    """Deceptive objective: the floor value almost everywhere.

    A hashed ``mass`` fraction of candidates receive a value in (floor,
    floor + 1]; everything else scores exactly the floor. This reproduces
    the zero-signal initialization regime the guard has to escape.
    """

    def __init__(
        self,
        floor: float = 0.0,
        mass: float = 0.01,
        seed: int = 0,
    ):
        super().__init__()
        _check("floor", floor, int, float)
        _check("mass", mass, int, float)
        _check("seed", seed, int)
        if not 0 < mass < 1:
            raise ValueError("mass must lie strictly between 0 and 1")
        self.floor = floor
        self.mass = mass
        self.seed = seed
        self.name = "plateau"

    def _score(self, canonical: str) -> float:
        u = _stable_unit(f"{self.seed}:gate:{canonical}")
        if u >= self.mass:
            return self.floor
        lift = _stable_unit(f"{self.seed}:lift:{canonical}")
        return self.floor + max(lift, 1e-12)


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _stable_unit(text: str) -> float:
    return _stable_hash(text) / 2**64


SYNTHETIC_ORACLES: dict[str, Callable[..., Oracle]] = {
    "motif-match": MotifMatchOracle,
    "hidden-weights": HiddenWeightsOracle,
    "plateau": PlateauOracle,
}


def make_synthetic(name: str, params: dict) -> Oracle:
    try:
        factory = SYNTHETIC_ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown synthetic oracle {name!r}; choose from "
            f"{sorted(SYNTHETIC_ORACLES)}"
        ) from None
    return factory(**params)


def run_lines(
    command: Sequence[str], lines: Sequence[str], timeout_s: float, what: str
) -> list[str]:
    """One stdout line of ``command`` per line of ``lines`` sent to its stdin.

    Raises ``OracleTimeout`` after ``timeout_s``, else ``OracleFailure`` for an
    input that is not one line, a command that cannot start or exits non-zero,
    or a miscount.
    """
    if not lines:
        return []
    for line in lines:
        if line.splitlines() != [line]:
            raise OracleFailure(f"{what} input {line!r} is not exactly one line")
    try:
        proc = subprocess.run(
            command,
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        raise OracleTimeout(f"{what} timed out after {timeout_s}s") from exc
    except OSError as exc:
        raise OracleFailure(f"cannot run {what} command: {exc}") from exc
    if proc.returncode != 0:
        raise OracleFailure(f"{what} exited {proc.returncode}: {proc.stderr.strip()[:200]}")
    answers = proc.stdout.splitlines()
    if len(answers) != len(lines):
        raise OracleFailure(f"{what} answered {len(answers)} lines for {len(lines)} inputs")
    return answers


class SubprocessOracle(Oracle):
    """Line-protocol oracle: N candidate lines on stdin, N score lines back.

    Batched so process startup is amortized across a whole filter-approved
    batch rather than paid per candidate.
    """

    def __init__(
        self,
        command: Sequence[str],
        timeout_s: float = 60.0,
    ):
        super().__init__()
        if not command:
            raise ValueError("subprocess oracle needs a command")
        self.command = list(command)
        self.timeout_s = timeout_s
        self.name = f"subprocess:{Path(command[0]).name}"

    def _score_many(self, texts: list[str]) -> list[float]:
        answers = run_lines(self.command, texts, self.timeout_s, "oracle")
        try:
            return [float(line) for line in answers]
        except ValueError as exc:
            raise OracleFailure(f"unparseable oracle output: {exc}") from exc


class HttpOracle(Oracle):
    """POSTs ``{"candidate": text}`` by ``post_json``, expects ``{"score": number}``."""

    def __init__(self, url: str, timeout_s: float = 60.0):
        super().__init__()
        if not url:
            raise ValueError("http oracle needs a url")
        self.url = url
        self.timeout_s = timeout_s
        self.name = f"http:{url}"

    def _score(self, canonical: str) -> float:
        try:
            response = post_json(self.url, {"candidate": canonical}, self.timeout_s)
        except (BackendUnavailable, BadResponse) as exc:
            import requests  # post_json has imported it already
            timed_out = isinstance(exc.__cause__, requests.Timeout)
            raise (OracleTimeout if timed_out else OracleFailure)(f"oracle {exc}") from exc
        try:
            return response.json()["score"]
        except (ValueError, KeyError, TypeError) as exc:
            raise OracleFailure(f"malformed oracle payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Initialization candidate sources
# ---------------------------------------------------------------------------


def read_candidate_file(path: Path, kind: DomainKind) -> list[Candidate]:
    """Read one candidate per non-blank line, keeping file order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InsufficientInit(f"cannot read init file {path}: {exc}") from exc
    candidates = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            candidates.append(canonicalize(line, kind))
        except EmptyCandidate:
            continue
    return candidates


def mutate_once(parent: str, alphabet: str, rng: random.Random) -> str:
    """Single-position substitution with a uniformly random letter.

    Only letter positions are touched so structural characters (ring digits,
    brackets, bonds) survive mutation of molecule strings.
    """
    positions = [i for i, ch in enumerate(parent) if ch.isalpha()]
    if not positions:
        positions = list(range(len(parent)))
    pos = rng.choice(positions)
    letter = rng.choice(alphabet)
    return parent[:pos] + letter + parent[pos + 1 :]


def template_mutants(
    templates: Sequence[Candidate],
    count: int,
    alphabet: str,
    rng: random.Random,
) -> list[Candidate]:
    """Templates first, then deduplicated single-substitution mutants.

    Returns exactly ``count`` distinct candidates or raises
    ``InsufficientInit`` if the mutation space cannot supply them.
    """
    if not templates:
        raise InsufficientInit("template initialization needs at least one template")
    kind = templates[0].kind
    out: list[Candidate] = []
    seen: set[str] = set()
    for template in templates:
        if template.canonical not in seen and len(out) < count:
            seen.add(template.canonical)
            out.append(template)
    attempts = 0
    limit = max(1000, count * 1000)
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise InsufficientInit(
                f"could not generate {count} distinct init candidates "
                f"after {limit} mutation attempts"
            )
        parent = rng.choice(templates)
        mutant = mutate_once(parent.canonical, alphabet, rng)
        if mutant in seen:
            continue
        seen.add(mutant)
        out.append(canonicalize(mutant, kind))
    return out


class CandidatePool:
    """Uniform sampler used by the zero-signal guard.

    Backed either by a fixed list (a dataset file) or by endless template
    mutation. ``draw`` may return duplicates of earlier draws; the guard
    dedups against history itself. Raises ``InsufficientInit`` when a finite
    pool has been exhausted.
    """

    def __init__(
        self,
        items: Optional[list[Candidate]] = None,
        templates: Optional[list[Candidate]] = None,
        alphabet: str = "",
    ):
        if (items is None) == (templates is None):
            raise ValueError("pool needs exactly one of items or templates")
        self.items = items
        self.templates = templates
        self.alphabet = alphabet
        self._drawn: set[str] = set()

    def draw(self, rng: random.Random) -> Candidate:
        if self.items is not None:
            untried = [c for c in self.items if c.canonical not in self._drawn]
            if not untried:
                raise InsufficientInit("candidate pool exhausted during resampling")
            choice = rng.choice(untried)
            self._drawn.add(choice.canonical)
            return choice
        assert self.templates is not None
        parent = rng.choice(self.templates)
        mutant = mutate_once(parent.canonical, self.alphabet, rng)
        return canonicalize(mutant, parent.kind)
