"""Chat-completion backends and per-role token accounting.

One interface, several implementations: an HTTP client for any
OpenAI-compatible endpoint, a scripted player for deterministic replay, and
a rule-based mutator that lets the whole loop run at desk scale with no
model at all. The orchestration loop never knows which one it is talking to.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import BackendUnavailable, BadResponse, MalformedScript

logger = logging.getLogger(__name__)

ROLES = ("explorer", "planner", "worker")


@dataclass(frozen=True)
class CompletionRequest:
    system: str
    user: str
    agent_role: str
    temperature: float = 0.7
    max_output_tokens: int = 4096

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.agent_role not in ROLES:
            raise ValueError(f"unknown agent role: {self.agent_role!r}")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    input_tokens: int
    output_tokens: int
    latency_ms: int


class TokenLedger:
    """Thread-safe token totals per role and per backend.

    Only the final successful attempt of a call contributes usage; failed
    attempts are tallied separately so retries never double count.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.per_role: dict[str, dict[str, int]] = {}
        self.per_backend: dict[str, dict[str, int]] = {}
        self.failed_attempts: dict[str, int] = {}

    @staticmethod
    def _bump(table: dict, key: str, result: CompletionResult) -> None:
        row = table.setdefault(key, {"input_tokens": 0, "output_tokens": 0, "calls": 0})
        row["input_tokens"] += result.input_tokens
        row["output_tokens"] += result.output_tokens
        row["calls"] += 1

    def record(self, role: str, backend: str, result: CompletionResult) -> None:
        with self._lock:
            self._bump(self.per_role, role, result)
            self._bump(self.per_backend, backend, result)

    def record_failed_attempt(self, role: str, backend: str) -> None:
        with self._lock:
            key = f"{role}/{backend}"
            self.failed_attempts[key] = self.failed_attempts.get(key, 0) + 1

    def report(self) -> dict:
        """Totals per role and per backend, plus the grand total."""
        with self._lock:
            def _totaled(table: dict) -> dict:
                out = {}
                for key, row in table.items():
                    out[key] = dict(row)
                    out[key]["total_tokens"] = row["input_tokens"] + row["output_tokens"]
                return out

            total = {"input_tokens": 0, "output_tokens": 0, "calls": 0}
            for row in self.per_role.values():
                total["input_tokens"] += row["input_tokens"]
                total["output_tokens"] += row["output_tokens"]
                total["calls"] += row["calls"]
            total["total_tokens"] = total["input_tokens"] + total["output_tokens"]
            return {
                "per_role": _totaled(self.per_role),
                "per_backend": _totaled(self.per_backend),
                "total": total,
                "failed_attempts": dict(self.failed_attempts),
            }

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "per_role": {k: dict(v) for k, v in self.per_role.items()},
                "per_backend": {k: dict(v) for k, v in self.per_backend.items()},
                "failed_attempts": dict(self.failed_attempts),
            }

    def restore(self, snap: dict) -> None:
        with self._lock:
            self.per_role = {k: dict(v) for k, v in snap.get("per_role", {}).items()}
            self.per_backend = {
                k: dict(v) for k, v in snap.get("per_backend", {}).items()
            }
            self.failed_attempts = dict(snap.get("failed_attempts", {}))


def _stub_tokens(system: str, user: str, reply: str) -> tuple[int, int]:
    # Rough whitespace-token estimate; only used by backends with no real
    # usage reporting. Deterministic so replays stay byte-identical.
    input_tokens = len(system.split()) + len(user.split())
    return input_tokens, max(1, len(reply.split()))


class Backend:
    """Abstract chat completion: (system, user) in, reply plus usage out."""

    name = "backend"

    def complete(self, request: CompletionRequest) -> CompletionResult:
        raise NotImplementedError

    def seek(self, positions: dict[str, int]) -> None:
        """Fast-forward internal per-role state on resume (no-op by default)."""

    def positions(self) -> dict[str, int]:
        """Per-role call counters to store in checkpoints."""
        return {}


class ScriptedBackend(Backend):
    """Replays canned replies in order, one queue per agent role."""

    def __init__(self, entries: list[dict], name: str = "scripted"):
        self.name = name
        self._lock = threading.Lock()
        self._queues: dict[str, list[dict]] = {role: [] for role in ROLES}
        self._cursor: dict[str, int] = {role: 0 for role in ROLES}
        for n, entry in enumerate(entries, start=1):
            match = entry.get("match")
            if not isinstance(match, dict) or match.get("role") not in ROLES:
                raise MalformedScript(f"entry {n}: match.role must be one of {ROLES}")
            if not isinstance(entry.get("reply"), str):
                raise MalformedScript(f"entry {n}: reply must be a string")
            role = match["role"]
            nth = match.get("nth_call")
            if nth is not None and nth != len(self._queues[role]) + 1:
                raise MalformedScript(
                    f"entry {n}: nth_call {nth} out of order for role {role}"
                )
            self._queues[role].append(entry)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        role = request.agent_role
        with self._lock:
            cursor = self._cursor[role]
            queue = self._queues[role]
            if cursor >= len(queue):
                raise BackendUnavailable(
                    f"script exhausted for role {role} after {cursor} calls"
                )
            entry = queue[cursor]
            self._cursor[role] = cursor + 1
        reply = entry["reply"]
        usage = entry.get("usage", {})
        default_in, default_out = _stub_tokens(request.system, request.user, reply)
        return CompletionResult(
            text=reply,
            input_tokens=int(usage.get("input_tokens", default_in)),
            output_tokens=int(usage.get("output_tokens", default_out)),
            latency_ms=0,
        )

    def seek(self, positions: dict[str, int]) -> None:
        for role, count in positions.items():
            if role in self._cursor:
                self._cursor[role] = count

    def positions(self) -> dict[str, int]:
        return dict(self._cursor)


def scripted_load(path: Path) -> ScriptedBackend:
    """Load a scripted backend from a JSONL file of ``{match, reply}`` rows."""
    entries = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedScript(f"cannot read script {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise MalformedScript(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not entries:
        raise MalformedScript(f"script {path} is empty")
    return ScriptedBackend(entries, name=f"scripted:{Path(path).name}")


_SCORE_LINE = re.compile(r"^\s*[-+0-9][0-9.eE+-]*:\s+(\S+)\s*$")
_INPUT_LINE = re.compile(r"^Input [A-Za-z]+: (\S+)$", re.MULTILINE)
_TASK_NAME_LINE = re.compile(r"^([A-Z][A-Z0-9_]+): ", re.MULTILINE)


class MutatorBackend(Backend):
    """Deterministic rule-based agent stand-in.

    Scrapes candidate strings out of the prompt (the ``score: candidate``
    context lines and the worker's ``Input X:`` line), applies seeded random
    edits, and answers with a well-formed candidates JSON object. Lets full
    optimization runs execute without any model while still exercising every
    parser and filter on the way.
    """

    def __init__(
        self,
        seed: int,
        alphabet: str = "ACDEFGHIKLMNPQRSTVWY",
        batch_min: int = 5,
        batch_max: int = 10,
        name: str = "mutator",
    ):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.alphabet = alphabet
        self.batch_min = batch_min
        self.batch_max = batch_max
        self.name = name

    def _mutate(self, parent: str) -> str:
        rng = self._rng
        chars = list(parent)
        for _ in range(rng.randint(1, 3)):
            op = rng.random()
            if op < 0.5 or len(chars) < 2:
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice(self.alphabet)
            elif op < 0.75:
                pos = rng.randrange(len(chars) + 1)
                chars.insert(pos, rng.choice(self.alphabet))
            elif len(chars) > 2:
                del chars[rng.randrange(len(chars))]
        return "".join(chars)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        text = request.system + "\n" + request.user
        with self._lock:  # the seeded RNG is the only shared state
            if request.agent_role == "planner":
                reply = self._plan(text)
            else:
                reply = self._propose(text)
        input_tokens, output_tokens = _stub_tokens(request.system, request.user, reply)
        return CompletionResult(reply, input_tokens, output_tokens, latency_ms=0)

    def _plan(self, text: str) -> str:
        # reuse task names visible in the prompt's registry blocks; unknown
        # captures (section labels etc.) are dropped by the reply parser
        names = list(dict.fromkeys(_TASK_NAME_LINE.findall(text)))
        return json.dumps({name: "USE_EXISTING" for name in names[:3]})

    def _propose(self, text: str) -> str:
        parents = [m.group(1) for m in _INPUT_LINE.finditer(text)]
        for line in text.splitlines():
            m = _SCORE_LINE.match(line)
            if m:
                parents.append(m.group(1))
        if not parents:
            parents = ["".join(self._rng.choices(self.alphabet, k=10))]
        k = self._rng.randint(self.batch_min, self.batch_max)
        candidates = [self._mutate(self._rng.choice(parents)) for _ in range(k)]
        return json.dumps({"candidates": candidates})


class HttpBackend(Backend):
    """Client for OpenAI-compatible ``chat/completions`` endpoints.

    Retries transport errors, 429s, and 5xx responses with exponential
    backoff; anything else malformed raises ``BadResponse`` immediately. API
    keys are read from the environment variable named in the config, never
    from config values themselves.
    """

    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        api_key_env_var: Optional[str] = None,
        max_retries: int = 3,
        retry_backoff_ms: int = 500,
        timeout_s: float = 300.0,
        ledger: Optional[TokenLedger] = None,
        name: Optional[str] = None,
    ):
        if not endpoint_url or not model_name:
            raise ValueError("http backend requires endpoint_url and model_name")
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.api_key_env_var = api_key_env_var
        self.max_retries = max_retries
        self.retry_backoff_ms = retry_backoff_ms
        self.timeout_s = timeout_s
        self.ledger = ledger
        self.name = name or f"http:{model_name}"

    def _headers(self) -> dict[str, str]:
        import os

        headers = {"Content-Type": "application/json"}
        if self.api_key_env_var:
            key = os.environ.get(self.api_key_env_var)
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    def _payload(self, request: CompletionRequest) -> dict:
        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.user})
        return {
            "model": self.model_name,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }

    def complete(self, request: CompletionRequest) -> CompletionResult:
        import requests

        payload = self._payload(request)
        last_error: Optional[Exception] = None
        start = time.monotonic()
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = self.retry_backoff_ms * (2 ** (attempt - 1)) / 1000.0
                time.sleep(delay)
            try:
                response = requests.post(
                    self.endpoint_url,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout_s,
                )
            except requests.RequestException as exc:
                last_error = exc
                self._note_failure(request)
                continue
            if response.status_code in self.RETRYABLE_STATUS:
                last_error = BackendUnavailable(
                    f"HTTP {response.status_code} from {self.endpoint_url}"
                )
                self._note_failure(request)
                continue
            if response.status_code != 200:
                raise BadResponse(
                    f"HTTP {response.status_code} from {self.endpoint_url}: "
                    f"{response.text[:200]}"
                )
            latency_ms = int((time.monotonic() - start) * 1000)
            return self._parse_body(response, latency_ms)
        raise BackendUnavailable(
            f"gave up on {self.endpoint_url} after {self.max_retries + 1} attempts: "
            f"{last_error}"
        )

    def _note_failure(self, request: CompletionRequest) -> None:
        if self.ledger is not None:
            self.ledger.record_failed_attempt(request.agent_role, self.name)

    def _parse_body(self, response, latency_ms: int) -> CompletionResult:
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BadResponse(f"malformed completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise BadResponse("completion content is not a string")
        usage = body.get("usage") or {}
        return CompletionResult(
            text=text,
            input_tokens=int(usage.get("prompt_tokens", 0)),
            output_tokens=int(usage.get("completion_tokens", 0)),
            latency_ms=latency_ms,
        )


@dataclass
class RoleSettings:
    temperature: float = 0.7
    max_output_tokens: int = 4096


class RoleRouter:
    """Routes each agent role to its backend and books usage into the ledger.

    Per-role routing is first-class: planning and exploration typically run
    on a stronger model while the many worker calls go to a cheaper one.
    """

    def __init__(
        self,
        ledger: TokenLedger,
        default: Backend,
        overrides: Optional[dict[str, Backend]] = None,
        settings: Optional[dict[str, RoleSettings]] = None,
    ):
        self.ledger = ledger
        self._default = default
        self._overrides = overrides or {}
        self._settings = settings or {}

    def backend_for(self, role: str) -> Backend:
        return self._overrides.get(role, self._default)

    def backends(self) -> list[Backend]:
        seen: list[Backend] = []
        for backend in [self._default, *self._overrides.values()]:
            if backend not in seen:
                seen.append(backend)
        return seen

    def complete(self, role: str, system: str, user: str) -> CompletionResult:
        settings = self._settings.get(role, RoleSettings())
        request = CompletionRequest(
            system=system,
            user=user,
            agent_role=role,
            temperature=settings.temperature,
            max_output_tokens=settings.max_output_tokens,
        )
        backend = self.backend_for(role)
        result = backend.complete(request)
        self.ledger.record(role, backend.name, result)
        return result

    def positions(self) -> dict[str, dict[str, int]]:
        return {b.name: b.positions() for b in self.backends() if b.positions()}

    def seek(self, positions: dict[str, dict[str, int]]) -> None:
        for backend in self.backends():
            if backend.name in positions:
                backend.seek(positions[backend.name])
