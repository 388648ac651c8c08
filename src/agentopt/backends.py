"""Chat-completion backends and per-role token accounting.

One interface, several implementations: an HTTP client for any
OpenAI-compatible endpoint, a scripted player for deterministic replay, and
a rule-based mutator that lets the whole loop run at desk scale with no
model at all. The orchestration loop never knows which one it is talking to.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .errors import BackendUnavailable, BadResponse, MalformedScript
from .rng import pack_state, unpack_state

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

    def state(self) -> dict:
        """What a checkpoint stores to resume this backend (nothing by default)."""
        return {}

    def restore(self, state: dict) -> None:
        """Take up the state :meth:`state` returned (a no-op by default)."""


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

    def state(self) -> dict:
        return dict(self._cursor)

    def restore(self, state: dict) -> None:
        self._cursor = {role: int(state[role]) for role in ROLES}


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
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedScript(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:  # a lone surrogate escape decodes, but no log can write it
            json.dumps(entry, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedScript(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
        entries.append(entry)
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

    name = "mutator"
    BATCH_MIN, BATCH_MAX = 5, 10  # candidates per proposal

    def __init__(self, seed: int, alphabet: str = "ACDEFGHIKLMNPQRSTVWY"):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.alphabet = alphabet

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

    def state(self) -> dict:
        return pack_state(self._rng)

    def restore(self, state: dict) -> None:
        self._rng = unpack_state(state)

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
        k = self._rng.randint(self.BATCH_MIN, self.BATCH_MAX)
        candidates = [self._mutate(self._rng.choice(parents)) for _ in range(k)]
        return json.dumps({"candidates": candidates})


RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_RETRIES = 3
RETRY_BACKOFF_MS = 500


def post_json(
    url: str,
    payload: dict,
    timeout_s: float,
    headers: Optional[dict[str, str]] = None,
    max_retries: int = MAX_RETRIES,
    retry_backoff_ms: int = RETRY_BACKOFF_MS,
    on_failed_attempt: Optional[Callable[[], None]] = None,
):
    """POST ``payload`` as JSON and return the 200 response.

    Transport errors and :data:`RETRYABLE_STATUS` are retried with exponential
    backoff, each failure reported to ``on_failed_attempt``, and then raise
    ``BackendUnavailable`` from the last error. Other statuses raise ``BadResponse``.
    """
    import requests  # here, not at the top: it adds about 8 MB to peak RSS

    last_error: Optional[Exception] = None
    for attempt in range(max_retries + 1):
        if attempt:
            time.sleep(retry_backoff_ms * (2 ** (attempt - 1)) / 1000.0)
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=timeout_s)
        except requests.RequestException as exc:
            last_error = exc
        else:
            if response.status_code == 200:
                return response
            if response.status_code not in RETRYABLE_STATUS:
                raise BadResponse(
                    f"HTTP {response.status_code} from {url}: {response.text[:200]}"
                )
            last_error = BackendUnavailable(f"HTTP {response.status_code} from {url}")
        if on_failed_attempt is not None:
            on_failed_attempt()
    raise BackendUnavailable(
        f"gave up on {url} after {max_retries + 1} attempts: {last_error}"
    ) from last_error


class HttpBackend(Backend):
    """Client for OpenAI-compatible ``chat/completions`` endpoints.

    Retries as :func:`post_json` does; a malformed reply raises
    ``BadResponse``. API keys are read from the environment variable named in
    the config, never from config values themselves.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        api_key_env_var: Optional[str] = None,
        max_retries: int = MAX_RETRIES,
        retry_backoff_ms: int = RETRY_BACKOFF_MS,
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
        # requests sets Content-Type itself for a JSON body
        key = self.api_key_env_var and os.environ.get(self.api_key_env_var)
        return {"Authorization": f"Bearer {key}"} if key else {}

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
        start = time.monotonic()
        response = post_json(
            self.endpoint_url,
            self._payload(request),
            self.timeout_s,
            headers=self._headers(),
            max_retries=self.max_retries,
            retry_backoff_ms=self.retry_backoff_ms,
            on_failed_attempt=lambda: self._note_failure(request),
        )
        return self._parse_body(response, int((time.monotonic() - start) * 1000))

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
        try:  # a lone surrogate escape decodes, but no log can write it
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise BadResponse(f"completion content is not UTF-8 text: {exc}") from exc
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

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


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
        return list(self._slots().values())

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

    def _slots(self) -> dict[str, Backend]:
        # the default plus every distinct override, keyed by where the config
        # puts it: two backends of one kind share a name, never a slot
        slots = {"default": self._default}
        for role, backend in self._overrides.items():
            if backend not in slots.values():
                slots[role] = backend
        return slots

    def state(self) -> dict[str, dict]:
        return {slot: backend.state() for slot, backend in self._slots().items()}

    def restore(self, state: dict[str, dict]) -> None:
        for slot, backend in self._slots().items():
            backend.restore(state[slot])
