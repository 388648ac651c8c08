"""Typed error hierarchy shared across the engine."""

from __future__ import annotations


class AgentOptError(Exception):
    """Base class for every error raised by this package."""


class EmptyCandidate(AgentOptError):
    """A candidate string was empty or whitespace-only."""


class EmptyHistory(AgentOptError):
    """An operation required a non-empty evaluation history."""


class DuplicateCandidate(AgentOptError):
    """A record with the same canonical text already exists in the history."""


class UnknownTask(AgentOptError):
    """A task name was not found in the task registry."""


class MissingPlaceholder(AgentOptError):
    """A prompt template referenced a placeholder that was not supplied."""


class NoCandidatesFound(AgentOptError):
    """No parseable candidate list could be extracted from an agent reply."""


class NoPlanFound(AgentOptError):
    """No parseable task plan could be extracted from a planner reply."""


class BackendUnavailable(AgentOptError):
    """A chat backend failed permanently (retries exhausted or script drained)."""


class BadResponse(AgentOptError):
    """A chat backend returned a payload that does not match the expected shape."""


class MalformedScript(AgentOptError):
    """A scripted-backend file could not be parsed."""


class OracleFailure(AgentOptError):
    """The objective oracle returned an unusable result."""


class OracleTimeout(OracleFailure):
    """The objective oracle did not answer within its deadline."""


class InsufficientInit(AgentOptError):
    """The initialization source could not supply the requested candidates."""


class BudgetExhaustedDuringInit(AgentOptError):
    """The evaluation budget ran out before initialization finished."""


class CorruptCheckpoint(AgentOptError):
    """A checkpoint and its logs disagree, or one of them is unreadable."""


class ConfigError(AgentOptError):
    """A run configuration failed validation."""
