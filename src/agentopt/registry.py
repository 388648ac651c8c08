"""Bounded library of natural-language local-search tasks with success stats.

The registry starts from three domain default tasks that are never pruned.
Planner-created tasks compete for the remaining capacity: when full, the
non-default task with the worst success rate is evicted (ties: more attempts
first, then name), which keeps proven tactics and fresh unproven ones alive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownTask

NO_DATA_LINE = "No performance data yet."
SUMMARY_PREVIEW_CHARS = 100


@dataclass
class TaskEntry:
    """One reusable task prompt plus its empirical track record."""

    name: str
    text: str
    attempts: int = 0
    successes: int = 0
    is_default: bool = False

    @property
    def success_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.successes / self.attempts


@dataclass(frozen=True)
class RegistryChange:
    """What ``add_task`` did, for event logging."""

    op: str  # "add" | "replace" | "evict"
    name: str


class TaskRegistry:
    def __init__(self, defaults: list[tuple[str, str]], capacity: int = 20):
        """Create a registry holding exactly the given default tasks.

        ``defaults`` must contain exactly 3 (name, text) pairs; capacity must
        leave room for at least one non-default task.
        """
        if len(defaults) != 3:
            raise ValueError("a domain must provide exactly 3 default tasks")
        if capacity <= len(defaults):
            raise ValueError("capacity must exceed the number of default tasks")
        self.capacity = capacity
        self.entries: dict[str, TaskEntry] = {}
        for name, text in defaults:
            key = name.strip().upper()
            if key in self.entries:
                raise ValueError(f"duplicate default task name: {key}")
            self.entries[key] = TaskEntry(name=key, text=text, is_default=True)
        self.default_names = frozenset(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def get(self, name: str) -> TaskEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise UnknownTask(name) from None

    def record_outcome(self, name: str, success: bool) -> None:
        """Count one execution of ``name``; a success produced an improvement."""
        entry = self.get(name)
        entry.attempts += 1
        if success:
            entry.successes += 1

    def resolve_new_name(self, name: str) -> str:
        """Rename away from default names by appending ``_V2``."""
        key = name.strip().upper()
        if key in self.default_names:
            key = key + "_V2"
        return key

    def add_task(self, name: str, text: str) -> tuple[str, list[RegistryChange]]:
        """Store a task, evicting the worst non-default entry if over capacity.

        A name matching a default is stored under ``<NAME>_V2``. Re-adding an
        existing non-default name replaces its text but keeps its stats.
        Returns the final stored name and the list of changes made.
        """
        if not text.strip():
            raise ValueError("task text must be non-empty")
        key = self.resolve_new_name(name)
        changes: list[RegistryChange] = []
        if key in self.entries:
            self.entries[key].text = text
            changes.append(RegistryChange(op="replace", name=key))
            return key, changes
        self.entries[key] = TaskEntry(name=key, text=text)
        changes.append(RegistryChange(op="add", name=key))
        if len(self.entries) > self.capacity:
            victim = self._eviction_victim(exclude=key)
            del self.entries[victim]
            changes.append(RegistryChange(op="evict", name=victim))
        return key, changes

    def _eviction_victim(self, exclude: str) -> str:
        # Worst success rate goes first; at equal rates the entry with more
        # attempts carries stronger evidence of failure, so it loses.
        candidates = [
            e
            for e in self.entries.values()
            if not e.is_default and e.name != exclude
        ]
        victim = min(candidates, key=lambda e: (e.success_rate, -e.attempts, e.name))
        return victim.name

    def render_performance_stats(self) -> str:
        """Stats block for the planner prompt, most-attempted tasks first."""
        if all(e.attempts == 0 for e in self.entries.values()):
            return NO_DATA_LINE
        ordered = sorted(
            enumerate(self.entries.values()), key=lambda ie: (-ie[1].attempts, ie[0])
        )
        lines = []
        for _, entry in ordered:
            pct = int(entry.success_rate * 100 + 0.5)
            lines.append(f"{entry.name}: {entry.successes}/{entry.attempts} ({pct}%)")
        return "\n".join(lines)

    def render_task_summary(self) -> str:
        """Name plus a 100-character preview of each task's first line."""
        lines = []
        for entry in self.entries.values():
            first_line = entry.text.splitlines()[0] if entry.text else ""
            if len(first_line) > SUMMARY_PREVIEW_CHARS:
                preview = first_line[:SUMMARY_PREVIEW_CHARS] + "..."
            else:
                preview = first_line
            lines.append(f"{entry.name}: {preview}")
        return "\n".join(lines)

    def snapshot(self) -> dict:
        """Checkpoint form: name -> {text, attempts, successes, is_default}."""
        return {
            name: {
                "text": e.text,
                "attempts": e.attempts,
                "successes": e.successes,
                "is_default": e.is_default,
            }
            for name, e in self.entries.items()
        }

    @classmethod
    def restore(cls, snap: dict, capacity: int = 20) -> "TaskRegistry":
        defaults = [
            (name, info["text"]) for name, info in snap.items() if info["is_default"]
        ]
        registry = cls(defaults, capacity=capacity)
        for name, info in snap.items():
            if not info["is_default"]:
                registry.entries[name] = TaskEntry(name=name, text=info["text"])
            entry = registry.entries[name]
            entry.attempts = info["attempts"]
            entry.successes = info["successes"]
        return registry
