"""Bounded library of natural-language local-search tasks with success stats.

The registry starts from three domain default tasks that are never pruned.
Planner-created tasks compete for the remaining capacity: when full, the
non-default task with the worst success rate is evicted (ties: more attempts
first, then name), which keeps proven tactics and fresh unproven ones alive.
``apply_plan`` is the one place where a planner's plan changes the library.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import UnknownTask

logger = logging.getLogger(__name__)

USE_EXISTING = "USE_EXISTING"
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

    def add_task(self, name: str, text: str) -> tuple[str, list[RegistryChange]]:
        """Store a task, evicting the worst non-default entry if over capacity.

        A name matching a default gets ``_V2`` appended until it matches none.
        Re-adding an existing non-default name replaces its text but keeps its
        stats. Returns the final stored name and the list of changes made.
        """
        if not text.strip():
            raise ValueError("task text must be non-empty")
        key = name.strip().upper()
        while key in self.default_names:
            key += "_V2"
        if key in self.entries:
            self.entries[key].text = text
            return key, [RegistryChange(op="replace", name=key)]
        self.entries[key] = TaskEntry(name=key, text=text)
        changes = [RegistryChange(op="add", name=key)]
        if len(self.entries) > self.capacity:
            victim = self._eviction_victim(exclude=key)
            del self.entries[victim]
            changes.append(RegistryChange(op="evict", name=victim))
        return key, changes

    def apply_plan(
        self, plan: dict[str, str]
    ) -> tuple[list[TaskEntry], list[RegistryChange]]:
        """Carry out a planner's plan: each name maps to ``USE_EXISTING`` or to
        the text of a task to store through ``add_task``.

        Names are normalized; an empty name or text, or the reuse of a task
        not held before this plan, is dropped with a warning. Returns the
        distinct tasks to run, in plan order and still held after every add
        (the defaults when none is), and the changes the adds made.
        """
        known = set(self.entries)
        names: list[str] = []
        changes: list[RegistryChange] = []
        for raw_name, text in plan.items():
            name = re.sub(r"\s+", "_", raw_name.strip()).upper()
            reuse = text.strip() == USE_EXISTING
            if not name or not text.strip() or (reuse and name not in known):
                logger.warning("dropping plan entry %r: %r", raw_name, text)
            elif reuse:
                names.append(name)
            else:
                name, made = self.add_task(name, text)
                names.append(name)
                changes += made
        # a later add may have evicted a task named earlier
        work = [self.entries[n] for n in dict.fromkeys(names) if n in self.entries]
        return work or [e for e in self.entries.values() if e.is_default], changes

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

