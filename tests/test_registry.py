from __future__ import annotations

import itertools
import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentopt.errors import UnknownTask
from agentopt.registry import NO_DATA_LINE, TaskEntry, TaskRegistry


def small_registry(capacity: int = 20) -> TaskRegistry:
    return TaskRegistry(
        [("SIMILAR", "TASK: similar."), ("EXPLORE", "TASK: explore."), ("SHUFFLE", "TASK: shuffle.")],
        capacity=capacity,
    )


# -- init ---------------------------------------------------------------------


def test_peptide_defaults(peptide_domain):
    registry = TaskRegistry(peptide_domain.default_tasks)
    assert set(registry.entries) == {"SIMILAR", "EXPLORE", "SHUFFLE"}
    assert all(e.is_default for e in registry.entries.values())
    assert all(e.attempts == 0 and e.successes == 0 for e in registry.entries.values())


def test_molecule_defaults(smiles_domain):
    registry = TaskRegistry(smiles_domain.default_tasks)
    assert set(registry.entries) == {"SIMILAR", "EXPLORE", "SCAFFOLD_HOP"}


def test_fresh_success_rate_is_zero():
    registry = small_registry()
    assert registry.get("SIMILAR").success_rate == 0.0


def test_requires_exactly_three_defaults():
    with pytest.raises(ValueError):
        TaskRegistry([("A", "x"), ("B", "y")])


def test_capacity_must_exceed_defaults():
    with pytest.raises(ValueError):
        small_registry(capacity=3)


# -- record_outcome -----------------------------------------------------------


def test_record_outcome_counts():
    registry = small_registry()
    entry = registry.get("SIMILAR")
    entry.attempts, entry.successes = 9, 3
    registry.record_outcome("SIMILAR", True)
    assert (entry.attempts, entry.successes) == (10, 4)
    registry.record_outcome("EXPLORE", False)
    assert (registry.get("EXPLORE").attempts, registry.get("EXPLORE").successes) == (1, 0)


def test_record_outcome_unknown_task():
    with pytest.raises(UnknownTask):
        small_registry().record_outcome("GHOST", True)


# -- add_task -------------------------------------------------------------------


def test_add_task_grows_registry_without_eviction():
    registry = small_registry()
    name, changes = registry.add_task("RIGIDIFY", "TASK: rigidify.")
    assert name == "RIGIDIFY"
    assert [c.op for c in changes] == ["add"]
    assert len(registry) == 4


def test_add_task_renames_default_collisions():
    registry = small_registry()
    name, _ = registry.add_task("SIMILAR", "TASK: an improved similar.")
    assert name == "SIMILAR_V2"
    assert registry.get("SIMILAR").text == "TASK: similar."  # default untouched


def test_readding_nondefault_replaces_text_keeps_stats():
    registry = small_registry()
    registry.add_task("RIGIDIFY", "TASK: v1")
    registry.record_outcome("RIGIDIFY", True)
    name, changes = registry.add_task("RIGIDIFY", "TASK: v2")
    assert name == "RIGIDIFY"
    assert [c.op for c in changes] == ["replace"]
    entry = registry.get("RIGIDIFY")
    assert entry.text == "TASK: v2"
    assert (entry.attempts, entry.successes) == (1, 1)


def test_eviction_removes_worst_nondefault():
    registry = small_registry(capacity=5)
    registry.add_task("GOOD_ONE", "TASK: works")
    registry.add_task("RING_EXPANSION", "TASK: ring expansion")
    for _ in range(4):
        registry.record_outcome("GOOD_ONE", True)
    for _ in range(6):
        registry.record_outcome("RING_EXPANSION", False)
    # capacity 5 full; RING_EXPANSION at 0/6 (0%) is the worst performer
    name, changes = registry.add_task("FRESH", "TASK: fresh idea")
    assert name == "FRESH"
    assert {c.op for c in changes} == {"add", "evict"}
    assert "RING_EXPANSION" not in registry.entries
    assert "FRESH" in registry.entries
    assert len(registry) == 5


def test_eviction_tie_break_prefers_more_attempts():
    registry = small_registry(capacity=5)
    registry.add_task("SIX_TRIES", "TASK: a")
    registry.add_task("TWO_TRIES", "TASK: b")
    for _ in range(6):
        registry.record_outcome("SIX_TRIES", False)
    for _ in range(2):
        registry.record_outcome("TWO_TRIES", False)
    registry.add_task("NEWCOMER", "TASK: c")
    assert "SIX_TRIES" not in registry.entries
    assert "TWO_TRIES" in registry.entries


def test_eviction_order_matches_stated_tie_break_oracle():
    # enumerate candidate stats in all orders and check against the rule:
    # lowest success rate first, then more attempts, then lexicographic name
    stats = [("ALPHA", 2, 0), ("BRAVO", 6, 0), ("CHARLIE", 6, 3), ("DELTA", 1, 1)]
    for perm in itertools.permutations(stats):
        registry = small_registry(capacity=7)
        for name, attempts, successes in perm:
            registry.add_task(name, f"TASK: {name.lower()}")
            entry = registry.get(name)
            entry.attempts, entry.successes = attempts, successes
        expected = min(
            perm, key=lambda s: (s[2] / s[1] if s[1] else 0.0, -s[1], s[0])
        )[0]
        registry.add_task("ZZ_NEW", "TASK: new")
        assert expected not in registry.entries
        assert len(registry) == 7


def test_defaults_never_pruned_under_churn():
    registry = small_registry(capacity=5)
    for i in range(30):
        registry.add_task(f"T{i:02d}", f"TASK: t{i}")
        assert len(registry) <= 5
        assert {"SIMILAR", "EXPLORE", "SHUFFLE"} <= set(registry.entries)


# -- rendering ------------------------------------------------------------------


def test_fresh_registry_renders_no_data_line():
    assert small_registry().render_performance_stats() == NO_DATA_LINE
    assert NO_DATA_LINE == "No performance data yet."


def test_stats_ordering_and_percent_format():
    registry = small_registry()
    a = registry.get("SIMILAR")
    a.attempts, a.successes = 42, 15
    b = registry.get("EXPLORE")
    b.attempts, b.successes = 14, 6
    lines = registry.render_performance_stats().splitlines()
    assert lines[0] == "SIMILAR: 15/42 (36%)"
    assert lines[1] == "EXPLORE: 6/14 (43%)"
    assert lines[2] == "SHUFFLE: 0/0 (0%)"


def test_stats_percent_rounds_half_up():
    registry = small_registry()
    entry = registry.get("SIMILAR")
    entry.attempts, entry.successes = 8, 1  # 12.5%
    assert "SIMILAR: 1/8 (13%)" in registry.render_performance_stats()


def test_summary_short_text_has_no_ellipsis():
    registry = small_registry()
    text_40 = "TASK: " + "x" * 34
    registry.add_task("SHORTY", text_40)
    line = [
        l for l in registry.render_task_summary().splitlines() if l.startswith("SHORTY")
    ][0]
    assert line == f"SHORTY: {text_40}"
    assert "..." not in line


def test_summary_truncates_to_100_chars():
    registry = small_registry()
    text_250 = "T" * 250
    registry.add_task("LONGY", text_250)
    line = [
        l for l in registry.render_task_summary().splitlines() if l.startswith("LONGY")
    ][0]
    prefix = line[len("LONGY: "):]
    assert prefix == text_250[:100] + "..."


def test_summary_considers_only_first_line():
    registry = small_registry()
    text = "first line of the task\nsecond line should not appear"
    registry.add_task("MULTI", text)
    line = [
        l for l in registry.render_task_summary().splitlines() if l.startswith("MULTI")
    ][0]
    # string-slicing oracle: name, colon, first line clipped at 100 chars
    first = text.splitlines()[0]
    expected = first[:100] + ("..." if len(first) > 100 else "")
    assert line == f"MULTI: {expected}"
    assert "second line" not in line


# -- apply_plan -------------------------------------------------------------------


def work_names(registry: TaskRegistry, plan: dict) -> list[str]:
    return [entry.name for entry in registry.apply_plan(plan)[0]]


def test_apply_plan_mixed_reuse_and_create():
    registry = small_registry()
    work, changes = registry.apply_plan(
        {"SIMILAR": "USE_EXISTING", "FUSER": "TASK: fuse adjacent rings."}
    )
    assert [e.name for e in work] == ["SIMILAR", "FUSER"]
    assert [(c.op, c.name) for c in changes] == [("add", "FUSER")]
    assert registry.get("FUSER").text == "TASK: fuse adjacent rings."


def test_apply_plan_preserves_order_of_nine():
    names = [f"task {i}" for i in range(9)]
    plan = {name: f"TASK: body {i}" for i, name in enumerate(names)}
    assert work_names(small_registry(), plan) == [f"TASK_{i}" for i in range(9)]


def test_apply_plan_drops_empty_entries_and_unknown_reuse_with_a_warning(caplog):
    registry = small_registry()
    plan = {"  ": "TASK: nameless", "BLANK": " \n", "GHOST": " USE_EXISTING "}
    with caplog.at_level(logging.WARNING, logger="agentopt.registry"):
        work, changes = registry.apply_plan(plan)
    assert [e.name for e in work] == ["SIMILAR", "EXPLORE", "SHUFFLE"]
    assert changes == []
    assert len(caplog.records) == 3


def test_apply_plan_reuse_counts_only_tasks_held_before_the_plan():
    # "b" is unknown when the plan starts, so it does not put B ahead of SIMILAR
    plan = {"b": "USE_EXISTING", "SIMILAR": "USE_EXISTING", "B": "TASK: b"}
    assert work_names(small_registry(), plan) == ["SIMILAR", "B"]


def test_apply_plan_drops_a_task_a_later_add_evicted():
    registry = small_registry(capacity=4)
    registry.add_task("OLD", "TASK: old")
    registry.record_outcome("OLD", False)
    work, changes = registry.apply_plan({"OLD": "USE_EXISTING", "NEW": "TASK: new"})
    assert [e.name for e in work] == ["NEW"]
    assert [(c.op, c.name) for c in changes] == [("add", "NEW"), ("evict", "OLD")]


def test_add_task_renames_until_no_default_matches():
    registry = TaskRegistry(
        [("A", "TASK: a."), ("A_V2", "TASK: a2."), ("B", "TASK: b.")], capacity=5
    )
    assert registry.add_task("a", "TASK: new a")[0] == "A_V2_V2"
    assert registry.get("A_V2").text == "TASK: a2."


def reference_apply(registry: TaskRegistry, plan: dict) -> tuple[list, list]:
    """The plan pipeline before ``apply_plan``: the reply parser turned the plan
    into directives against the registry as it stood, renaming creates that
    clash with a default; the engine then stored each create (renaming once
    more), and deduped and filtered the named tasks."""
    directives = []
    for raw_name, value in plan.items():
        name = re.sub(r"\s+", "_", raw_name.strip()).upper()
        if not name:
            continue
        if value.strip() == "USE_EXISTING":
            if name in registry:
                directives.append((name, None))
        elif value.strip():
            renamed = name + "_V2" if name in registry.default_names else name
            directives.append((renamed, value))
    named, changes = [], []
    for name, text in directives:
        if text is not None:
            if name in registry.default_names:
                name += "_V2"
            if name in registry.entries:
                registry.entries[name].text = text
                changes.append(("replace", name))
            else:
                registry.entries[name] = TaskEntry(name=name, text=text)
                changes.append(("add", name))
                if len(registry.entries) > registry.capacity:
                    victim = registry._eviction_victim(exclude=name)
                    del registry.entries[victim]
                    changes.append(("evict", victim))
        named.append(name)
    work = [n for n in dict.fromkeys(named) if n in registry.entries]
    return work or [e.name for e in registry.entries.values() if e.is_default], changes


# Bases include a default and its _V2 so the double rename shows; no three
# defaults form a chain X, X_V2, X_V2_V2, where the old pipeline overwrote a
# default's text.
BASES = ["SIMILAR", "EXPLORE", "SHUFFLE", "SHUFFLE_V2", "NEW", "FRESH_IDEA", "OLD"]


@st.composite
def plan_names(draw) -> str:
    words = draw(st.sampled_from(BASES + ["", "fresh idea"])).split("_")
    words = [draw(st.sampled_from([w, w.lower(), w.capitalize()])) for w in words]
    gap = draw(st.sampled_from(["_", " ", "  ", "\t"]))
    pad = draw(st.sampled_from(["", " ", "\n "]))
    return pad + gap.join(words) + pad


PLAN_VALUES = st.sampled_from(
    ["USE_EXISTING", "  USE_EXISTING\n", "", "   ", "TASK: one.", "TASK: two.\nmore"]
)


def registry_holding(
    defaults: list[str], extras: list[tuple[str, int, int]], capacity: int
) -> TaskRegistry:
    """The defaults, then each extra ``(name, successes, failures)`` with its stats."""
    registry = TaskRegistry([(name, f"TASK: {name}") for name in defaults], capacity=capacity)
    for name, successes, failures in extras:
        if name not in registry:
            registry.entries[name] = TaskEntry(
                name=name, text="TASK: extra", attempts=successes + failures, successes=successes
            )
    return registry


def entries(registry: TaskRegistry) -> list[tuple]:
    return [
        (e.name, e.text, e.attempts, e.successes, e.is_default)
        for e in registry.entries.values()
    ]


@settings(max_examples=300, deadline=None)
@given(
    defaults=st.lists(st.sampled_from(BASES[:5]), min_size=3, max_size=3, unique=True),
    capacity=st.integers(4, 7),
    extras=st.lists(
        st.tuples(st.sampled_from(BASES[4:] + ["SPARE"]), st.integers(0, 3), st.integers(0, 3)),
        max_size=4,
        unique_by=lambda t: t[0],
    ),
    plan=st.lists(st.tuples(plan_names(), PLAN_VALUES), max_size=8),
)
def test_apply_plan_matches_the_old_parse_then_apply_pipeline(
    defaults, capacity, extras, plan
):
    plan = dict(plan)  # as JSON decodes it: a repeated key keeps its first place
    registry = registry_holding(defaults, extras[: capacity - 3], capacity)
    reference = registry_holding(defaults, extras[: capacity - 3], capacity)
    work, changes = registry.apply_plan(plan)
    want_work, want_changes = reference_apply(reference, plan)
    assert [e.name for e in work] == want_work
    assert [(c.op, c.name) for c in changes] == want_changes
    assert entries(registry) == entries(reference)


# -- invariants -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=60))
def test_random_operation_sequences_preserve_invariants(ops):
    registry = small_registry(capacity=6)
    rng = random.Random(0)

    def successes_total() -> int:
        return sum(e.successes for e in registry.entries.values())

    for op_id, flag in ops:
        before = successes_total()
        if op_id <= 2:
            names = list(registry.entries)
            name = names[rng.randrange(len(names))]
            registry.record_outcome(name, flag)
            # no lost updates: each recorded success lands exactly once
            assert successes_total() == before + int(flag)
        else:
            _, changes = registry.add_task(f"GEN_{rng.randrange(10)}", "TASK: generated")
            if not any(c.op == "evict" for c in changes):
                assert successes_total() == before
        assert len(registry) <= 6
        assert {"SIMILAR", "EXPLORE", "SHUFFLE"} <= set(registry.entries)
        for entry in registry.entries.values():
            assert entry.successes <= entry.attempts
