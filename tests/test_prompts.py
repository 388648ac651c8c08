from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentopt.core import Direction, ObjectiveSpec
from agentopt.errors import (
    ConfigError,
    MissingPlaceholder,
    NoCandidatesFound,
    NoPlanFound,
)
from agentopt.prompts import (
    build_explorer_prompt,
    build_planner_prompt,
    build_worker_prompts,
    load_prompt_pack,
    parse_candidates,
    parse_planner_reply,
    render_template,
)
from agentopt.registry import TaskRegistry


def objective(description=None):
    return ObjectiveSpec(
        direction=Direction.MAXIMIZE, budget=100, description=description
    )


# -- template loading ---------------------------------------------------------


def test_load_prompt_pack_missing_file_names_the_path(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_prompt_pack(tmp_path)
    assert str(tmp_path / "explorer.txt") in str(err.value)


def test_render_template_unknown_placeholder():
    with pytest.raises(MissingPlaceholder):
        render_template("hello {who}", {})


def test_render_template_leaves_literal_braces_alone():
    template = 'object: { "candidates": ["A", "B"] } and {name}'
    out = render_template(template, {"name": "X"})
    assert out == 'object: { "candidates": ["A", "B"] } and X'


# -- prompt building ------------------------------------------------------------


def test_explorer_prompt_molecule_headers(smiles_domain):
    prompt = build_explorer_prompt(
        smiles_domain.prompt_pack, "0.5: CCO", "0.5000", objective()
    )
    assert "## MOLECULE-SCORE DATA (sorted high to low)" in prompt
    assert "0.5: CCO" in prompt
    assert "BEAT the current best score (0.5000)" in prompt


def test_explorer_prompt_peptide_direction_language(peptide_domain):
    prompt = build_explorer_prompt(
        peptide_domain.prompt_pack, "85.12: KLLKIRRLWF", "85.12", objective()
    )
    assert "LOWER MIC = BETTER" in prompt
    assert "sorted best to worst, LOWEST MIC first" in prompt


def test_task_awareness_description_included_verbatim(smiles_domain):
    description = "Maximize similarity to the reference while keeping 3 rings."
    prompt = build_explorer_prompt(
        smiles_domain.prompt_pack, "0.5: CCO", "0.5000", objective(description)
    )
    assert description in prompt
    without = build_explorer_prompt(
        smiles_domain.prompt_pack, "0.5: CCO", "0.5000", objective()
    )
    assert description not in without


def test_planner_prompt_embeds_all_blocks(smiles_domain):
    registry = TaskRegistry(smiles_domain.default_tasks)
    prompt = build_planner_prompt(
        smiles_domain.prompt_pack,
        "0.5: CCO",
        registry.render_performance_stats(),
        registry.render_task_summary(),
        objective(),
    )
    assert "No performance data yet." in prompt
    assert "Include 2-3 EXPLOITATION tasks" in prompt
    assert "Output **8-10 tasks total**" in prompt
    assert "SCAFFOLD_HOP: TASK: Generate scaffold hopping variations" in prompt


def test_planner_prompt_task_awareness(peptide_domain):
    registry = TaskRegistry(peptide_domain.default_tasks)
    description = "Minimize predicted activity concentration across the panel."
    prompt = build_planner_prompt(
        peptide_domain.prompt_pack, "85.12: KLLK", "No performance data yet.",
        registry.render_task_summary(), objective(description),
    )
    assert description in prompt


def test_worker_prompts_compose_prefix_task_suffix(peptide_domain):
    shuffle_text = dict(peptide_domain.default_tasks)["SHUFFLE"]
    system, user = build_worker_prompts(
        peptide_domain.prompt_pack, shuffle_text, "KLWRKLLR"
    )
    assert system.startswith("You are an expert peptide generator")
    assert "reversing short segments" in system
    assert system.endswith("peptide sequences called 'candidates'.")
    assert user == "Input Peptide: KLWRKLLR\nModify it to generate 5-10 new peptides."


def test_worker_prompt_molecule_user_line(smiles_domain):
    similar_text = dict(smiles_domain.default_tasks)["SIMILAR"]
    system, user = build_worker_prompts(smiles_domain.prompt_pack, similar_text, "CCO")
    assert "Input Molecule: CCO" in user
    assert "Modify it to generate 5-10 VALID SMILES strings." in user
    assert "expert molecule generator" in system


def test_same_task_different_seeds_share_system_prompt(peptide_domain):
    text = dict(peptide_domain.default_tasks)["SIMILAR"]
    sys_a, user_a = build_worker_prompts(peptide_domain.prompt_pack, text, "KLWRKLLR")
    sys_b, user_b = build_worker_prompts(peptide_domain.prompt_pack, text, "RRLLWWKK")
    assert sys_a == sys_b
    assert user_a != user_b


def test_prompt_building_is_pure(smiles_domain):
    args = (smiles_domain.prompt_pack, "0.9: CC", "0.9000", objective("desc"))
    assert build_explorer_prompt(*args) == build_explorer_prompt(*args)


# -- parse_candidates -----------------------------------------------------------


def test_parse_clean_json():
    assert parse_candidates('{"candidates": ["ACDE", "KKLL"]}') == ["ACDE", "KKLL"]


def test_parse_json_in_code_fence_with_prose():
    reply = 'Reasoning about it...\n```json\n{"candidates": ["CCO"]}\n```\nDone.'
    assert parse_candidates(reply) == ["CCO"]


def test_parse_takes_last_object_when_multiple():
    reply = (
        'Draft: {"candidates": ["OLD"]} hmm, actually no.\n'
        'Final answer: {"candidates": ["NEW1", "NEW2"]}'
    )
    assert parse_candidates(reply) == ["NEW1", "NEW2"]


def test_parse_skips_non_conforming_objects():
    reply = '{"notes": "x"} then {"candidates": ["AB"]} and {"other": 1}'
    assert parse_candidates(reply) == ["AB"]


def test_parse_drops_empty_and_nonstring_items():
    reply = '{"candidates": ["GOOD", "", "   ", 42, null, "ALSO"]}'
    assert parse_candidates(reply) == ["GOOD", "ALSO"]


def test_parse_no_json_raises():
    with pytest.raises(NoCandidatesFound):
        parse_candidates("no json here")


def test_parse_empty_list_is_not_an_error():
    assert parse_candidates('{"candidates": []}') == []


def test_parse_skips_an_object_nested_too_deep_to_decode():
    deep = '{"a":' * 5000
    with pytest.raises(NoCandidatesFound):
        parse_candidates(deep)
    assert parse_candidates(deep + ' {"candidates": ["OK"]}') == ["OK"]


def test_parse_fuzzed_wrappers_match_reference_extractor():
    # reference oracle: decode with the stdlib from every '{' and keep the
    # last dict carrying a "candidates" list
    def reference(reply: str):
        best = None
        for i, ch in enumerate(reply):
            if ch != "{":
                continue
            try:
                value, _ = json.JSONDecoder().raw_decode(reply, i)
            except ValueError:
                continue
            if isinstance(value, dict) and isinstance(value.get("candidates"), list):
                best = [s for s in value["candidates"] if isinstance(s, str) and s.strip()]
        return best

    rng = random.Random(99)
    wrappers = [
        "{payload}",
        "prose before {payload}",
        "```json\n{payload}\n```",
        "thought: {{not json}} {payload} trailing",
        "{payload} and a second {payload}",
        "nested: {\"outer\": 1} {payload}",
    ]
    for _ in range(120):
        items = [
            "".join(rng.choice("ACDEFGHIK") for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        payload = json.dumps({"candidates": items})
        text = rng.choice(wrappers).replace("{payload}", payload)
        assert parse_candidates(text) == reference(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_parse_candidates_never_raises_unexpectedly(text):
    try:
        result = parse_candidates(text)
    except NoCandidatesFound:
        return
    assert isinstance(result, list)
    assert all(isinstance(item, str) for item in result)


# -- parse_planner_reply ----------------------------------------------------------


def test_planner_reply_mixed_reuse_and_create():
    reply = '{"SIMILAR": "USE_EXISTING", "FUSER": "TASK: fuse adjacent rings."}'
    assert parse_planner_reply(reply) == {
        "SIMILAR": "USE_EXISTING",
        "FUSER": "TASK: fuse adjacent rings.",
    }


# The parser returns the plan as written; the registry applies it.


def test_planner_reply_unknown_reuse_dropped(smiles_domain):
    plan = parse_planner_reply('{"GHOST": "USE_EXISTING"}')
    assert plan == {"GHOST": "USE_EXISTING"}
    registry = TaskRegistry(smiles_domain.default_tasks)
    work, changes = registry.apply_plan(plan)
    assert [e.name for e in work] == [name for name, _ in smiles_domain.default_tasks]
    assert changes == []


def test_planner_reply_create_colliding_with_default_renamed(peptide_domain):
    plan = parse_planner_reply('{"SHUFFLE": "TASK: a better shuffle."}')
    assert plan == {"SHUFFLE": "TASK: a better shuffle."}
    registry = TaskRegistry(peptide_domain.default_tasks)
    work, changes = registry.apply_plan(plan)
    assert [e.name for e in work] == ["SHUFFLE_V2"]
    assert [(c.op, c.name) for c in changes] == [("add", "SHUFFLE_V2")]


def test_planner_reply_preserves_order_of_nine():
    names = [f"TASK_{i}" for i in range(9)]
    reply = json.dumps({name: f"TASK: body {i}" for i, name in enumerate(names)})
    # round-trip oracle: stdlib JSON preserves key order
    assert list(parse_planner_reply(reply)) == list(json.loads(reply)) == names


def test_planner_reply_takes_last_string_map():
    reply = (
        'draft {"OLD_IDEA": "TASK: old"} ... final:\n'
        '{"SIMILAR": "USE_EXISTING", "NEW_IDEA": "TASK: new"}'
    )
    assert list(parse_planner_reply(reply)) == ["SIMILAR", "NEW_IDEA"]


def test_planner_reply_no_plan_raises():
    with pytest.raises(NoPlanFound):
        parse_planner_reply("I could not decide on any tasks.")


def test_planner_reply_normalizes_names(peptide_domain):
    plan = parse_planner_reply('{"similar": "USE_EXISTING"}')
    work, _ = TaskRegistry(peptide_domain.default_tasks).apply_plan(plan)
    assert [e.name for e in work] == ["SIMILAR"]


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_planner_parse_never_raises_unexpectedly(text):
    try:
        plan = parse_planner_reply(text)
    except NoPlanFound:
        return
    assert plan and all(isinstance(v, str) for v in plan.values())
