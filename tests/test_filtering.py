from __future__ import annotations

import dataclasses
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentopt.core import Candidate, Direction, DomainKind, History
from agentopt.errors import OracleFailure, OracleTimeout
from agentopt.filtering import (
    NO_CONSTRAINT,
    REASON_CONSTRAINT,
    REASON_DUP_BATCH,
    REASON_DUP_HISTORY,
    REASON_INVALID,
    ExternalLineValidator,
    PeptideValidator,
    TemplateSimilarityConstraint,
    filter_batch,
    smiles_syntax_ok,
)

from .conftest import LETTERS, cand, reference_similarity

ECHO_VALID = "import sys\nfor line in sys.stdin:\n    print('VALID')\n"


# -- validators ---------------------------------------------------------------


def test_peptide_alphabet_validation(peptide_domain):
    validator = PeptideValidator(peptide_domain.alphabet, min_len=4)
    assert validator("KLWR") is True
    assert validator("KLXZ") is False  # X and Z are outside the alphabet
    assert validator("ACDEFGHIKLMNPQRSTVWY") is True


def test_peptide_length_bounds(peptide_domain):
    validator = PeptideValidator(peptide_domain.alphabet, min_len=5, max_len=8)
    assert validator("KKKK") is False
    assert validator("KKKKK") is True
    assert validator("K" * 8) is True
    assert validator("K" * 9) is False


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(
        st.one_of(st.sampled_from(LETTERS + LETTERS.lower() + "XZÉéΩ\U0001f600"), st.characters()),
        max_size=12,
    ),
)
@example(text="klwrk")
@example(text="KLWRÉ")
def test_peptide_validator_equals_the_per_character_rule(text):
    validator = PeptideValidator(LETTERS, min_len=4, max_len=10)
    expected = 4 <= len(text) <= 10 and all(ch in LETTERS for ch in text)
    assert validator(text) is expected


@pytest.mark.parametrize(
    "text,ok",
    [
        ("CCO", True),
        ("CC(C)=CCn1c2cc(=O)ccc-2nc2c(C(N)=O)cccc21", True),
        ("CC(C", False),  # unbalanced parenthesis
        ("CC)C", False),
        ("C1CC", False),  # dangling ring digit
        ("C1CC1", True),
        ("C%12CCC%12", True),
        ("C%1CC", False),  # % needs two digits
        ("[nH]1cccc1", True),
        ("C[C@H](N)C(=O)O", True),
        ("CC[", False),
        ("CC]", False),
        ("hello world", False),  # space not in charset
        ("", False),
        ("123", False),  # no atoms
        ("/C=C/F", True),
    ],
)
def test_smiles_syntax_cases(text, ok):
    assert smiles_syntax_ok(text) is ok


def test_smiles_bracket_matching_agrees_with_stack_oracle():
    # oracle checks only parenthesis balance; our scanner must never accept
    # a string the stack rejects
    def paren_balanced(s: str) -> bool:
        depth = 0
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    return False
        return depth == 0

    rng = random.Random(17)
    for _ in range(400):
        text = "".join(rng.choice("CCNO()1=") for _ in range(rng.randint(1, 20)))
        if smiles_syntax_ok(text):
            assert paren_balanced(text)


def test_external_validator_line_protocol(generic_domain):
    script = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    line = line.strip()\n"
        "    print('VALID' if line.startswith('A') else 'INVALID')\n"
    )
    validator = ExternalLineValidator([sys.executable, "-c", script])
    assert validator.validate_many(["ABC", "BCD", "AAA"]) == [True, False, True]


def test_external_validator_miscounted_output_fails():
    validator = ExternalLineValidator([sys.executable, "-c", "print('VALID')"])
    with pytest.raises(OracleFailure):
        validator.validate_many(["A", "B"])


def test_external_validator_timeout_is_an_oracle_timeout():
    validator = ExternalLineValidator(
        [sys.executable, "-c", "import time; time.sleep(5)"], timeout_s=0.2
    )
    with pytest.raises(OracleTimeout, match="external validator timed out"):
        validator.validate_many(["A"])


# -- constraints ------------------------------------------------------------------


def test_template_constraint_accepts_identity():
    constraint = TemplateSimilarityConstraint([cand("KLWRKLLR")], 0.75)
    assert constraint.allows(cand("KLWRKLLR")) is True


def test_template_constraint_rejects_distant():
    constraint = TemplateSimilarityConstraint([cand("KLWRKLLR")], 0.75)
    assert constraint.allows(cand("DDDDDDDD")) is False


def test_template_constraint_any_template_suffices():
    constraint = TemplateSimilarityConstraint(
        [cand("AAAAAAAA"), cand("KLWRKLLR")], 0.75
    )
    assert constraint.allows(cand("KLWRKLLK")) is True


# Templates of every length around the candidate's, and thresholds that sit
# exactly on a similarity, so the length bound both settles and stays open.
@settings(max_examples=200, deadline=None)
@given(
    text=st.text(alphabet="KLW", min_size=1, max_size=12),
    templates=st.lists(
        st.text(alphabet="KLW", min_size=1, max_size=12), min_size=1, max_size=4
    ),
    min_similarity=st.sampled_from([0.3, 0.5, 0.75, 0.9, 1.0])
    | st.builds(lambda k, m: k / m, st.integers(1, 10), st.integers(10, 12)),
)
# the length bound alone sits exactly on the threshold: 3 edits over 10
@example(text="KKKKKKKKKK", templates=["KKKKKKKKKKKKK"], min_similarity=0.7)
def test_template_constraint_verdict_equals_similarity(text, templates, min_similarity):
    constraint = TemplateSimilarityConstraint([cand(t) for t in templates], min_similarity)
    expected = any(reference_similarity(text, t) >= min_similarity for t in templates)
    assert constraint.allows(cand(text)) == expected


def test_template_constraint_on_empty_texts_keeps_the_float_rule():
    # a directly built Candidate may be empty: two empty texts are alike,
    # an empty text and another are not
    empty = Candidate("", "", DomainKind.GENERIC)
    assert TemplateSimilarityConstraint([cand("KL"), empty], 1.0).allows(empty) is True
    assert TemplateSimilarityConstraint([cand("KL")], 0.3).allows(empty) is False
    assert TemplateSimilarityConstraint([empty], 0.3).allows(cand("K")) is False


def test_template_constraint_validates_params():
    with pytest.raises(ValueError):
        TemplateSimilarityConstraint([], 0.75)
    with pytest.raises(ValueError):
        TemplateSimilarityConstraint([cand("AAAA")], 0.0)


# -- filter_batch ------------------------------------------------------------------


def test_filter_batch_dedups_within_batch(generic_domain):
    report = filter_batch(["CCO", "CCO"], History(Direction.MAXIMIZE), NO_CONSTRAINT, generic_domain)
    assert [c.canonical for c in report.accepted] == ["CCO"]
    assert [r.reason for r in report.rejected] == [REASON_DUP_BATCH]


def test_filter_batch_memoizes_history_duplicates(generic_domain):
    history = History(Direction.MAXIMIZE)
    history.append(cand("SEEN"), 0.41, "init")
    report = filter_batch(["SEEN", "NEW"], history, NO_CONSTRAINT, generic_domain)
    assert [c.canonical for c in report.accepted] == ["NEW"]
    assert [r.reason for r in report.rejected] == [REASON_DUP_HISTORY]


def test_filter_batch_orders_checks_validity_first(peptide_domain):
    report = filter_batch(
        ["klxz", "klwrk", "KLWRK", "  "], History(Direction.MAXIMIZE), NO_CONSTRAINT, peptide_domain
    )
    assert [c.canonical for c in report.accepted] == ["KLWRK"]
    reasons = [r.reason for r in report.rejected]
    assert reasons == [REASON_INVALID, REASON_DUP_BATCH, REASON_INVALID]


def test_filter_batch_constraint_rejection(peptide_domain):
    constraint = TemplateSimilarityConstraint([cand("KLWRKLLRW")], 0.75)
    report = filter_batch(
        ["KLWRKLLRW", "DDDDDDDDD"], History(Direction.MAXIMIZE), constraint, peptide_domain
    )
    assert [c.canonical for c in report.accepted] == ["KLWRKLLRW"]
    assert report.rejected[0].reason == REASON_CONSTRAINT


def test_filter_batch_canonicalizes_or_rejects_invalid(
    peptide_domain, smiles_domain, generic_domain
):
    report = filter_batch(
        ["klwrk", "KLXZ!", "   "], History(Direction.MAXIMIZE), NO_CONSTRAINT, peptide_domain
    )
    assert [c.canonical for c in report.accepted] == ["KLWRK"]
    assert [r.reason for r in report.rejected] == [REASON_INVALID, REASON_INVALID]
    report = filter_batch(["CC(C"], History(Direction.MAXIMIZE), NO_CONSTRAINT, smiles_domain)
    assert report.accepted == []
    assert [r.reason for r in report.rejected] == [REASON_INVALID]
    # a line break would make a line-protocol oracle or validator miscount
    report = filter_batch(["AB\nCD", "XYZ"], History(Direction.MAXIMIZE), NO_CONSTRAINT, generic_domain)
    assert [c.canonical for c in report.accepted] == ["XYZ"]
    assert [r.reason for r in report.rejected] == [REASON_INVALID]
    all_valid = ExternalLineValidator([sys.executable, "-c", ECHO_VALID])
    external = dataclasses.replace(smiles_domain, validator=all_valid)
    report = filter_batch(["C\nC", "CC"], History(Direction.MAXIMIZE), NO_CONSTRAINT, external)
    assert [c.canonical for c in report.accepted] == ["CC"]
    assert [r.reason for r in report.rejected] == [REASON_INVALID]


def test_filter_report_partitions_input(generic_domain):
    batch = ["A", "B", "A", "", "C"]
    report = filter_batch(batch, History(Direction.MAXIMIZE), NO_CONSTRAINT, generic_domain)
    assert report.n_input == len(batch)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="ABC", min_size=1, max_size=4), max_size=15),
    st.lists(st.text(alphabet="ABC", min_size=1, max_size=4), max_size=10),
)
def test_filter_never_accepts_history_duplicates(generic_domain, batch, history_texts):
    history = History(Direction.MAXIMIZE)
    for text in dict.fromkeys(history_texts):
        history.append(cand(text), 1.0, "init")
    report = filter_batch(batch, history, NO_CONSTRAINT, generic_domain)
    accepted = [c.canonical for c in report.accepted]
    assert len(set(accepted)) == len(accepted)
    assert not set(accepted) & set(history.canonical_index)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="KLWRD", min_size=4, max_size=10), max_size=12))
def test_template_feasibility_of_accepted(generic_domain, batch):
    templates = [cand("KLWRKLLR")]
    constraint = TemplateSimilarityConstraint(templates, 0.75)
    report = filter_batch(batch, History(Direction.MAXIMIZE), constraint, generic_domain)
    for accepted in report.accepted:
        text = accepted.canonical
        assert max(reference_similarity(text, t.canonical) for t in templates) >= 0.75
