from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentopt.core import History
from agentopt.errors import OracleFailure
from agentopt.filtering import (
    NO_CONSTRAINT,
    REASON_CONSTRAINT,
    REASON_DUP_BATCH,
    REASON_DUP_HISTORY,
    REASON_INVALID,
    ExternalLineValidator,
    PeptideValidator,
    PredicateConstraint,
    TemplateSimilarityConstraint,
    filter_batch,
    similarity,
    smiles_syntax_ok,
)

from .conftest import cand


# -- validators ---------------------------------------------------------------


def test_peptide_alphabet_validation(peptide_domain):
    validator = PeptideValidator(min_len=4)
    assert validator("KLWR") is True
    assert validator("KLXZ") is False  # X and Z are outside the alphabet
    assert validator("ACDEFGHIKLMNPQRSTVWY") is True


def test_peptide_length_bounds():
    validator = PeptideValidator(min_len=5, max_len=8)
    assert validator("KKKK") is False
    assert validator("KKKKK") is True
    assert validator("K" * 8) is True
    assert validator("K" * 9) is False


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
    assert validator("AX") is True


def test_external_validator_miscounted_output_fails():
    validator = ExternalLineValidator([sys.executable, "-c", "print('VALID')"])
    with pytest.raises(OracleFailure):
        validator.validate_many(["A", "B"])


# -- similarity -----------------------------------------------------------------


def test_similarity_candidate_examples():
    assert similarity(cand("KLWR"), cand("KLWR")) == 1.0
    assert similarity(cand("KITTEN"), cand("SITTING")) == 0.5
    assert similarity(cand("AB"), cand("XYXYXY")) == 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="ACDEF", min_size=1, max_size=12),
    st.text(alphabet="ACDEF", min_size=1, max_size=12),
)
def test_similarity_symmetric_and_reflexive(a, b):
    ca, cb = cand(a), cand(b)
    assert similarity(ca, cb) == similarity(cb, ca)
    assert similarity(ca, ca) == 1.0


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


def test_template_constraint_validates_params():
    with pytest.raises(ValueError):
        TemplateSimilarityConstraint([], 0.75)
    with pytest.raises(ValueError):
        TemplateSimilarityConstraint([cand("AAAA")], 0.0)


def test_predicate_constraint():
    constraint = PredicateConstraint(lambda c: len(c.canonical) <= 5, "max-length")
    assert constraint.allows(cand("ABC")) is True
    assert constraint.allows(cand("ABCDEF")) is False


# -- filter_batch ------------------------------------------------------------------


def test_filter_batch_dedups_within_batch(generic_domain):
    report = filter_batch(["CCO", "CCO"], History(), NO_CONSTRAINT, generic_domain)
    assert [c.canonical for c in report.accepted] == ["CCO"]
    assert [r.reason for r in report.rejected] == [REASON_DUP_BATCH]


def test_filter_batch_memoizes_history_duplicates(generic_domain):
    history = History()
    history.append(cand("SEEN"), 0.41, "init")
    report = filter_batch(["SEEN", "NEW"], history, NO_CONSTRAINT, generic_domain)
    assert [c.canonical for c in report.accepted] == ["NEW"]
    rejection = report.rejected[0]
    assert rejection.reason == REASON_DUP_HISTORY
    assert rejection.memo_score == 0.41


def test_filter_batch_orders_checks_validity_first(peptide_domain):
    report = filter_batch(
        ["klxz", "klwrk", "KLWRK", "  "], History(), NO_CONSTRAINT, peptide_domain
    )
    assert [c.canonical for c in report.accepted] == ["KLWRK"]
    reasons = [r.reason for r in report.rejected]
    assert reasons == [REASON_INVALID, REASON_DUP_BATCH, REASON_INVALID]


def test_filter_batch_constraint_rejection(peptide_domain):
    constraint = TemplateSimilarityConstraint([cand("KLWRKLLRW")], 0.75)
    report = filter_batch(
        ["KLWRKLLRW", "DDDDDDDDD"], History(), constraint, peptide_domain
    )
    assert [c.canonical for c in report.accepted] == ["KLWRKLLRW"]
    assert report.rejected[0].reason == REASON_CONSTRAINT


def test_filter_batch_canonicalizes_or_rejects_invalid(peptide_domain, smiles_domain):
    report = filter_batch(
        ["klwrk", "KLXZ!", "   "], History(), NO_CONSTRAINT, peptide_domain
    )
    assert [c.canonical for c in report.accepted] == ["KLWRK"]
    assert [(r.raw, r.reason) for r in report.rejected] == [
        ("KLXZ!", REASON_INVALID),
        ("   ", REASON_INVALID),
    ]
    report = filter_batch(["CC(C"], History(), NO_CONSTRAINT, smiles_domain)
    assert report.accepted == []
    assert [r.reason for r in report.rejected] == [REASON_INVALID]


def test_filter_report_partitions_input(generic_domain):
    batch = ["A", "B", "A", "", "C"]
    report = filter_batch(batch, History(), NO_CONSTRAINT, generic_domain)
    assert report.n_input == len(batch)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="ABC", min_size=1, max_size=4), max_size=15),
    st.lists(st.text(alphabet="ABC", min_size=1, max_size=4), max_size=10),
)
def test_filter_never_accepts_history_duplicates(generic_domain, batch, history_texts):
    history = History()
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
    report = filter_batch(batch, History(), constraint, generic_domain)
    for accepted in report.accepted:
        assert max(similarity(accepted, t) for t in templates) >= 0.75
