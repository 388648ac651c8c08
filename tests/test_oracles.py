from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings

from agentopt.core import DomainKind
from agentopt.distance import bit_masks
from agentopt.errors import InsufficientInit, OracleFailure, OracleTimeout
from agentopt.oracles import (
    CandidatePool,
    HiddenWeightsOracle,
    HttpOracle,
    MotifMatchOracle,
    PlateauOracle,
    SubprocessOracle,
    _lcs_length,
    make_synthetic,
    mutate_once,
    read_candidate_file,
    run_lines,
)

from .conftest import cand, long_text


# -- motif match ---------------------------------------------------------------


def test_motif_exact_match_scores_one():
    oracle = MotifMatchOracle(target="KLW")
    assert oracle.evaluate(cand("KLW")) == 1.0


def test_motif_partial_scores():
    oracle = MotifMatchOracle(target="KLW")
    # LCS("KLWX","KLW") = 3, normalized by max length 4
    assert oracle.evaluate(cand("KLWX")) == 0.75
    assert oracle.evaluate(cand("DDD")) == 0.0


def reference_lcs(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def test_lcs_matches_full_table_oracle():
    rng = random.Random(51)
    for _ in range(300):
        a = "".join(rng.choice("ABCD") for _ in range(rng.randint(0, 15)))
        b = "".join(rng.choice("ABCD") for _ in range(rng.randint(0, 15)))
        assert _lcs_length(a, b, bit_masks(b)) == reference_lcs(a, b)


# Lengths past one 64-bit machine word, and letters that occur in only one
# of the two strings (A, B only in ``a``; F, G only in ``b``).
@settings(max_examples=200, deadline=None)
@given(long_text("ABCDE"), long_text("CDEFG"))
def test_lcs_matches_full_table_past_one_word(a, b):
    expected = reference_lcs(a, b)
    assert _lcs_length(a, b, bit_masks(b)) == expected
    assert _lcs_length(b, a, bit_masks(a)) == expected


# -- hidden weights ---------------------------------------------------------------


def test_hidden_weights_counts_characters():
    oracle = HiddenWeightsOracle({"A": 2.0, "B": -1.0}, normalize=False)
    assert oracle.evaluate(cand("AAB")) == 3.0


def test_hidden_weights_normalization():
    oracle = HiddenWeightsOracle({"A": 2.0}, normalize=True)
    assert oracle.evaluate(cand("AABB")) == 1.0


def test_hidden_weights_noise_is_deterministic():
    noisy = HiddenWeightsOracle({"A": 1.0}, noise_sd=0.1, seed=5)
    a = noisy.evaluate(cand("AAAA"))
    b = noisy.evaluate(cand("AAAA"))
    assert a == b
    assert a != 1.0


# -- plateau ------------------------------------------------------------------------


def test_plateau_mass_fraction_is_roughly_respected():
    oracle = PlateauOracle(floor=0.0, mass=0.01, seed=3)
    hits = sum(
        1 for i in range(5000) if oracle._score(f"CAND{i}") > 0.0
    )
    assert 20 <= hits <= 90  # ~1% of 5000 with slack


def test_plateau_is_pure():
    oracle = PlateauOracle(mass=0.5, seed=9)
    values = {oracle._score("SAME") for _ in range(10)}
    assert len(values) == 1


def test_plateau_nonfloor_values_exceed_floor():
    oracle = PlateauOracle(floor=2.0, mass=0.5, seed=1)
    for i in range(200):
        value = oracle._score(f"X{i}")
        assert value == 2.0 or value > 2.0


def test_make_synthetic_factory():
    oracle = make_synthetic("motif-match", {"target": "AAA"})
    assert isinstance(oracle, MotifMatchOracle)
    with pytest.raises(ValueError):
        make_synthetic("nope", {})


def test_oracle_call_counter():
    oracle = MotifMatchOracle(target="AB")
    oracle.evaluate(cand("AB"))
    oracle.evaluate(cand("AB"))
    assert oracle.calls == 2


# -- subprocess ----------------------------------------------------------------------


ECHO_HALF = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print(0.5)\n"
)


def test_subprocess_line_protocol():
    oracle = SubprocessOracle([sys.executable, "-c", ECHO_HALF])
    scores = oracle.evaluate_many([cand("AAA"), cand("BBB")])
    assert scores == [0.5, 0.5]
    assert oracle.calls == 2


def test_subprocess_nan_is_rejected():
    script = "import sys\nfor line in sys.stdin:\n    print('NaN')\n"
    oracle = SubprocessOracle([sys.executable, "-c", script])
    with pytest.raises(OracleFailure):
        oracle.evaluate(cand("AAA"))


def test_subprocess_garbage_line_is_rejected():
    script = "import sys\nfor line in sys.stdin:\n    print('not-a-number')\n"
    oracle = SubprocessOracle([sys.executable, "-c", script])
    with pytest.raises(OracleFailure):
        oracle.evaluate(cand("AAA"))


def test_subprocess_wrong_line_count_fails():
    oracle = SubprocessOracle([sys.executable, "-c", "print(1.0)"])
    with pytest.raises(OracleFailure):
        oracle.evaluate_many([cand("A"), cand("B")])


def test_subprocess_timeout():
    oracle = SubprocessOracle(
        [sys.executable, "-c", "import time; time.sleep(5)"], timeout_s=0.2
    )
    with pytest.raises(OracleTimeout):
        oracle.evaluate(cand("A"))


def test_run_lines_refuses_an_input_with_a_line_break():
    # sent as is, the two lines would come back as three answers
    with pytest.raises(OracleFailure, match=r"oracle input 'AB\\nCD' is not exactly one line"):
        SubprocessOracle([sys.executable, "-c", ECHO_HALF]).evaluate_many(
            [cand("AB\nCD"), cand("XYZ")]
        )
    for line in ("AB\n", "", "A\rB"):
        with pytest.raises(OracleFailure, match="not exactly one line"):
            run_lines([sys.executable, "-c", ECHO_HALF], [line], 5.0, "oracle")
    assert run_lines([sys.executable, "-c", ECHO_HALF], ["A B"], 5.0, "oracle") == ["0.5"]


# -- http oracle ---------------------------------------------------------------------


def test_http_oracle_round_trip(score_server):
    oracle = HttpOracle(score_server.url)
    assert oracle.evaluate(cand("AAAA")) == 4.0


def test_http_oracle_rejects_a_boolean_score(score_server):
    score_server.score = staticmethod(lambda text: True)
    with pytest.raises(OracleFailure, match="True .* not a finite number"):
        HttpOracle(score_server.url).evaluate(cand("AAAA"))


def test_http_oracle_body_nested_too_deep_is_an_oracle_failure(score_server):
    score_server.body = b'{"score": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    with pytest.raises(OracleFailure, match="malformed oracle payload: maximum recursion"):
        HttpOracle(score_server.url).evaluate(cand("AAAA"))


def test_http_oracle_times_out_after_every_retry(score_server, monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr("agentopt.backends.time.sleep", sleeps.append)
    score_server.hang = True
    with pytest.raises(OracleTimeout, match="after 4 attempts"):
        HttpOracle(score_server.url, timeout_s=0.2).evaluate(cand("AAAA"))
    assert sleeps == [0.5, 1.0, 2.0]
    assert score_server.candidates == ["AAAA"] * 4


# -- init sources ----------------------------------------------------------------------


def test_read_candidate_file_skips_blanks(tmp_path):
    path = tmp_path / "init.txt"
    path.write_text("AAA\n\nBBB\n  \nCCC\n", encoding="utf-8")
    texts = [c.canonical for c in read_candidate_file(path, DomainKind.GENERIC)]
    assert texts == ["AAA", "BBB", "CCC"]


def test_pool_first_templates_then_distinct_mutants():
    rng = random.Random(61)
    templates = [cand("KLWRKLLRWK"), cand("DDDDDDDDDD")]
    pool = CandidatePool(templates=templates, alphabet="ACDEFGHIKLMNPQRSTVWY")
    out = pool.first(30, rng)
    texts = [c.canonical for c in out]
    assert len(texts) == 30
    assert len(set(texts)) == 30
    assert texts[:2] == ["KLWRKLLRWK", "DDDDDDDDDD"]
    # each mutant differs from some template by exactly one substitution
    for text in texts[2:]:
        assert any(
            sum(x != y for x, y in zip(text, t.canonical)) == 1
            and len(text) == len(t.canonical)
            for t in templates
        )


def test_pool_first_requires_templates():
    with pytest.raises(InsufficientInit):
        CandidatePool(templates=[], alphabet="AB").first(5, random.Random(0))


def test_pool_first_gives_up_on_a_small_mutation_space():
    pool = CandidatePool(templates=[cand("A")], alphabet="AB")
    with pytest.raises(InsufficientInit, match="after 3000 mutation attempts"):
        pool.first(3, random.Random(0))


def test_mutate_once_single_substitution():
    rng = random.Random(3)
    parent = "AAAAAAAA"
    child = mutate_once(parent, "ACDE", rng)
    assert len(child) == len(parent)
    assert sum(a != b for a, b in zip(parent, child)) <= 1


def test_pool_file_backed_exhaustion():
    pool = CandidatePool(items=[cand("AAA"), cand("BBB")])
    rng = random.Random(0)
    drawn = {pool.draw(rng).canonical for _ in range(2)}
    assert drawn == {"AAA", "BBB"}
    with pytest.raises(InsufficientInit):
        pool.draw(rng)


def test_pool_template_backed_is_endless():
    pool = CandidatePool(templates=[cand("KLWRKLLR")], alphabet="KLWR")
    rng = random.Random(1)
    for _ in range(50):
        assert len(pool.draw(rng).canonical) == 8
