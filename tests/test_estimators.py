import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_entropy_estimates
from shiftmaxent import (FrequencySpec, bernoulli_table,
                         build_max_entropy_table, entropy_estimates,
                         katok_entropy, point_mass_table, sample_orbits,
                         word_count_entropy)
from shiftmaxent.estimators import _window_codes


def _h2(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def _bernoulli_samples(p_one, count, length, seed):
    table = bernoulli_table(1 - p_one, 1)  # table parameter is P(0)
    return sample_orbits(table, length, count, seed=seed)


def _katok_population(n, p_one, delta):
    """Population value of the Katok count for an independent-digit source:
    words sorted by probability are graded by their number of ones."""
    probs = []
    for ones in range(n + 1):
        count = math.comb(n, ones)
        mass = (p_one ** ones) * ((1 - p_one) ** (n - ones))
        probs.append((mass, count))
    probs.sort(key=lambda t: -t[0])
    need = 1.0 - delta
    total_words = 0
    acc = 0.0
    for mass, count in probs:
        block = mass * count
        if acc + block >= need:
            total_words += math.ceil((need - acc) / mass)
            break
        acc += block
        total_words += count
    return math.log(total_words) / n


def test_word_count_uniform():
    samples = _bernoulli_samples(0.5, 100, 10**4, seed=21)
    value = word_count_entropy(samples, 10)
    assert abs(value - math.log(2)) <= 0.05


def test_word_count_point_mass():
    samples = sample_orbits(point_mass_table(1, 2), 500, 20, seed=3)
    for n in (1, 4, 9):
        assert word_count_entropy(samples, n) == 0.0


def test_word_count_period_two():
    spec = FrequencySpec(prefix=(F(1, 2), F(0)))
    table = build_max_entropy_table(spec, 3)
    samples = sample_orbits(table, 400, 50, seed=10)
    # exactly two length-8 factors of the period-two orbit
    value = word_count_entropy(samples, 8)
    assert value == pytest.approx(math.log(2) / 8, abs=1e-12)


def test_katok_uniform():
    samples = _bernoulli_samples(0.5, 200, 10**4, seed=22)
    value = katok_entropy(samples, 12, 0.1)
    assert abs(value - math.log(2)) <= 0.05


def test_katok_biased_matches_population_oracle():
    # at n=14, delta=0.1 the estimator's population value sits well above
    # the entropy (CLT correction ~ sigma/sqrt(n)); check against the
    # population computation rather than against h(p)
    oracle = _katok_population(14, 0.1, 0.1)
    assert oracle == pytest.approx(0.40548, abs=5e-4)
    samples = _bernoulli_samples(0.1, 200, 10**4, seed=23)
    value = katok_entropy(samples, 14, 0.1)
    assert abs(value - oracle) <= 0.02


def test_katok_biased_near_entropy_at_matched_parameters():
    # at n=12, delta=0.2 the discretization lands near h(0.1)+h(0.9)
    oracle = _katok_population(12, 0.1, 0.2)
    assert abs(oracle - _h2(0.1)) <= 0.02
    samples = _bernoulli_samples(0.1, 200, 10**4, seed=24)
    value = katok_entropy(samples, 12, 0.2)
    assert abs(value - _h2(0.1)) <= 0.05


def test_katok_point_mass():
    samples = sample_orbits(point_mass_table(1, 2), 200, 30, seed=4)
    assert katok_entropy(samples, 6, 0.1) == 0.0


def test_katok_at_most_word_count():
    rng = np.random.default_rng(42)
    for p in (0.5, 0.2):
        samples = _bernoulli_samples(p, 30, 2000, seed=int(rng.integers(1 << 30)))
        for n in (4, 8):
            for delta in (0.05, 0.3, 0.7):
                assert katok_entropy(samples, n, delta) <= \
                    word_count_entropy(samples, n) + 1e-12


def test_katok_monotone_in_delta():
    samples = _bernoulli_samples(0.3, 50, 3000, seed=77)
    values = [katok_entropy(samples, 8, d) for d in (0.05, 0.1, 0.2, 0.4, 0.8)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_estimators_permutation_invariant():
    samples = _bernoulli_samples(0.4, 20, 1500, seed=55)
    shuffled = list(reversed(samples))
    assert word_count_entropy(samples, 7) == word_count_entropy(shuffled, 7)
    assert katok_entropy(samples, 7, 0.2) == katok_entropy(shuffled, 7, 0.2)


def test_estimator_input_validation():
    samples = _bernoulli_samples(0.5, 3, 100, seed=1)
    with pytest.raises(ValueError):
        word_count_entropy([], 5)
    with pytest.raises(ValueError):
        word_count_entropy(samples, 101)
    with pytest.raises(ValueError):
        katok_entropy(samples, 5, 0.0)
    with pytest.raises(ValueError):
        katok_entropy(samples, 5, 1.0)


def test_word_count_rejects_values_other_than_bits():
    # used to count four distinct 1-words, log 4 > log 2
    with pytest.raises(ValueError):
        word_count_entropy([np.array([0, 2, 3, 1])], 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_window_codes_read_each_window_in_binary(data):
    n = data.draw(st.integers(1, 62))
    text = data.draw(st.text("01", min_size=n, max_size=n + 70))
    codes = _window_codes(np.frombuffer(text.encode(), dtype=np.uint8) - 48, n)
    assert codes.dtype == np.int64
    assert codes.tolist() == [int(text[i:i + n], 2) for i in range(len(text) - n + 1)]


# At n = 7, (133,), (134,) and (135,) give 127, 128 and 129 windows against
# 2^7 = 128: both counting paths and the boundary between them.
@pytest.mark.parametrize("lengths", [(40,), (1, 3, 8), (300, 17, 64, 5), (2000, 1999),
                                     (133,), (134,), (135,)])
def test_estimators_match_a_counter_reference(lengths):
    rng = np.random.default_rng(sum(lengths))
    samples = [(rng.random(length) < 0.3).astype(np.uint8) for length in lengths]
    for n in sorted({min(k, *lengths) for k in (1, 2, 7, 16, 62)}):
        for delta in (0.05, 0.2, 0.5, 0.9):
            expected = reference_entropy_estimates(samples, n, delta)
            assert entropy_estimates(samples, n, delta) == expected
            assert word_count_entropy(samples, n) == expected[0]
            assert katok_entropy(samples, n, delta) == expected[1]


def test_entropy_estimates_checks_its_input():
    samples = _bernoulli_samples(0.5, 3, 100, seed=1)
    for n, delta in ((5, 0.0), (5, 1.0), (101, 0.2), (0, 0.2)):
        with pytest.raises(ValueError):
            entropy_estimates(samples, n, delta)
    with pytest.raises(ValueError):
        entropy_estimates([], 5, 0.2)


@pytest.mark.parametrize("estimate", [
    word_count_entropy,
    lambda s, n: katok_entropy(s, n, 0.2),
    lambda s, n: entropy_estimates(s, n, 0.2),
])
def test_word_length_is_an_integer(estimate):
    samples = sample_orbits(bernoulli_table(0.4, 2), 500, 2, seed=3)
    for n in (True, 2.0, 2.5, np.float64(2), "2"):
        with pytest.raises(TypeError):
            estimate(samples, n)
    assert estimate(samples, np.int32(4)) == estimate(samples, 4)
