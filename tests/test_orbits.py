import numpy as np
import pytest

from shiftmaxent import (bernoulli_table, generic_point_half, match_count,
                         recurrence, recurrence_profile, sample_orbits,
                         weighted_deviation)


def _periodic01(length):
    return np.resize(np.array([0, 1], dtype=np.uint8), length)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

def test_recurrence_periodic_orbit():
    x = _periodic01(10**4)
    n = 10**4 - 2  # even horizon, all windows complete
    assert recurrence(x, "0", n) == (n // 2) / n
    assert recurrence(x, "00", n) == 0.0
    assert recurrence(x, "01", n) == pytest.approx(0.5, abs=1e-12)


def test_recurrence_all_zeros():
    x = np.zeros(1000, dtype=np.uint8)
    for k in (1, 3, 5):
        n = 1000
        assert recurrence(x, "0" * k, n) == (n - k + 1) / n


def test_recurrence_empty_word_is_one():
    x = _periodic01(100)
    assert recurrence(x, "", 50) == 1.0


def test_recurrence_overrunning_windows_count_as_misses():
    x = np.zeros(10, dtype=np.uint8)
    # horizon beyond the last complete window: tail windows are misses
    assert recurrence(x, "000", 10) == 8 / 10


def test_horizon_beyond_the_sample_is_rejected():
    x = np.array([0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)
    assert match_count(x, "0", 7) == 3
    for word in ("0", "", "0110"):
        with pytest.raises(ValueError):
            match_count(x, word, 8)
    with pytest.raises(ValueError):
        recurrence(x, "0", 100)


def test_recurrence_digit_counts_sum_to_horizon():
    rng = np.random.default_rng(4)
    x = (rng.random(997) < 0.37).astype(np.uint8)
    for n in (1, 7, 500, 997):
        c0 = match_count(x, "0", n)
        c1 = match_count(x, "1", n)
        assert c0 + c1 == n  # exact integer identity
        assert abs(recurrence(x, "0", n) + recurrence(x, "1", n) - 1.0) < 1e-15


def test_recurrence_shift_compatibility():
    rng = np.random.default_rng(8)
    x = (rng.random(5000) < 0.5).astype(np.uint8)
    for word in ("0", "01", "110"):
        for n in (100, 999, 4321):
            a = recurrence(x, word, n)
            b = recurrence(x[1:], word, n - 1)
            assert abs(a - b) <= (len(word) + 1) / n


def test_recurrence_child_consistency():
    rng = np.random.default_rng(9)
    x = (rng.random(5000) < 0.41).astype(np.uint8)
    for word in ("", "0", "10", "011"):
        for n in (200, 1111, 4800):
            lhs = recurrence(x, word + "0", n) + recurrence(x, word + "1", n)
            rhs = recurrence(x, word, n)
            assert abs(lhs - rhs) <= (len(word) + 2) / n


# ---------------------------------------------------------------------------
# the deterministic generic point
# ---------------------------------------------------------------------------

def test_generic_point_prefix():
    assert generic_point_half(20).to_line() == "01001100011100001111"
    assert generic_point_half(5).to_line() == "01001"
    # one past the end of the fourth run pair
    assert generic_point_half(21).to_line() == "010011000111000011110"


def test_generic_point_zero_block_frequencies():
    point = generic_point_half(10**6)
    for k in range(1, 6):
        assert abs(recurrence(point, "0" * k, 10**6) - 0.5) <= 0.01


def test_generic_point_boundary_word_rare():
    point = generic_point_half(10**6)
    assert recurrence(point, "01", 10**6) <= 0.01


# ---------------------------------------------------------------------------
# weighted deviation
# ---------------------------------------------------------------------------

def test_weighted_deviation_bernoulli():
    from shiftmaxent import all_words
    x = sample_orbits(bernoulli_table(0.5, 1), 10**6, 1, seed=5)[0]
    targets = [(w, 2.0 ** -len(w)) for n in (1, 2, 3) for w in all_words(n)]
    assert weighted_deviation(x, 10**6, targets) <= 0.01


def test_weighted_deviation_generic_point():
    point = generic_point_half(10**6)
    targets = [("0" * k, 0.5) for k in range(1, 5)]
    assert weighted_deviation(point, 10**6, targets) <= 0.02


def test_weighted_deviation_empty_targets():
    assert weighted_deviation(_periodic01(100), 100, []) == 0.0


def test_weighted_deviation_duplicates_rejected():
    with pytest.raises(ValueError):
        weighted_deviation(_periodic01(100), 100, [("0", 0.5), ("0", 0.4)])


def test_weighted_deviation_reads_targets_as_masses():
    x = _periodic01(100)
    assert weighted_deviation(x, 100, [("0", "1/4")]) == 0.5 * 0.25
    # an iterator of targets is read once, not exhausted by a first pass
    assert weighted_deviation(x, 100, iter([("0", "1/4")])) == 0.5 * 0.25
    for bad in (True, 7.0, "1/0", "1e400"):
        with pytest.raises((TypeError, ValueError)):
            weighted_deviation(x, 100, [("0", bad)])


def test_weighted_deviation_pseudometric():
    rng = np.random.default_rng(12)
    x = (rng.random(4000) < 0.5).astype(np.uint8)
    y = (rng.random(4000) < 0.3).astype(np.uint8)
    words = ["0", "1", "00", "01", "111"]
    n = 3000
    ax = [recurrence(x, w, n) for w in words]
    ay = [recurrence(y, w, n) for w in words]
    # symmetry: d(A(x), A(y)) computed from either side
    d_xy = weighted_deviation(x, n, list(zip(words, ay)))
    d_yx = weighted_deviation(y, n, list(zip(words, ax)))
    assert d_xy == pytest.approx(d_yx, abs=1e-12)
    # triangle: d(A(x), alpha) <= d(A(x), A(y)) + d(A(y), alpha)
    alpha = rng.uniform(0, 1, size=len(words))
    lhs = weighted_deviation(x, n, list(zip(words, alpha)))
    rhs = d_xy + weighted_deviation(y, n, list(zip(words, alpha)))
    assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# recurrence profile
# ---------------------------------------------------------------------------

def test_recurrence_profile_csv():
    x = _periodic01(1000)
    profile = recurrence_profile(x, ["0", "01"], 998, targets=[0.5, 0.5])
    rows = profile.csv_rows()
    assert rows[0] == "word,horizon,average,target,deviation"
    assert rows[1].startswith("0,998,")
    assert len(rows) == 3
    bare = recurrence_profile(x, ["0"], 998)
    assert bare.csv_rows()[1].endswith(",,")


def test_recurrence_profile_rejects_duplicate_words():
    x = _periodic01(10)
    for words in (["0", "0"], ["0", "1", "0"]):
        with pytest.raises(ValueError):
            recurrence_profile(x, words, 10)


def test_recurrence_profile_rejects_targets_outside_unit_interval():
    x = _periodic01(10)
    for bad in (2.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            recurrence_profile(x, ["0"], 3, targets=[bad])


def test_recurrence_rejects_values_other_than_bits():
    # used to truncate the floats to 0, 1, 1, 0 and return 0.5
    with pytest.raises(ValueError):
        recurrence([0.5, 1.7, 1.2, 0.9], "0", 4)
