import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from shiftmaxent import (CylinderTable, FrequencySpec, StructuralError,
                         all_words, bernoulli_table, boundary_values,
                         build_max_entropy_table, conditional_entropy,
                         entropy_ladder, extend_spec, generic_point_half,
                         markov_extend, recurrence, recurrence_profile,
                         sample_orbits, solve, table_from_json,
                         table_from_top_level, table_text, table_to_json,
                         telescoping_increments, truncate_table, validate,
                         weighted_deviation)
from shiftmaxent import measures
from shiftmaxent.measures import OrbitSample

from helpers import (periodic_orbit_table, product_mass, reference_orbit,
                     reference_validate, two_point_table)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_bernoulli_half():
    report = validate(bernoulli_table(F(1, 2), 3))
    assert report.ok
    assert report.violations == ()


def test_validate_perturbed_consistency():
    levels = [lv if isinstance(lv, dict) else lv
              for lv in (bernoulli_table(0.5, 3).level(n) for n in range(4))]
    levels[2]["01"] += 0.01
    report = validate(CylinderTable(levels, mode="float"))
    assert not report.ok
    hits = [v for v in report.violations
            if v.kind == "consistency" and v.word == "0"]
    assert len(hits) == 1
    assert hits[0].residual == pytest.approx(0.01, abs=1e-12)


def test_validate_point_mass():
    report = validate(bernoulli_table(0, 4))
    assert report.ok


def test_validate_missing_word_is_structural():
    levels = [bernoulli_table(F(1, 2), 2).level(n) for n in range(3)]
    del levels[2]["10"]
    with pytest.raises(StructuralError):
        validate(CylinderTable(levels))


def test_validate_range_violation():
    levels = [bernoulli_table(0.5, 1).level(n) for n in range(2)]
    levels[1]["0"] = 1.2
    levels[1]["1"] = -0.2
    report = validate(CylinderTable(levels, mode="float"))
    kinds = {v.kind for v in report.violations}
    assert "range" in kinds


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_rejected(bad):
    levels = [bernoulli_table(0.5, 2).level(n) for n in range(3)]
    levels[2]["01"] = bad
    for mode in ("float", "exact"):
        with pytest.raises(StructuralError):
            CylinderTable(levels, mode=mode)
    obj = table_to_json(bernoulli_table(0.5, 2))
    obj["levels"][2]["probs"][1] = bad
    with pytest.raises(StructuralError):
        table_from_json(obj)


def test_table_is_read_only_and_yields_python_scalars():
    table = bernoulli_table(0.3, 3)
    assert type(table.prob("01")) is float
    assert type(bernoulli_table(F(1, 3), 2).prob("1")) is F
    assert type(conditional_entropy(table, 3)) is float
    assert all(type(h) is float for _, h in entropy_ladder(table))
    assert table.level(0) == {"": 1.0}
    copy = table.level(1)
    copy["0"] = 0.0
    assert table.prob("0") == 0.3
    with pytest.raises(ValueError):
        table._levels[1][0] = 0.0


def test_exact_mode_uses_zero_tolerance():
    levels = [{"": F(1)}, {"0": F(1, 3), "1": F(2, 3)},
              {"00": F(1, 9), "01": F(2, 9), "10": F(2, 9), "11": F(4, 9)}]
    assert validate(CylinderTable(levels)).ok
    levels[2]["00"] += F(1, 10**15)
    levels[2]["01"] -= F(1, 10**15)
    report = validate(CylinderTable(levels))
    assert not report.ok  # exact tables are checked exactly


def test_validate_levels_whose_denominators_do_not_divide():
    # Each exact level is stored over the least common denominator of its
    # masses. In a consistent table p_w = p_w0 + p_w1, so D_n divides
    # D_(n+1), as it does for this spec; one moved mass breaks that.
    spec = FrequencySpec.parse("43/48,13/16,3/4,11/16,31/48")
    table = build_max_entropy_table(spec, 6)
    assert table._dens == (1, 48, 48, 240, 1200, 6000, 30000)
    assert validate(table).ok and reference_validate(table) == []
    levels = [table.level(n) for n in range(7)]
    levels[3]["010"] += F(1, 7)
    bent = CylinderTable(levels)
    assert bent._dens[2:5] == (48, 1680, 1200)
    report = validate(bent)
    assert [(v.kind, v.word, v.residual) for v in report.violations] == [
        (kind, w, float(r)) for kind, w, r in reference_validate(bent)]
    assert {(v.kind, v.word) for v in report.violations} == {
        ("consistency", "01"), ("invariance", "10"),
        ("consistency", "010"), ("invariance", "010")}


# ---------------------------------------------------------------------------
# markov_extend
# ---------------------------------------------------------------------------

def test_markov_extend_order0_product():
    # independent digits with P(0) = 2/3: p_010 = (2/3)(1/3)(2/3) = 4/27
    base = bernoulli_table(F(2, 3), 1)
    table = markov_extend(base, 3)
    assert table.prob("010") == F(4, 27)
    assert validate(table).ok
    for w in all_words(3):
        assert table.prob(w) == product_mass(F(2, 3), w)


@pytest.mark.parametrize("depth", [True, 4.5, 4.0, np.float64(4), "4"])
def test_markov_extend_rejects_non_integer_depth(depth):
    # int() would extend to depth 1 for True and to 5 for 4.5
    base = bernoulli_table(F(2, 3), 1)
    with pytest.raises(TypeError):
        markov_extend(base, depth)
    assert markov_extend(base, np.int64(4)) == markov_extend(base, 4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda v: bernoulli_table(0.5, v), id="bernoulli-depth"),
    pytest.param(lambda v: truncate_table(bernoulli_table(0.5, 3), v),
                 id="truncate-depth"),
    pytest.param(lambda v: telescoping_increments(
        FrequencySpec.parse("1/2,1/4"), v), id="telescoping-upto"),
    pytest.param(solve, id="solve-depth"),
    pytest.param(generic_point_half, id="generic-length"),
    pytest.param(lambda v: boundary_values(
        extend_spec(FrequencySpec.parse("1/2,1/4"), 6), v), id="boundary-n"),
    pytest.param(lambda v: recurrence([0, 1, 0, 1], "", v), id="recurrence-horizon"),
    pytest.param(lambda v: weighted_deviation([0, 1, 0, 1], v, [("0", "1/2")]),
                 id="deviation-horizon"),
    pytest.param(lambda v: recurrence_profile([0, 1, 0, 1], ["0"], v),
                 id="profile-horizon"),
])
@pytest.mark.parametrize("value", [True, 2.0])
def test_depth_arguments_reject_bools_and_floats(call, value):
    # True would stand for depth 1 (or upto, length, n or horizon 1),
    # solve(3.0) failed deep inside on a shift, and a float horizon
    # divided a count by itself: recurrence(x, "", 50.5) was 1.0
    with pytest.raises(TypeError):
        call(value)


def test_markov_extend_zero_propagation():
    # order-1 table with p_00 = 0: every extension containing "00" is null
    levels = [{"": F(1)},
              {"0": F(2, 5), "1": F(3, 5)},
              {"00": F(0), "01": F(2, 5), "10": F(2, 5), "11": F(1, 5)}]
    base = CylinderTable(levels)
    table = markov_extend(base, 4)
    assert validate(table).ok
    for w in all_words(4):
        if "00" in w:
            assert table.prob(w) == 0


def test_markov_extend_uniform_depth5():
    base = bernoulli_table(F(1, 2), 1)
    table = markov_extend(base, 5)
    assert all(table.prob(w) == F(1, 32) for w in all_words(5))


def test_markov_extend_restriction_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p0 = F(int(rng.integers(1, 16)), 16)
        q0 = F(int(rng.integers(0, 17)), 16)
        q1 = F(int(rng.integers(0, 17)), 16)
        # order-1 invariant table from conditionals p(0|0)=q0, p(0|1)=q1
        # stationarity: p0 = p0 q0 + (1-p0) q1 -> choose p0 accordingly
        if q0 == 1 and q1 == 0:
            continue
        denom = 1 - q0 + q1
        if denom == 0:
            continue
        p0 = q1 / denom
        if not 0 <= p0 <= 1:
            continue
        levels = [{"": F(1)}, {"0": p0, "1": 1 - p0},
                  {"00": p0 * q0, "01": p0 * (1 - q0),
                   "10": (1 - p0) * q1, "11": (1 - p0) * (1 - q1)}]
        table = CylinderTable(levels)
        if not validate(table).ok:
            continue
        extended = markov_extend(table, 5)
        assert validate(extended).ok
        assert truncate_table(extended, 2) == table


def test_markov_extend_rejects_shallow_target():
    base = bernoulli_table(F(1, 2), 3)
    with pytest.raises(ValueError):
        markov_extend(base, 2)


# ---------------------------------------------------------------------------
# conditional entropy and the ladder
# ---------------------------------------------------------------------------

def test_conditional_entropy_uniform():
    assert conditional_entropy(bernoulli_table(F(1, 2), 3), 2) == \
        pytest.approx(math.log(2), abs=1e-15)


def test_conditional_entropy_point_mass():
    table = bernoulli_table(0, 5)
    for n in range(2, 6):
        assert conditional_entropy(table, n) == 0.0


def test_conditional_entropy_bernoulli_third_oracle():
    # independent oracle: direct evaluation of the h^(3) double sum
    expected = 0.0
    for w in all_words(2):
        pw = float(product_mass(F(1, 3), w))
        for eps in "01":
            pc = float(product_mass(F(1, 3), w + eps))
            expected += -pc * math.log(pc / pw)
    assert expected == pytest.approx(0.6365141682948128, abs=1e-12)
    got = conditional_entropy(bernoulli_table(F(1, 3), 3), 3)
    assert got == pytest.approx(expected, abs=1e-12)


def test_conditional_entropy_range_errors():
    table = bernoulli_table(0.5, 3)
    with pytest.raises(ValueError):
        conditional_entropy(table, 1)
    with pytest.raises(ValueError):
        conditional_entropy(table, 4)


def test_entropy_ladder_constant_for_products():
    ladder = entropy_ladder(bernoulli_table(F(1, 2), 6))
    assert [n for n, _ in ladder] == [2, 3, 4, 5, 6]
    for _, h in ladder:
        assert h == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_ladder_point_mass_zero():
    assert all(h == 0.0 for _, h in entropy_ladder(bernoulli_table(1, 6)))


def test_entropy_ladder_non_increasing_for_markov_tables():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 25:
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        p0 = q1 / (1 - q0 + q1)
        levels = [{"": 1.0}, {"0": p0, "1": 1 - p0},
                  {"00": p0 * q0, "01": p0 * (1 - q0),
                   "10": (1 - p0) * q1, "11": (1 - p0) * (1 - q1)}]
        table = CylinderTable(levels, mode="float")
        extended = markov_extend(table, 6)
        ladder = entropy_ladder(extended)
        for i in range(len(ladder) - 1):
            assert ladder[i + 1][1] <= ladder[i][1] + 1e-12
        checked += 1


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_bernoulli_frequency():
    sample = sample_orbits(bernoulli_table(0.5, 1), 10**6, 1, seed=2024)[0]
    freq0 = 1.0 - sample.bits.mean()
    assert abs(freq0 - 0.5) <= 0.005


def test_sample_point_mass_all_ones():
    for seed in (0, 1, 99):
        sample = sample_orbits(bernoulli_table(0, 3), 500, 1, seed=seed)[0]
        assert sample.bits.all()


def test_sample_two_point_mixture():
    # a*delta(0bar) + (1-a)*delta(1bar): each orbit is constant; the
    # all-zeros fraction concentrates at a (3 sigma over 10^4 draws)
    from helpers import two_point_table
    a = 0.3
    table = two_point_table(F(3, 10), 3)
    samples = sample_orbits(table, 40, 10**4, seed=7)
    constant = sum(1 for s in samples if s.bits.min() == s.bits.max())
    assert constant == 10**4
    zeros = sum(1 for s in samples if not s.bits.any()) / 10**4
    sigma = math.sqrt(a * (1 - a) / 10**4)
    assert abs(zeros - a) <= 3 * sigma


def test_sample_reproducible_and_seed_sensitive():
    table = bernoulli_table(0.4, 2)
    s1 = sample_orbits(table, 4000, 1, seed=123)[0]
    s2 = sample_orbits(table, 4000, 1, seed=123)[0]
    s3 = sample_orbits(table, 4000, 1, seed=124)[0]
    assert np.array_equal(s1.bits, s2.bits)
    assert not np.array_equal(s1.bits, s3.bits)


def test_sample_periodic_orbit_never_couples(monkeypatch):
    # The worst case of the block speculation: chains in different phases
    # of a periodic orbit never meet, so every block whose guessed start
    # is wrong is re-run bit by bit.
    walked = []
    walk = measures._walk
    monkeypatch.setattr(measures, "_walk",
                        lambda *args: walked.append(len(args[3])) or walk(*args))
    samples = sample_orbits(periodic_orbit_table("0011", 8), 12000, 20, seed=11)
    assert max(walked) < 12000   # no orbit went through the per-bit loop alone
    point = "0011" * 3001
    lines = [s.to_line() for s in samples]
    assert all(line in {point[k:k + 12000] for k in range(4)} for line in lines)
    assert {line[:4] for line in lines} == {point[k:k + 4] for k in range(4)}


def _zero_block_depth_six():
    spec = FrequencySpec.parse("1/2,3/10,3/20,1/20", tail="affine")
    return build_max_entropy_table(spec, 6)


def _slowly_coupling_depth_seven():
    spec = FrequencySpec.parse("29/36,23/36", tail="affine")
    return build_max_entropy_table(spec, 7)


@pytest.mark.parametrize("make, length, count, seed, max_walks", [
    pytest.param(_zero_block_depth_six, 15000, 16, 5, 16, id="mixing"),
    pytest.param(lambda: periodic_orbit_table("0011", 8), 15000, 16, 5, None, id="periodic"),
    pytest.param(lambda: two_point_table(F(3, 10), 5), 15000, 16, 5, None, id="two-point"),
    pytest.param(_slowly_coupling_depth_seven, 10434, 23, 1035791421, None,
                 id="slowly-coupling"),
])
def test_sample_warmed_lanes_at_workload_scale(monkeypatch, make, length, count, seed,
                                               max_walks):
    # orbit-stats draw sizes. Each lane warms up before its block, so
    # the mixing draw's lanes reach their blocks in the true state: it
    # made 54 _walk calls when mis-guessed blocks were repaired instead.
    # The slowly coupling draw's chains take long to meet.
    table = make()
    walked = []
    walk = measures._walk
    monkeypatch.setattr(measures, "_walk",
                        lambda *args: walked.append(len(args[3])) or walk(*args))
    samples = sample_orbits(table, length, count, seed)
    if max_walks is not None:
        assert len(walked) < max_walks
    for i, sample in enumerate(samples):
        assert sample.to_line() == reference_orbit(table, length, seed ^ i)


@pytest.mark.parametrize("make", [
    pytest.param(_zero_block_depth_six, id="mixing"),
    pytest.param(lambda: periodic_orbit_table("0011", 8), id="periodic"),
    pytest.param(lambda: two_point_table(F(3, 10), 5), id="two-point"),
])
@pytest.mark.parametrize("count, length", [(48, 54), (48, 60), (96, 20), (200, 40)])
def test_sample_blocks_shorter_than_the_warmup(make, count, length):
    # enough lanes for the vector pass, with orbits of two blocks shorter
    # than the warm-up (so lane 1 warms up partly on the zero pad) or of
    # one block (so every lane is reset when its warm-up ends)
    nb, steps = measures._blocks(count, length)
    assert count * nb >= measures._MIN_LANES and (nb == 1 or steps < measures._WARMUP)
    table = make()
    samples = sample_orbits(table, length, count, seed=3)
    assert [s.to_line() for s in samples] == [
        reference_orbit(table, length, 3 ^ i) for i in range(count)]


@pytest.mark.parametrize("length, count, seed", [
    (1.5, 2, 7), (5, 2.0, 7), (5, 2, 1.5), (True, 2, 7), (5, True, 7),
    (5, 2, False), (5, 2, "7"), (5, 2, np.float64(7)), (5, 2, np.True_)])
def test_sample_rejects_non_integer_arguments(length, count, seed):
    with pytest.raises(TypeError):
        sample_orbits(bernoulli_table(0.4, 2), length, count, seed)


def test_sample_takes_numpy_integers():
    table = bernoulli_table(0.4, 2)
    got = sample_orbits(table, np.int64(50), np.uint8(3), np.int32(9))
    want = sample_orbits(table, 50, 3, 9)
    assert [s.seed for s in got] == [9, 8, 11]
    assert all(type(s.seed) is int for s in got)
    assert [s.to_line() for s in got] == [s.to_line() for s in want]


def test_sample_batch_uses_xor_seeds():
    table = bernoulli_table(0.4, 2)
    batch = sample_orbits(table, 300, 4, seed=1000)
    for i, sample in enumerate(batch):
        assert sample.seed == 1000 ^ i
        alone = sample_orbits(table, 300, 1, seed=1000 ^ i)[0]
        assert np.array_equal(sample.bits, alone.bits)


@pytest.mark.parametrize("length", [1, 2, 9, 1000])
def test_orbit_line_round_trip(length):
    bits = np.random.default_rng(length).integers(0, 2, length, dtype=np.uint8)
    line = OrbitSample(bits=bits, seed=0).to_line()
    assert line == "".join(map(str, bits.tolist()))
    assert np.array_equal(OrbitSample.from_line(line).bits, bits)


def test_orbit_sample_rejects_values_other_than_bits():
    # used to hold [0, 1], the floats truncated
    with pytest.raises(ValueError):
        OrbitSample(bits=[0.5, 1.7], seed=0)


def test_sample_invalid_table_rejected():
    levels = [{"": 1.0}, {"0": 0.7, "1": 0.7}]
    bad = CylinderTable(levels, mode="float")
    with pytest.raises(ValueError):
        sample_orbits(bad, 10, 1, seed=0)


def test_sample_ensemble_mean_matches_cylinder_mass():
    # ensemble mean of the empirical indicator average -> p_w (4 sigma)
    from shiftmaxent import build_max_entropy_table, FrequencySpec, recurrence
    spec = FrequencySpec.geometric(F(1, 2), terms=8)
    table = build_max_entropy_table(spec, 4)
    m_samples, length = 10**4, 10**3
    batch = sample_orbits(table, length, m_samples, seed=314)
    for word in ("0", "01", "0010"):
        horizon = length - len(word) + 1  # all windows complete: unbiased
        values = np.array([recurrence(s, word, horizon) for s in batch])
        mean = values.mean()
        sigma = values.std(ddof=1) / math.sqrt(m_samples)
        target = float(table.prob(word))
        assert abs(mean - target) <= 4 * sigma + 1e-12


# ---------------------------------------------------------------------------
# construction helpers and serialization
# ---------------------------------------------------------------------------

def test_table_from_top_level_marginalizes():
    top = {w: product_mass(F(1, 4), w) for w in all_words(3)}
    table = table_from_top_level(top)
    assert table == bernoulli_table(F(1, 4), 3)
    assert table_from_top_level(list(top.values())) == table


def test_json_round_trip_exact():
    table = bernoulli_table(F(1, 3), 3)
    obj = table_to_json(table)
    assert obj["mode"] == "exact"
    assert obj["levels"][0]["probs"] == ["1"]
    assert obj["levels"][1]["probs"] == ["1/3", "2/3"]
    assert table_from_json(obj) == table


def test_json_round_trip_float():
    table = bernoulli_table(0.3, 4)
    obj = table_to_json(table)
    assert obj["mode"] == "float"
    again = table_from_json(obj)
    assert again == table


def test_table_text_keeps_signed_zeros_subnormals_and_repeats():
    depth_one = [[1.0], [-0.0, 5e-324]]
    for levels in (depth_one, [[1.0], [0.5, 0.5], [0.25, -0.0, 0.0, 0.25]]):
        table = CylinderTable(levels, mode="float")
        text = table_text(table)
        assert text == json.dumps(table_to_json(table), indent=2) + "\n"
        again = table_from_json(json.loads(text))
        for n, level in enumerate(levels):
            assert [repr(p) for p in again.level(n).values()] == list(map(repr, level))
    assert '"probs": [\n        -0.0,\n        5e-324\n      ]' in table_text(
        CylinderTable(depth_one, mode="float"))


def test_float_table_reads_exact_texts():
    obj = table_to_json(bernoulli_table(0.5, 1))
    obj["levels"][1]["probs"] = ["1/2", 0.5]
    assert table_from_json(obj) == bernoulli_table(0.5, 1)


def test_bernoulli_rejects_bool():
    with pytest.raises(TypeError):
        bernoulli_table(True, 2)


def test_json_rejects_malformed():
    obj = table_to_json(bernoulli_table(0.5, 2))
    obj["levels"][1]["probs"] = [0.5]
    with pytest.raises(ValueError):
        table_from_json(obj)
