import math
from fractions import Fraction as F

import numpy as np
import pytest

from shiftmaxent import (FrequencySpec, InfeasibleSpecError, all_words,
                         bernoulli_table, boundary_values,
                         build_max_entropy_table, check_feasible,
                         conditional_entropy, entropy_closed_form,
                         entropy_ladder, extend_spec, telescoping_increments,
                         validate)

from helpers import period_two_table, random_feasible_spec, two_point_table


# ---------------------------------------------------------------------------
# extend_spec
# ---------------------------------------------------------------------------

def test_extend_constant():
    spec = FrequencySpec(prefix=(F(1, 2),))
    assert extend_spec(spec, 4) == [1, F(1, 2), F(1, 2), F(1, 2), F(1, 2)]


def test_extend_affine_clipped():
    spec = FrequencySpec(prefix=(F(1, 2), F(1, 4)), tail="affine")
    assert extend_spec(spec, 5) == [1, F(1, 2), F(1, 4), 0, 0, 0]


def test_extend_constant_two_terms():
    spec = FrequencySpec(prefix=(F(1, 2), F(1, 4)))
    assert extend_spec(spec, 4) == [1, F(1, 2), F(1, 4), F(1, 4), F(1, 4)]


def test_extend_requires_full_prefix():
    spec = FrequencySpec(prefix=(F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        extend_spec(spec, 1)


def test_prefix_must_be_nonempty_and_in_range():
    with pytest.raises(ValueError):
        FrequencySpec(prefix=())
    with pytest.raises(ValueError):
        FrequencySpec(prefix=(F(3, 2),))


@pytest.mark.parametrize("a", ["1", {"1/2": 0}, "05", None, 0.5])
def test_spec_json_needs_a_list(a):
    with pytest.raises(ValueError, match="malformed spec JSON"):
        FrequencySpec.from_json({"a": a})
    assert FrequencySpec.from_json({"a": ["1/2"]}).prefix == (F(1, 2),)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasible_geometric_prefix():
    spec = FrequencySpec.parse("1/2,1/4,1/8,1/16")
    report = check_feasible(spec)
    assert report.feasible


def test_infeasible_convexity():
    report = check_feasible(FrequencySpec.parse("1/2,0.45,0.1"))
    assert not report.feasible
    assert report.index == 1
    assert report.kind == "convexity"
    assert report.violation == pytest.approx(0.3, abs=1e-12)
    assert report.describe() == "infeasible at j=1, d=-0.3"


def test_infeasible_monotonicity():
    report = check_feasible(FrequencySpec.parse("0.3,0.5"))
    assert not report.feasible
    assert report.index == 1
    assert report.kind == "monotone"


@pytest.mark.parametrize("a", [F(0), F(1, 10), F(1, 2), F(9, 10), F(1)])
def test_constant_specs_always_feasible(a):
    # d_0 = 1 - a >= 0 and d_j = 0 afterwards
    spec = FrequencySpec(prefix=(a,))
    assert check_feasible(spec, upto=12).feasible
    seq = extend_spec(spec, 12)
    d = [seq[j] - 2 * seq[j + 1] + seq[j + 2] for j in range(len(seq) - 2)]
    assert d[0] == 1 - a
    assert all(v == 0 for v in d[1:])


def test_affine_tail_preserves_feasibility():
    spec = FrequencySpec(prefix=(F(1, 2), F(2, 5)), tail="affine")
    assert check_feasible(spec, upto=20).feasible


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

def test_boundary_geometric():
    a = extend_spec(FrequencySpec.geometric(F(1, 2), terms=6), 6)
    assert boundary_values(a, 0) == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))


def test_boundary_period_two():
    a = extend_spec(FrequencySpec(prefix=(F(1, 2), F(0))), 4)
    assert boundary_values(a, 0) == (0, F(1, 2), F(1, 2), 0)


def test_boundary_constant():
    a = extend_spec(FrequencySpec(prefix=(F(3, 10),)), 5)
    assert boundary_values(a, 1) == (F(3, 10), 0, 0, 0)


def test_boundary_sums_to_a_n():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = random_feasible_spec(rng)
        a = extend_spec(spec, len(spec.prefix) + 4)
        for n in range(len(a) - 2):
            four = boundary_values(a, n)
            assert all(v >= 0 for v in four)
            assert sum(four) == a[n]


def test_boundary_refuses_infeasible():
    a = [F(1), F(1, 2), F(9, 20), F(1, 10)]
    with pytest.raises(InfeasibleSpecError) as err:
        boundary_values(a, 1)
    assert err.value.report.index == 1


# ---------------------------------------------------------------------------
# build_max_entropy_table
# ---------------------------------------------------------------------------

def test_build_geometric_is_bernoulli_half():
    spec = FrequencySpec.geometric(F(1, 2), terms=8)
    table = build_max_entropy_table(spec, 4)
    assert table.mode == "exact"
    assert table == bernoulli_table(F(1, 2), 4)


def test_build_period_two_table():
    spec = FrequencySpec(prefix=(F(1, 2), F(0)))
    table = build_max_entropy_table(spec, 4)
    assert table == period_two_table(4)
    assert validate(table).ok


def test_build_constant_two_point():
    for a in (F(1, 10), F(1, 2), F(9, 10)):
        table = build_max_entropy_table(FrequencySpec(prefix=(a,)), 3)
        assert table == two_point_table(a, 3)


def test_build_rejects_infeasible():
    with pytest.raises(InfeasibleSpecError):
        build_max_entropy_table(FrequencySpec.parse("1/2,0.45,0.1"), 4)


def test_build_marginals_match_spec_exactly():
    rng = np.random.default_rng(17)
    for _ in range(50):
        spec = random_feasible_spec(rng)
        depth = 6
        table = build_max_entropy_table(spec, depth)
        a = extend_spec(spec, depth)
        for k in range(depth + 1):
            assert table.prob("0" * k) == a[k]
        assert validate(table).ok


def test_build_cross_ratio_identity():
    # p_{0w0} p_{1w1} = p_{0w1} p_{1w0} off the zero stem, exactly
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = random_feasible_spec(rng)
        table = build_max_entropy_table(spec, 6)
        for m in range(2, 7):
            for u in all_words(m - 2):
                if "1" not in u:
                    continue
                lhs = table.prob("0" + u + "0") * table.prob("1" + u + "1")
                rhs = table.prob("0" + u + "1") * table.prob("1" + u + "0")
                assert lhs == rhs


# ---------------------------------------------------------------------------
# closed-form entropy
# ---------------------------------------------------------------------------

def test_entropy_geometric_log2():
    spec = FrequencySpec.geometric(F(1, 2), terms=60)
    result = entropy_closed_form(spec)
    assert result.exact
    assert result.value == pytest.approx(math.log(2), abs=1e-9)


def test_entropy_geometric_series_oracle():
    # sum_{j<=J} h(2^-(j+2)) - h(1/2) -> log 2 via sum_{m>=2} m 2^-m = 3/2
    J = 40
    partial = -(-0.5 * math.log(0.5))
    for j in range(J + 1):
        d = 2.0 ** -(j + 2)
        partial += -d * math.log(d)
    assert partial == pytest.approx(math.log(2), abs=1e-9)
    spec = FrequencySpec.geometric(F(1, 2), terms=60)
    result = entropy_closed_form(spec, truncation=J)
    assert not result.exact  # truncated below the support end
    assert result.value == pytest.approx(partial, abs=1e-12)


@pytest.mark.parametrize("a", [F(1, 10), F(1, 2), F(9, 10), F(1)])
def test_entropy_constant_zero(a):
    result = entropy_closed_form(FrequencySpec(prefix=(a,)))
    assert result.exact
    assert abs(result.value) <= 1e-12


def test_entropy_a1_zero():
    result = entropy_closed_form(FrequencySpec(prefix=(F(0),)))
    assert abs(result.value) <= 1e-12


def test_entropy_period_two_zero():
    result = entropy_closed_form(FrequencySpec(prefix=(F(1, 2), F(0))))
    assert result.exact
    assert abs(result.value) <= 1e-12


def test_entropy_bits_mode():
    spec = FrequencySpec.geometric(F(1, 2), terms=60)
    result = entropy_closed_form(spec, units="bits")
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_entropy_rejects_infeasible():
    with pytest.raises(InfeasibleSpecError):
        entropy_closed_form(FrequencySpec.parse("1/2,0.45,0.1"))


# ---------------------------------------------------------------------------
# telescoping increments and the ladder
# ---------------------------------------------------------------------------

def test_telescoping_examples():
    geometric = FrequencySpec.geometric(F(1, 2), terms=8)
    assert telescoping_increments(geometric, 1)[0] == pytest.approx(0.0, abs=1e-12)
    constant = FrequencySpec(prefix=(F(3, 10),))
    assert all(abs(phi) <= 1e-12 for phi in telescoping_increments(constant, 5))
    ptwo = FrequencySpec(prefix=(F(1, 2), F(0)))
    assert telescoping_increments(ptwo, 1)[0] == pytest.approx(0.0, abs=1e-12)


def test_telescoping_matches_ladder_differences():
    rng = np.random.default_rng(29)
    for _ in range(30):
        spec = random_feasible_spec(rng)
        depth = 7
        table = build_max_entropy_table(spec, depth)
        ladder = entropy_ladder(table)
        phis = telescoping_increments(spec, depth - 2)
        for i in range(len(ladder) - 1):
            diff = ladder[i + 1][1] - ladder[i][1]
            assert diff == pytest.approx(phis[i], abs=1e-9)


def test_ladder_agrees_with_closed_form():
    # h^(2) + sum phi(n) telescopes to h^(N); with the d-support covered
    # the ladder has stabilized and equals the closed form
    rng = np.random.default_rng(37)
    for _ in range(25):
        spec = random_feasible_spec(rng, max_terms=4)
        support = len(spec.prefix)
        depth = support + 2
        level2 = conditional_entropy(build_max_entropy_table(spec, 2), 2)
        value = level2 + sum(telescoping_increments(spec, depth - 2))
        closed = entropy_closed_form(spec)
        assert closed.exact
        assert value == pytest.approx(closed.value, abs=1e-9)
        table = build_max_entropy_table(spec, depth)
        assert conditional_entropy(table, depth) == \
            pytest.approx(closed.value, abs=1e-9)


def test_built_table_maximizes_final_ladder_level():
    # random feasible perturbations inside the constraint polytope can
    # only lower h^(N)
    rng = np.random.default_rng(41)
    specs = [FrequencySpec.geometric(F(1, 2), terms=6),
             FrequencySpec(prefix=(F(3, 5), F(2, 5), F(1, 5)))]
    for spec in specs:
        depth = 3
        built = build_max_entropy_table(spec, depth)
        a = extend_spec(spec, max(len(spec.prefix), depth))
        h_built = conditional_entropy(built, depth)
        # polytope: all equalities of the linear system + pinned marginals
        words = [w for n in range(1, depth + 1) for w in all_words(n)]
        index = {w: i for i, w in enumerate(words)}
        rows = [np.zeros(len(words)) for _ in range(2)]
        rows[0][index["0"]] = rows[0][index["1"]] = 1.0
        rhs = [1.0, 1.0]
        rows[1][index["0"]] = rows[1][index["1"]] = 1.0
        for n in range(1, depth):
            for w in all_words(n):
                r = np.zeros(len(words))
                r[index[w + "0"]] += 1
                r[index[w + "1"]] += 1
                r[index[w]] -= 1
                rows.append(r)
                rhs.append(0.0)
                r = np.zeros(len(words))
                r[index["0" + w]] += 1
                r[index["1" + w]] += 1
                r[index[w]] -= 1
                rows.append(r)
                rhs.append(0.0)
        for k in range(1, depth + 1):
            r = np.zeros(len(words))
            r[index["0" * k]] = 1.0
            rows.append(r)
            rhs.append(float(a[k]))
        A = np.array(rows)
        x0 = np.array([float(built.prob(w)) for w in words])
        assert np.abs(A @ x0 - np.array(rhs)).max() < 1e-12
        # random directions in the null space, scaled to stay in [0, 1]
        _, s, vt = np.linalg.svd(A)
        null = vt[np.sum(s > 1e-10):]
        if null.shape[0] == 0:
            continue
        from shiftmaxent.measures import CylinderTable
        for _ in range(40):
            direction = null.T @ rng.normal(size=null.shape[0])
            scale = rng.uniform(0, 1) * 0.5
            x = x0 + scale * direction
            if x.min() < 1e-9 or x.max() > 1:
                continue
            levels = [{"": 1.0}]
            for n in range(1, depth + 1):
                levels.append({w: float(x[index[w]]) for w in all_words(n)})
            other = CylinderTable(levels, mode="float")
            if not validate(other, tolerance=1e-9).ok:
                continue
            assert conditional_entropy(other, depth) <= h_built + 1e-9


_SPEC = FrequencySpec.parse("1/2,1/4", tail="affine")
_INTEGER_ARGUMENTS = pytest.mark.parametrize("call", [
    pytest.param(lambda v: entropy_closed_form(_SPEC, truncation=v), id="truncation"),
    pytest.param(lambda v: build_max_entropy_table(_SPEC, v), id="depth"),
    pytest.param(lambda v: FrequencySpec.geometric("1/2", terms=v), id="terms"),
    pytest.param(lambda v: check_feasible(_SPEC, upto=v), id="upto"),
])


@_INTEGER_ARGUMENTS
@pytest.mark.parametrize("value", [True, 2.9, 3.0, np.float64(3), np.True_, "3"])
def test_integer_arguments_reject_bools_and_floats(call, value):
    # int() would read 2.9 as 2 and True as 1, and answer for those
    with pytest.raises(TypeError):
        call(value)


@_INTEGER_ARGUMENTS
def test_integer_arguments_take_numpy_integers(call):
    assert call(np.int64(3)) == call(3)
