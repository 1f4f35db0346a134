import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from shiftmaxent import optimize
from shiftmaxent import (Constraint, ConstraintError, ConstraintSet,
                         FrequencySpec, all_words, bernoulli_table,
                         compare_with_closed_form, max_abs_deviation, solve,
                         validate)
from shiftmaxent.zeroblock import extend_spec

from helpers import random_feasible_spec, solve_answer


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------

def test_constraint_validation():
    with pytest.raises(ConstraintError):
        Constraint("01", 0.5, 0.4)
    with pytest.raises(ConstraintError):
        Constraint("01", -0.1, 0.4)
    with pytest.raises(ConstraintError):
        ConstraintSet((Constraint("0", 0.1, 0.1), Constraint("0", 0.2, 0.2)))
    with pytest.raises(ConstraintError):
        Constraint("0", True, 1)
    # the bound as given, not a 401-digit integer or a float overflow
    with pytest.raises(ConstraintError, match=r"got \['1e400', 1\]"):
        Constraint("0", "1e400", 1)


def test_constraint_json_round_trip():
    cset = ConstraintSet.from_json([{"word": "010", "lo": "1/8", "hi": "1/8"},
                                    {"word": "1", "lo": 0.2, "hi": 0.9}])
    assert cset.entries[0].lo == 0.125
    assert cset.entries[0].is_equality
    again = ConstraintSet.from_json(cset.to_json())
    assert again == cset


def test_solve_rejects_word_longer_than_depth():
    with pytest.raises(ConstraintError):
        solve(2, {"010": 0.1})


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_unconstrained_uniform():
    for depth in (2, 3, 4, 5):
        result = solve(depth)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(math.log(2), abs=1e-8)
        assert max_abs_deviation(result.table, bernoulli_table(0.5, depth)) <= 1e-8


def test_solve_single_marginal_gives_product_measure():
    result = solve(2, {"0": 1 / 3})
    assert result.status == "optimal"
    expected = (1 / 3) * math.log(3) + (2 / 3) * math.log(1.5)
    assert result.objective == pytest.approx(expected, abs=1e-9)
    assert max_abs_deviation(result.table, bernoulli_table(1 / 3, 2)) <= 1e-9


def test_solve_single_marginal_grid_oracle():
    # with mu([0]) = p fixed at depth 2, the free parameter is q = mu([00]);
    # grid search confirms the product measure maximizes h^(2)
    p = 0.3
    best, best_q = -1.0, None
    for q in np.linspace(max(0.0, 2 * p - 1), p, 200001):
        p00, p01, p11 = q, p - q, 1 - 2 * p + q
        val = 0.0
        for mass, parent in ((p00, p), (p01, p), (p01, 1 - p), (p11, 1 - p)):
            if mass > 0:
                val += -mass * math.log(mass / parent)
        if val > best:
            best, best_q = val, q
    assert best_q == pytest.approx(p * p, abs=1e-5)
    result = solve(2, {"0": p})
    assert result.objective == pytest.approx(best, abs=1e-8)


def test_solve_golden_mean():
    result = solve(2, {"00": 0.0})
    assert result.status == "optimal"
    assert result.kkt_residual <= 1e-9
    golden = (1 + math.sqrt(5)) / 2
    assert result.objective == pytest.approx(math.log(golden), abs=1e-9)
    # stationarity oracle: root of 5a^2 - 5a + 1
    a = (5 - math.sqrt(5)) / 10
    assert 5 * a * a - 5 * a + 1 == pytest.approx(0.0, abs=1e-12)
    assert result.table.prob("0") == pytest.approx(a, abs=1e-9)


def test_solve_geometric_equalities_reach_uniform():
    for depth in (2, 3, 4):
        constraints = {"0" * k: 2.0 ** -k for k in range(1, depth + 1)}
        result = solve(depth, constraints)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(math.log(2), abs=1e-9)


@pytest.mark.parametrize("constraints, lp_calls", [
    ({"0": 0.3}, 1),               # the max-support LP alone
    ({"0": 0.3, "00": 0.4}, 2),    # plus the elastic LP for the certificate
])
def test_solve_lp_calls(monkeypatch, constraints, lp_calls):
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    linprog = optimize.linprog
    monkeypatch.setattr(optimize, "linprog", counting_linprog)
    solve(3, constraints)
    assert len(calls) == lp_calls


def test_solve_inconsistent_marginals_infeasible():
    result = solve(2, {"0": 0.3, "00": 0.4})
    assert result.status == "infeasible"
    assert result.table is None
    assert result.certificate["total_violation"] >= 0.05
    assert "separating_duals" in result.certificate


def test_solve_optimal_contract():
    # on optimal: valid table (1e-9), constraints within 1e-9, KKT <= 1e-9
    cset = ConstraintSet((Constraint("0", 0.55, 0.55),
                          Constraint("11", 0.1, 0.3)))
    result = solve(3, cset)
    assert result.status == "optimal"
    assert result.kkt_residual <= 1e-9
    assert validate(result.table, tolerance=1e-9).ok
    total0 = result.table.prob("0")
    assert abs(total0 - 0.55) <= 1e-9
    assert 0.1 - 1e-9 <= result.table.prob("11") <= 0.3 + 1e-9


def test_solve_interval_active_and_inactive():
    active = solve(2, ConstraintSet((Constraint("0", 0.2, 0.3),)))
    assert active.status == "optimal"
    assert active.table.prob("0") == pytest.approx(0.3, abs=1e-9)
    expected = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
    assert active.objective == pytest.approx(expected, abs=1e-9)
    inactive = solve(2, ConstraintSet((Constraint("0", 0.2, 0.8),)))
    assert inactive.status == "optimal"
    assert inactive.table.prob("0") == pytest.approx(0.5, abs=1e-9)


def test_solve_bit_flip_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(5):
        word = "".join(rng.choice(["0", "1"], size=3))
        value = float(rng.uniform(0.05, 0.2))
        flipped = "".join("1" if c == "0" else "0" for c in word)
        r1 = solve(4, {word: value})
        r2 = solve(4, {flipped: value})
        assert r1.status == r2.status == "optimal"
        assert r1.objective == pytest.approx(r2.objective, abs=1e-8)


def test_solve_objective_monotone_in_depth():
    constraints = {"01": 0.2, "0": 0.45}
    objectives = []
    for depth in (2, 3, 4, 5, 6):
        result = solve(depth, constraints)
        assert result.status == "optimal"
        objectives.append(result.objective)
    for lo, hi in zip(objectives[1:], objectives[:-1]):
        assert lo <= hi + 1e-8


def test_solve_boundary_face_with_dead_chain():
    # mu([0111]) = 0 at depth 4 forces x_1110 = 0 structurally (invariance)
    # and makes the all-ones chain entropically dead: the optimum sits on
    # a polytope face that the bound active set has to certify
    result = solve(4, {"0111": 0.0})
    assert result.status == "optimal"
    assert result.kkt_residual <= 1e-9
    assert result.table.prob("0111") == 0.0
    assert result.table.prob("1110") == 0.0
    assert result.table.prob("1111") <= 1e-9
    assert validate(result.table, tolerance=1e-9).ok


def test_solve_zero_forcing():
    result = solve(4, {"00": 0.0})
    assert result.status == "optimal"
    for w in all_words(4):
        if "00" in w:
            assert result.table.prob(w) <= 1e-9
    # depth-4 golden-mean entropy still log((1+sqrt 5)/2)
    assert result.objective == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-9)


# ---------------------------------------------------------------------------
# compare_with_closed_form
# ---------------------------------------------------------------------------

def test_compare_examples():
    cases = [
        (FrequencySpec.geometric(F(1, 2), terms=8), 4),
        (FrequencySpec(prefix=(F(1, 2),)), 3),
        (FrequencySpec(prefix=(F(1, 2), F(0))), 3),
    ]
    for spec, depth in cases:
        report = compare_with_closed_form(spec, depth)
        assert report.result.status == "optimal"
        assert report.max_cylinder_deviation <= 1e-6
        assert report.objective_deviation <= 1e-6


def test_compare_random_specs():
    rng = np.random.default_rng(55)
    for _ in range(5):
        spec = random_feasible_spec(rng, max_terms=3)
        report = compare_with_closed_form(spec, 4)
        assert report.result.status == "optimal"
        assert report.max_cylinder_deviation <= 1e-6
        assert report.objective_deviation <= 1e-6


# ---------------------------------------------------------------------------
# regression cases: each ended slow, stalled or max_iter before the
# barrier solver
# ---------------------------------------------------------------------------

def _assert_optimal(result, cset):
    assert result.status == "optimal"
    assert result.kkt_residual <= 1e-9
    assert validate(result.table, tolerance=1e-9).ok
    for e in cset:
        assert e.lo - 1e-9 <= result.table.prob(e.word) <= e.hi + 1e-9


def test_solve_equality_at_depth_8_matches_depth_2():
    # mu([01]) = 231/680 took 26 s with 200+ Newton steps; a constraint on
    # 2-words has a Markov optimum, so h^(8) equals h^(2)
    cset = ConstraintSet.from_json([{"word": "01", "lo": "231/680",
                                     "hi": "231/680"}])
    result = solve(8, cset)
    _assert_optimal(result, cset)
    assert result.objective == pytest.approx(solve(2, cset).objective, abs=1e-9)


def test_solve_at_depth_11_makes_one_lp(monkeypatch):
    # took 13-15 s when the barrier ran at depth 11; the longest word has
    # length 3, so the solve runs at depth 3 and extends
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    linprog = optimize.linprog
    monkeypatch.setattr(optimize, "linprog", counting_linprog)
    cset = ConstraintSet((Constraint("0", 0.3, 0.3),
                          Constraint("010", 0.05, 0.1)))
    result = solve(11, cset)
    _assert_optimal(result, cset)
    assert result.table.depth == 11
    assert validate(result.table).ok
    expected = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
    assert result.objective == pytest.approx(expected, abs=1e-9)
    assert len(calls) == 1


_THREE_INTERVALS = ConstraintSet.from_json([
    {"word": "0", "lo": "68933/97000", "hi": "1847/2425"},
    {"word": "01", "lo": "17057/97000", "hi": "19191/97000"},
    {"word": "00", "lo": "12387/24250", "hi": "52167/97000"}])


def test_solve_dependent_intervals():
    # mu[0] = mu[00] + mu[01] once invariance holds; this set ended
    # max_iter at a point violating the intervals on 0 and 01
    _assert_optimal(solve(4, _THREE_INTERVALS), _THREE_INTERVALS)


def test_compare_float_spec_at_depth_8():
    # ended max_iter with a KKT residual of about 9
    spec = FrequencySpec(prefix=(0.7638700438862093, 0.5283155447511922,
                                 0.2990691484807452, 0.09455712914939385,
                                 0.0516021940798347), tail="constant")
    report = compare_with_closed_form(spec, 8)
    cset = ConstraintSet.equalities(
        {"0" * k: float(a) for k, a in enumerate(extend_spec(spec, 8)) if k})
    _assert_optimal(report.result, cset)
    assert report.max_cylinder_deviation <= 1e-6
    assert report.objective_deviation <= 1e-6


def test_solve_interval_at_depth_9():
    # took 82 s: an absolute Newton tolerance that 512 variables miss
    cset = ConstraintSet((Constraint("0", 0.3, 0.3),
                          Constraint("010", 0.05, 0.1)))
    result = solve(9, cset)
    _assert_optimal(result, cset)
    expected = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
    assert result.objective == pytest.approx(expected, abs=1e-9)


def test_solve_mixture_without_unique_optimum():
    # mu([01]) = 0 leaves the mixtures of the two fixed points
    cset = ConstraintSet.equalities({"01": 0.0})
    result = solve(3, cset)
    _assert_optimal(result, cset)
    assert result.objective == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("depth, cset", [
    (2, ConstraintSet((Constraint("0", 0.2, 0.3),))),
    (4, _THREE_INTERVALS),
    (4, ConstraintSet.equalities({"0111": 0.0})),
], ids=["active-slack", "three-intervals", "dead-chain"])
def test_vanishing_coordinates_take_few_steps(depth, cset):
    # coordinates that vanish like mu cost about 9 Newton steps per
    # barrier stage (105-108 in all) unless each stage starts with a
    # tangent step
    result = solve(depth, cset)
    _assert_optimal(result, cset)
    assert result.iterations <= 60


@pytest.mark.parametrize("depth, dependent, independent", [
    (3, {"01": .2, "10": .2}, {"01": .2}),
    (3, {"0": .5, "00": .3, "01": .2}, {"0": .5, "00": .3}),
    (2, {"0": .3, "1": .7}, {"0": .3}),
    (6, {"0": .4, "1": .6, "01": .2, "10": .2}, {"0": .4, "01": .2}),
], ids=["01-10", "0-00-01", "0-1", "0-1-01-10"])
def test_dependent_equalities(depth, dependent, independent):
    # rows implied by the others and invariance fall to the rank cut
    result = solve(depth, dependent)
    _assert_optimal(result, ConstraintSet.equalities(dependent))
    assert result.objective == pytest.approx(
        solve(depth, independent).objective, abs=1e-9)


def test_same_answers_as_golden():
    # statuses and objectives recorded with the dense-KKT barrier solver
    # (tests/helpers.py writes them); any rewrite of the solver must
    # reproduce them
    path = Path(__file__).parent / "golden" / "solve_answers.json"
    for case in json.loads(path.read_text()):
        status, objective = solve_answer(case)
        assert status == case["status"], case["name"]
        assert objective == pytest.approx(case["objective"], abs=1e-9), \
            case["name"]


@pytest.mark.parametrize("depth, words", [
    (4, 8), (5, 13), (6, 21), (7, 34), (8, 55), (9, 89), (10, 144)])
def test_max_support_finds_the_golden_mean_face(depth, words):
    # mu([00]) = 0 leaves the n-words without 00, F(n+2) of them, and
    # mu([0]) = 0.3 lies strictly inside the golden mean's range (0, 1/2)
    G, g, _ = optimize._slack_form(
        depth, ConstraintSet.equalities({"00": 0.0, "0": 0.3}))
    support, start = optimize._max_support(G, g)
    assert int(support[:1 << depth].sum()) == words
    assert all("00" not in format(i, f"0{depth}b")
               for i in np.flatnonzero(support[:1 << depth]))
    assert start.min() > 0.0


# ---------------------------------------------------------------------------
# infeasibility certificate
# ---------------------------------------------------------------------------

def _named_row(name, depth):
    """Top-level coefficient row of the constraint called `name`."""
    nv = 1 << depth
    row = np.zeros(nv)
    if name == "normalization":
        row[:] = 1.0
    elif name.startswith("invariance["):
        v, half = int(name[len("invariance["):-1], 2), nv >> 1
        row[v] += 1.0
        row[v + half] += 1.0
        row[2 * v] -= 1.0
        row[2 * v + 1] -= 1.0
    else:
        word = name[len("mass["):-1]
        gap = depth - len(word)
        base = int(word, 2) << gap
        row[base:base + (1 << gap)] = 1.0
    return row


_INFEASIBLE_SETS = [
    # mu[w e] > mu[w]
    (("01", 0.2, 0.2), ("010", 0.25, 0.35)),
    # mu[01] != mu[10]
    (("01", 0.2, 0.2), ("10", 0.25, 0.25)),
    # mu[0] + mu[1] > 1
    (("0", 0.6, 1.0), ("1", 0.45, 1.0)),
]


@pytest.mark.parametrize("depth, entries",
                         [(2, (("0", 0.3, 0.3), ("00", 0.4, 0.4)))]
                         + [(d, e) for d in (4, 8) for e in _INFEASIBLE_SETS])
def test_infeasible_certificate_is_farkas(depth, entries):
    # sum_k c_k row_k <= 0 on x >= 0 while sum_k c_k rhs_k > 0, with rhs_k
    # the side of the interval that c_k pushes against: no x >= 0 meets
    # every constraint
    cset = ConstraintSet(entries)
    result = solve(depth, cset)
    assert result.status == "infeasible"
    bounds = {f"mass[{e.word}]": (e.lo, e.hi) for e in cset}
    combined = np.zeros(1 << depth)
    rhs = 0.0
    for name, c in result.certificate["separating_duals"].items():
        combined += c * _named_row(name, depth)
        lo, hi = bounds.get(name, (float(name == "normalization"),) * 2)
        rhs += c * (lo if c > 0 else hi)
    violation = result.certificate["total_violation"]
    assert violation > 0
    assert combined.max() <= 1e-9
    assert rhs == pytest.approx(violation, abs=1e-9)
