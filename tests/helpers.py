"""Shared test utilities: random feasible specs and constraint sets, and
independent oracles."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from shiftmaxent import (ConstraintSet, CylinderTable, FrequencySpec,
                         all_words, compare_with_closed_form, solve)


def random_feasible_spec(rng, max_terms=5, denom_pow=6):
    """Random exact feasible spec built from nonnegative second differences.

    Draw d_j >= 0 and scale so that sum_j (j+1) d_j = c <= 1; then
    a_{j+1} = a_j - s_j with s_j = sum_{i >= j} d_i is non-increasing,
    convex, and stays >= 1 - c >= 0. The d-support is finite, so the
    constant tail is exact.
    """
    k = int(rng.integers(1, max_terms + 1))
    denom = 1 << denom_pow
    raw = [Fraction(int(rng.integers(0, denom + 1)), denom) for _ in range(k)]
    weight = sum((i + 1) * r for i, r in enumerate(raw))
    if weight == 0:
        raw[0] = Fraction(1, denom)
        weight = Fraction(1, denom)
    c = Fraction(int(rng.integers(1, denom + 1)), denom)
    d = [r * c / weight for r in raw]
    suffix = list(d)
    for i in range(k - 2, -1, -1):
        suffix[i] = suffix[i] + suffix[i + 1]
    a = [Fraction(1)]
    for j in range(k + 1):
        s_j = suffix[j] if j < k else Fraction(0)
        a.append(a[-1] - s_j)
    return FrequencySpec(prefix=tuple(a[1:]), tail="constant")


def solve_invariance_system(depth, pinned, tol=1e-9):
    """Exhaustively solve the consistency/invariance system with 0 <= p <= 1.

    Unknowns are all cylinder masses at levels 1..depth; equations are
    normalization, consistency, invariance, plus the pinned values. Each
    coordinate is bracketed by a pair of LPs over the polytope, so the
    solution set is certified to be a single point when every bracket
    collapses. Returns (table dict word->float, unique flag, max width).
    """
    from scipy.optimize import linprog

    unknowns = [w for n in range(1, depth + 1) for w in all_words(n)]
    index = {w: i for i, w in enumerate(unknowns)}
    rows, rhs = [], []

    def row_for(words_plus, words_minus, b):
        row = np.zeros(len(unknowns))
        for w in words_plus:
            row[index[w]] += 1.0
        for w in words_minus:
            row[index[w]] -= 1.0
        rows.append(row)
        rhs.append(b)

    row_for(["0", "1"], [], 1.0)  # consistency = invariance of the empty word
    for n in range(1, depth):
        for w in all_words(n):
            row_for([w + "0", w + "1"], [w], 0.0)
            row_for(["0" + w, "1" + w], [w], 0.0)
    for w, value in pinned.items():
        row_for([w], [], float(value))

    A = np.array(rows)
    b = np.array(rhs)
    lows, highs = [], []
    for i in range(len(unknowns)):
        cost = np.zeros(len(unknowns))
        cost[i] = 1.0
        low = linprog(cost, A_eq=A, b_eq=b, bounds=(0, 1), method="highs")
        high = linprog(-cost, A_eq=A, b_eq=b, bounds=(0, 1), method="highs")
        if low.status != 0 or high.status != 0:
            raise AssertionError("oracle polytope is empty or unbounded")
        lows.append(low.fun)
        highs.append(-high.fun)
    width = max(h - l for l, h in zip(lows, highs))
    unique = width <= tol
    solution = {w: 0.5 * (lows[index[w]] + highs[index[w]]) for w in unknowns}
    return solution, unique, width


def two_point_table(a, depth):
    """The measure a*delta(all zeros) + (1-a)*delta(all ones), direct build."""
    a = Fraction(a)
    levels = [{"": Fraction(1)}]
    for n in range(1, depth + 1):
        level = {}
        for w in all_words(n):
            if w == "0" * n:
                level[w] = a
            elif w == "1" * n:
                level[w] = 1 - a
            else:
                level[w] = Fraction(0)
        levels.append(level)
    return CylinderTable(levels)


def periodic_orbit_table(word, depth):
    """Orbit measure of the periodic point word^infinity: mass k/p on a
    cylinder that k of the p shifts of the point start with."""
    p = len(word)
    point = word * (depth // p + 2)
    levels = []
    for n in range(depth + 1):
        level = dict.fromkeys(all_words(n), Fraction(0))
        for k in range(p):
            level[point[k:k + n]] += Fraction(1, p)
        levels.append(level)
    return CylinderTable(levels)


def period_two_table(depth):
    """Orbit measure of the period-two point: mass 1/2 on each alternating word."""
    return periodic_orbit_table("01", depth)


def reference_orbit(table, length, seed):
    """Scalar reference sampler, read off the masses word by word: bit j
    is u_j < p_{w1} / p_w, with u = default_rng(seed).random(length) and
    w the last min(j, depth - 1) bits (0 when p_w is 0)."""
    bits, one = "", {}
    for j, uj in enumerate(np.random.default_rng(seed).random(length).tolist()):
        w = bits[max(0, j - table.depth + 1):]
        if w not in one:
            parent = float(table.prob(w))
            one[w] = float(table.prob(w + "1")) / parent if parent > 0 else 0.0
        bits += "1" if uj < one[w] else "0"
    return bits


def reference_entropy_estimates(samples, n, delta):
    """Word-count and Katok values read off a Counter of the samples'
    length-n substrings: log(#words)/n, and log(r)/n for the least r of
    the commonest words whose count reaches (1 - delta) of all windows
    (up to 1e-9 of the total, for the rounding of 1 - delta)."""
    words = Counter()
    for s in samples:
        text = "".join(str(int(b)) for b in s)
        words.update(text[i:i + n] for i in range(len(text) - n + 1))
    total = sum(words.values())
    covered, r = 0, 0
    for count in sorted(words.values(), reverse=True):
        covered += count
        r += 1
        if covered >= (1 - delta) * total - 1e-9 * total:
            break
    return math.log(len(words)) / n, math.log(r) / n


def reference_validate(table, tolerance=0):
    """Plain-Fraction validator: the (kind, word, residual) violations
    that validate reports, in its order, read off table.level word by
    word; residuals are exact Fractions."""
    levels = [table.level(n) for n in range(table.depth + 1)]
    violations = []

    def check(kind, word, residual):
        if residual > tolerance:
            violations.append((kind, word, residual))

    check("normalization", "", abs(levels[0][""] - 1))
    for n, level in enumerate(levels):
        for w in all_words(n):
            if not 0 <= level[w] <= 1:
                check("range", w, -level[w] if level[w] < 0 else level[w] - 1)
    for n in range(table.depth):
        child = levels[n + 1]
        for w in all_words(n):
            check("consistency", w, abs(child[w + "0"] + child[w + "1"] - levels[n][w]))
            check("invariance", w, abs(child["0" + w] + child["1" + w] - levels[n][w]))
    return violations


def product_mass(p, word):
    """Independent-digit mass of a word with per-digit P(0) = p."""
    mass = Fraction(1) if isinstance(p, Fraction) else 1.0
    for ch in word:
        mass *= p if ch == "0" else 1 - p
    return mass


def planted_markov_masses(rng, depth):
    """Top-level masses at `depth` (word w at index int(w, 2)) of a random
    stationary Markov measure of order 1 or 2. One time in four, one
    transition is forbidden or forced, so that some words have mass 0."""
    k = int(rng.integers(1, 3))
    states = np.arange(1 << k)
    ones = rng.uniform(0.05, 0.95, states.size)   # P(next bit 1 | last k bits)
    if rng.random() < 0.25:
        ones[rng.integers(states.size)] = float(rng.integers(2))
    step = np.zeros((states.size, states.size))
    successor = (states << 1) & (states.size - 1)
    step[states, successor] = 1.0 - ones
    step[states, successor | 1] = ones
    system = np.vstack([step.T - np.eye(states.size), np.ones(states.size)])
    rhs = np.zeros(states.size + 1)
    rhs[-1] = 1.0
    x = np.clip(np.linalg.lstsq(system, rhs, rcond=None)[0], 0.0, None)
    for _ in range(k, depth):
        last = ones[np.arange(x.size) & (states.size - 1)]
        x = np.stack([x * (1.0 - last), x * last], axis=1).ravel()
    return x


def planted_constraint_sets(seed, count, depths):
    """`count` (depth, constraints) pairs, each met by a random Markov
    measure (planted_markov_masses): one to three words of length at most
    min(depth, 4), each pinned to its mass or held in an interval of
    width up to 0.1 around it. Constraints are (word, lo, hi) triples."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        depth = int(depths[i % len(depths)])
        x = planted_markov_masses(rng, depth)
        words = [w for n in range(1, min(depth, 4) + 1) for w in all_words(n)]
        chosen = rng.choice(len(words), size=int(rng.integers(1, 4)),
                            replace=False)
        constraints = []
        for j in sorted(chosen):
            word = words[j]
            gap = depth - len(word)
            mass = float(x[int(word, 2) << gap:(int(word, 2) + 1) << gap].sum())
            if rng.random() < 0.5:
                constraints.append((word, mass, mass))
            else:
                lo, hi = rng.uniform(0.0, 0.05, size=2)
                constraints.append((word, max(0.0, mass - float(lo)),
                                    min(1.0, mass + float(hi))))
        cases.append((depth, constraints))
    return cases


def solve_answer_cases():
    """Inputs of tests/golden/solve_answers.json: 60 planted sets at depths
    4-8, acceptance criterion 04's compare specs at depths 3-8, and the
    two optimize reproducers of perfbench/NOTES.md."""
    cases = [{"name": f"planted-{i}", "depth": depth,
              "constraints": [{"word": w, "lo": lo, "hi": hi}
                              for w, lo, hi in constraints]}
             for i, (depth, constraints) in enumerate(
                 planted_constraint_sets(2024, 60, range(4, 9)))]
    specs = [FrequencySpec.geometric(Fraction(1, 2), terms=8),
             FrequencySpec(prefix=(Fraction(1, 10),)),
             FrequencySpec(prefix=(Fraction(1, 2),)),
             FrequencySpec(prefix=(Fraction(9, 10),)),
             FrequencySpec(prefix=(Fraction(1, 2), Fraction(0)))]
    cases += [{"name": f"compare-{i}", "depth": depth, "spec": spec.to_json()}
              for i, spec in enumerate(specs) for depth in range(3, 9)]
    cases.append({"name": "notes-equality-depth-8", "depth": 8, "constraints": [
        {"word": "01", "lo": "231/680", "hi": "231/680"}]})
    cases.append({"name": "notes-three-intervals", "depth": 4, "constraints": [
        {"word": "0", "lo": "68933/97000", "hi": "1847/2425"},
        {"word": "01", "lo": "17057/97000", "hi": "19191/97000"},
        {"word": "00", "lo": "12387/24250", "hi": "52167/97000"}]})
    return cases


def solve_answer(case):
    """(status, objective) of solve, or of compare_with_closed_form for a
    case with a spec."""
    if "spec" in case:
        result = compare_with_closed_form(
            FrequencySpec.from_json(case["spec"]), case["depth"]).result
    else:
        result = solve(case["depth"],
                       ConstraintSet.from_json(case["constraints"]))
    return result.status, result.objective


if __name__ == "__main__":
    # Rewrites the golden answers from the solver on the path, for example
    # PYTHONPATH=src python tests/helpers.py tests/golden/solve_answers.json
    import json
    import sys
    answers = []
    for case in solve_answer_cases():
        status, objective = solve_answer(case)
        answers.append(dict(case, status=status, objective=objective))
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, answers)) + "\n]\n")
