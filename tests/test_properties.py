"""Property tests over random feasible zero-block specs, tables and
planted constraint sets."""

import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import periodic_orbit_table, reference_orbit, reference_validate
from shiftmaxent import (Constraint, CylinderTable, FrequencySpec, all_words,
                         bernoulli_table, build_max_entropy_table,
                         compare_with_closed_form, conditional_entropy,
                         entropy_closed_form, entropy_ladder, markov_extend,
                         recurrence_profile, sample_orbits, solve,
                         table_from_json, table_from_top_level, table_text,
                         table_to_json, validate)
from shiftmaxent.measures import _blocks, markov_step, parse_mass


@st.composite
def feasible_specs(draw):
    """Exact or float feasible spec with dyadic values.

    Second differences d_j >= 0 are dyadic and scaled so that
    sum_j (j+1) d_j < 1; a_{j+1} = a_j - sum_{i >= j} d_i is then
    non-increasing, convex and nonnegative. Dyadic values convert to
    floats exactly, so the float spec is feasible as well.
    """
    raw = draw(st.lists(st.integers(0, 64), min_size=1, max_size=5))
    weight = sum((j + 1) * r for j, r in enumerate(raw))
    scale = Fraction(1, 1 << weight.bit_length())
    d = [r * scale for r in raw]
    a = [Fraction(1)]
    for j in range(len(d) + 1):
        a.append(a[-1] - sum(d[j:]))
    prefix = a[1:]
    if draw(st.booleans()):
        prefix = [float(v) for v in prefix]
    return FrequencySpec(prefix=tuple(prefix),
                         tail=draw(st.sampled_from(["constant", "affine"])))


@settings(max_examples=60, deadline=None)
@given(spec=feasible_specs(), depth=st.integers(1, 8))
def test_built_table_validates_and_round_trips(spec, depth):
    table = build_max_entropy_table(spec, depth)
    assert table.mode == ("exact" if spec.exact else "float")
    report = validate(table)
    assert report.ok, report.describe()
    text = json.dumps(table_to_json(table))
    assert table_from_json(json.loads(text)) == table


@settings(max_examples=50, deadline=None)
@given(spec=feasible_specs(), depth=st.integers(3, 5))
def test_solver_matches_built_table(spec, depth):
    report = compare_with_closed_form(spec, depth)
    assert report.result.status == "optimal"
    assert report.max_cylinder_deviation <= 1e-6
    assert report.objective_deviation <= 1e-6


@st.composite
def planted_markov_sets(draw):
    """(depth, constraints, entropy rate): one to three words of length
    at most 3, each pinned to its mass under a full-support order-1
    Markov measure or held in an interval around it, at a depth 0-3
    past k = max(2, longest word)."""
    p01, p10 = (Fraction(draw(st.integers(15, 85)), 100) for _ in range(2))
    pi0 = p10 / (p01 + p10)
    step = {"00": 1 - p01, "01": p01, "10": p10, "11": 1 - p10}

    def mass(word):
        m = pi0 if word[0] == "0" else 1 - pi0
        for j in range(len(word) - 1):
            m *= step[word[j:j + 2]]
        return m

    rate = -sum(float(pi) * sum(float(step[s + t]) * math.log(float(step[s + t]))
                                for t in "01")
                for s, pi in (("0", pi0), ("1", 1 - pi0)))
    words = draw(st.lists(st.sampled_from(
        [w for n in (1, 2, 3) for w in all_words(n)]), min_size=1, max_size=3,
        unique=True))
    constraints = []
    for word in words:
        lo = hi = mass(word)
        if draw(st.booleans()):
            lo = max(Fraction(0), lo - Fraction(draw(st.integers(0, 50)), 1000))
            hi = min(Fraction(1), hi + Fraction(draw(st.integers(0, 50)), 1000))
        constraints.append(Constraint(word, lo, hi))
    k = max(2, max(map(len, words)))
    return k + draw(st.integers(0, 3)), constraints, rate


@settings(max_examples=60, deadline=None)
@given(case=planted_markov_sets())
def test_solve_extends_a_depth_k_optimum(case):
    depth, constraints, rate = case
    result = solve(depth, constraints)
    assert result.status == "optimal"
    assert result.table.depth == depth
    # the default float tolerance, the one sample --table applies
    assert validate(result.table).ok
    for c in constraints:
        assert c.lo - 1e-9 <= result.table.prob(c.word) <= c.hi + 1e-9
    assert abs(conditional_entropy(result.table, depth) - result.objective) <= 1e-12
    # the planted measure meets the constraints
    assert result.objective >= rate - 1e-9


@settings(max_examples=60, deadline=None)
@given(spec=feasible_specs(), depth=st.integers(2, 8))
def test_entropy_ladder_descends_to_closed_form(spec, depth):
    closed = entropy_closed_form(spec)
    ladder = [h for _, h in entropy_ladder(build_max_entropy_table(spec, depth))]
    assert all(lower <= upper + 1e-12
               for upper, lower in zip(ladder, ladder[1:]))
    assert ladder[-1] >= closed.value - 1e-12
    # past the support of the second differences the ladder is flat
    end = closed.support_end + 2
    last = entropy_ladder(build_max_entropy_table(spec, end))[-1][1]
    assert abs(last - closed.value) <= 1e-12


def _exact(spec):
    return FrequencySpec(prefix=tuple(Fraction(v) for v in spec.prefix),
                         tail=spec.tail)


@st.composite
def rationals(draw, lo, hi, denominators=60):
    den = draw(st.integers(1, denominators))
    return Fraction(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def exact_tables(draw):
    """An exact table of depth 1-8: a zero-block build, the Markov
    extension of rational order-0..2 data, or a Bernoulli table."""
    depth = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["zero-block", "markov", "bernoulli"]))
    if kind == "zero-block":
        return build_max_entropy_table(_exact(draw(feasible_specs())), depth)
    if kind == "bernoulli":
        return bernoulli_table(draw(rationals(0, 1)), depth)
    order = draw(st.integers(0, min(2, depth - 1)))
    if order == 1 and draw(st.booleans()):
        # stationary two-state chain with P(1 | 0) = a and P(1 | 1) = b
        a, b = draw(rationals(0, 1)), draw(rationals(0, 1))
        one = a / (a + 1 - b) if a + 1 - b else Fraction(1, 2)
        base = CylinderTable([[1], [1 - one, one],
                              [(1 - one) * (1 - a), (1 - one) * a,
                               one * (1 - b), one * b]])
    else:
        spec = _exact(draw(feasible_specs()))
        base = build_max_entropy_table(spec, order + 1)
    return markov_extend(base, depth)


@settings(max_examples=120, deadline=None)
@given(table=exact_tables(), data=st.data())
def test_exact_validate_matches_fraction_reference(table, data):
    assert validate(table).ok
    assert reference_validate(table) == []
    top = table.level(table.depth)
    assert table_from_top_level(top) == table   # one canonical denominator
    # One mass moved by a random rational, checked at tolerance 0 or 1/500.
    n = data.draw(st.integers(0, table.depth))
    word = data.draw(st.sampled_from(sorted(table.level(n))))
    levels = [table.level(k) for k in range(table.depth + 1)]
    levels[n][word] += data.draw(rationals(-1, 1, denominators=50))
    bent = CylinderTable(levels)
    tolerance = data.draw(st.sampled_from([0, Fraction(1, 500)]))
    report = validate(bent, tolerance)
    expect = reference_validate(bent, tolerance)
    assert report.ok == (not expect)
    assert [(v.kind, v.word, v.residual) for v in report.violations] == [
        (kind, w, float(r)) for kind, w, r in expect]


@settings(max_examples=100, deadline=None)
@given(table=exact_tables(), data=st.data())
def test_exact_markov_step_matches_fraction_reference(table, data):
    depth = table.depth
    memory = data.draw(st.integers(0, depth - 1))
    # Each pinned sibling pair splits its parent's mass, so the new level
    # stays consistent with the table and its lcd can be checked below.
    words = list(all_words(depth))
    parents = data.draw(st.lists(st.sampled_from(words), max_size=4, unique=True))
    pinned = {}
    for u in parents:
        share = data.draw(rationals(0, 1))
        pinned[u + "0"] = share * table.prob(u)
        pinned[u + "1"] = (1 - share) * table.prob(u)
    stepped = markov_step(table, memory, pinned)
    top = stepped.level(depth + 1)
    for w, p in top.items():
        u, e = w[:-1], w[-1]
        v = u[depth - memory:]
        pu, pv = table.prob(u), table.prob(v)
        rule = 0 if pu == 0 or pv == 0 else pu * table.prob(v + e) / pv
        assert p == pinned.get(w, rule), w
    assert table_from_top_level(top) == stepped   # the least common denominator


@st.composite
def sampled_tables(draw):
    """A table of depth 1-10: zero-block (exact or float), Bernoulli,
    point mass, or a periodic orbit, whose chains never couple."""
    depth = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["zero-block", "bernoulli", "point", "periodic"]))
    if kind == "zero-block":
        return build_max_entropy_table(draw(feasible_specs()), depth)
    if kind == "bernoulli":
        p = Fraction(draw(st.integers(0, 64)), 64)
        return bernoulli_table(p if draw(st.booleans()) else float(p), depth)
    if kind == "point":
        return bernoulli_table(draw(st.sampled_from([1, 0])), depth)
    word = draw(st.sampled_from(["0011", "001", "01", "0001011"]))
    return periodic_orbit_table(word, depth)


@st.composite
def float_tables(draw):
    """A float table of depth 1-6, valid or not, whose masses come from
    a pool of up to 8 finite floats, so that levels repeat masses; the
    pool may hold -0.0, 0.0, subnormals and huge values."""
    depth = draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=8))
    return CylinderTable([draw(st.lists(st.sampled_from(pool), min_size=1 << n,
                                        max_size=1 << n))
                          for n in range(depth + 1)], mode="float")


@settings(max_examples=150, deadline=None)
@given(table=st.one_of(exact_tables(), sampled_tables(), float_tables()))
def test_table_text_is_the_indented_json(table):
    assert table_text(table) == json.dumps(table_to_json(table), indent=2) + "\n"


@st.composite
def orbit_shapes(draw, depth):
    """(count, length) of up to 20,000 bits: a length up to the depth,
    any length, a long one (which the sampler splits into blocks), or a
    long one on or next to the end of a block."""
    count = draw(st.integers(1, 30))
    where = draw(st.sampled_from(["short", "any", "long", "block-end"]))
    if where == "short":
        return count, draw(st.integers(1, depth))
    if where == "any":
        return count, draw(st.integers(1, 20000 // count))
    length = draw(st.integers(6000 // count, 20000 // count))
    if where == "block-end":
        nb, steps = _blocks(count, length)
        length = nb * steps + draw(st.integers(-1, 1))
    return count, length


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sample_orbits_match_reference(data):
    table = data.draw(sampled_tables())
    count, length = data.draw(orbit_shapes(table.depth))
    seed = data.draw(st.integers(0, 2**32 - 1))
    samples = sample_orbits(table, length, count, seed)
    assert [s.seed for s in samples] == [seed ^ i for i in range(count)]
    assert [s.to_line() for s in samples] == [
        reference_orbit(table, length, seed ^ i) for i in range(count)]


@settings(max_examples=100, deadline=None)
@given(f=st.fractions(min_value=0, max_value=1))
def test_entry_points_read_one_mass_alike(f):
    text = str(f)
    assert parse_mass(text) == f
    assert FrequencySpec((text,)).prefix == (f,)
    assert Constraint("0", text, text).lo == float(f)
    assert recurrence_profile([0, 1], ["0"], 2, targets=[text]).targets == (float(f),)
    table = bernoulli_table(text, 3)
    assert table_from_json(table_to_json(table)) == table
