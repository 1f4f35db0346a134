"""Property tests over random feasible zero-block specs."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmaxent import (FrequencySpec, build_max_entropy_table,
                         compare_with_closed_form, entropy_closed_form,
                         entropy_ladder, table_from_json, table_to_json,
                         validate)


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
