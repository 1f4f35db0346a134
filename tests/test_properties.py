"""Property tests over random feasible zero-block specs."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmaxent import (FrequencySpec, build_max_entropy_table,
                         table_from_json, table_to_json, validate)


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
