"""Prescribed zero-block frequencies: feasibility, the maximal-entropy
measure, and its entropy in closed form.

A :class:`FrequencySpec` prescribes the masses a_k of the cylinders
[0^k] (with a_0 = 1 implicit). Such a prescription is realizable by an
invariant measure iff the sequence is non-increasing with nonnegative
second differences d_j = a_j - 2 a_{j+1} + a_{j+2}. When it is, the
unique maximal-entropy measure is pinned on the all-zeros stem by

    p_{0 0^n 0} = a_{n+2},   p_{0 0^n 1} = p_{1 0^n 0} = a_{n+1} - a_{n+2},
    p_{1 0^n 1} = d_n,

and everywhere else by the conditional-independence recursion
p_{e w e'} = p_{e w} p_{w e'} / p_w. Its entropy is
-h(1 - a_1) + sum_j h(d_j) with h(x) = -x log x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleSpecError
from .measures import EXACT, FLOAT, CylinderTable, _integer, markov_step, parse_mass

TAIL_CONSTANT = "constant"
TAIL_AFFINE = "affine"

KIND_RANGE = "range"
KIND_MONOTONE = "monotone"
KIND_CONVEXITY = "convexity"


@dataclass(frozen=True)
class FrequencySpec:
    """Target zero-block frequencies a_1..a_m plus a tail policy.

    The prefix extends to an infinite sequence: "constant" repeats a_m;
    "affine" continues with the last step a_{m-1} - a_m, clipped at 0.
    Values given as strings, ints or Fractions are kept exact.
    """

    prefix: tuple
    tail: str = TAIL_CONSTANT

    def __post_init__(self):
        given = tuple(self.prefix)
        values = tuple(map(parse_mass, given))
        if not values:
            raise ValueError("prefix must contain at least one value")
        if self.tail not in (TAIL_CONSTANT, TAIL_AFFINE):
            raise ValueError(f"unknown tail policy {self.tail!r}")
        for raw, v in zip(given, values):
            if not 0 <= v <= 1:
                raise ValueError(f"frequency {raw!r} outside [0, 1]")
        if not all(isinstance(v, Fraction) for v in values):
            values = tuple(map(float, values))
        object.__setattr__(self, "prefix", values)

    @property
    def exact(self):
        return all(isinstance(v, Fraction) for v in self.prefix)

    @classmethod
    def parse(cls, text, tail=TAIL_CONSTANT):
        """Spec from a comma-separated list like "1/2,1/4,0.1"."""
        items = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not items:
            raise ValueError("empty frequency list")
        return cls(prefix=tuple(items), tail=tail)

    @classmethod
    def geometric(cls, ratio, terms=64):
        """a_k = ratio^k for k = 1..terms, constant afterwards."""
        r = parse_mass(ratio)
        if not 0 <= r <= 1:
            raise ValueError(f"ratio must lie in [0, 1], got {ratio!r}")
        terms = _integer(terms, "terms")
        if terms < 1:
            raise ValueError("terms must be >= 1")
        return cls(prefix=tuple(r ** k for k in range(1, terms + 1)),
                   tail=TAIL_CONSTANT)

    @classmethod
    def from_json(cls, obj):
        try:
            if not isinstance(obj["a"], list):
                raise TypeError(f'"a" must be a list, got {obj["a"]!r}')
            return cls(prefix=tuple(obj["a"]),
                       tail=obj.get("tail", TAIL_CONSTANT))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed spec JSON: {exc}") from exc

    def to_json(self):
        vals = [str(v) if isinstance(v, Fraction) else float(v) for v in self.prefix]
        return {"a": vals, "tail": self.tail}


def extend_spec(spec, upto):
    """The sequence a_0..a_upto under the spec's tail policy."""
    m = len(spec.prefix)
    if upto < m:
        raise ValueError(f"upto={upto} below prefix length {m}")
    one = Fraction(1) if spec.exact else 1.0
    a = [one] + list(spec.prefix)
    if spec.tail == TAIL_CONSTANT:
        a.extend(a[m] for _ in range(upto - m))
    else:
        step = a[m - 1] - a[m]
        zero = one - one
        for j in range(1, upto - m + 1):
            a.append(max(zero, a[m] - j * step))
    return a


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    upto: int
    index: int = -1
    kind: str = ""
    violation: float = 0.0

    def describe(self):
        if self.feasible:
            return f"feasible (checked through index {self.upto})"
        if self.kind == KIND_CONVEXITY:
            return f"infeasible at j={self.index}, d={-self.violation!r}"
        if self.kind == KIND_MONOTONE:
            return (f"infeasible at j={self.index}: a_{self.index} < "
                    f"a_{self.index + 1} by {self.violation!r}")
        return (f"infeasible at j={self.index}: value outside [0, 1] "
                f"by {self.violation!r}")


def _check_sequence(a, upto):
    """First feasibility violation of the sequence a_0..a_upto, if any."""
    if a[0] != 1:
        return FeasibilityReport(False, upto, 0, KIND_RANGE, abs(float(a[0] - 1)))
    for j in range(upto + 1):
        if a[j] < 0:
            return FeasibilityReport(False, upto, j, KIND_RANGE, float(-a[j]))
        if a[j] > 1:
            return FeasibilityReport(False, upto, j, KIND_RANGE, float(a[j] - 1))
        if j + 1 <= upto and a[j] < a[j + 1]:
            return FeasibilityReport(False, upto, j, KIND_MONOTONE,
                                     float(a[j + 1] - a[j]))
        if j + 2 <= upto:
            d = a[j] - 2 * a[j + 1] + a[j + 2]
            if d < 0:
                return FeasibilityReport(False, upto, j, KIND_CONVEXITY, float(-d))
    return FeasibilityReport(True, upto)


def check_feasible(spec, upto=None):
    """Feasibility of the extended sequence through index `upto`.

    Both tail policies stabilize within two steps of the prefix (or of
    the affine clip point), so the default window is conclusive for the
    infinite sequence.
    """
    m = len(spec.prefix)
    if upto is None:
        upto = _support_end(spec) + 2
    elif _integer(upto, "upto") < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    upto = max(upto, m)
    return _check_sequence(extend_spec(spec, upto), upto)


def _require_feasible(a, upto):
    report = _check_sequence(a, upto)
    if not report.feasible:
        raise InfeasibleSpecError(report)


def _sequence(spec, upto):
    """extend_spec(spec, max(m, upto)), checked feasible through `upto`."""
    a = extend_spec(spec, max(len(spec.prefix), upto))
    _require_feasible(a, upto)
    return a


def boundary_values(a, n):
    """Masses (p_{00^n0}, p_{00^n1}, p_{10^n0}, p_{10^n1}) around the
    all-zeros stem; the four values are nonnegative and sum to a_n.
    """
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(a) < n + 3:
        raise ValueError(f"sequence too short: need a_0..a_{n + 2}")
    _require_feasible(a, n + 2)
    return _stem(a, n)


def _stem(a, n):
    """boundary_values without the feasibility check."""
    mid = a[n + 1] - a[n + 2]
    return (a[n + 2], mid, mid, a[n] - 2 * a[n + 1] + a[n + 2])


def build_max_entropy_table(spec, depth):
    """Cylinder table of the unique maximal-entropy measure, to `depth`.

    Exact arithmetic when the spec is exact (each level's cells are
    put over their least common denominator); satisfies p_{0^k} = a_k
    for every k <= depth.
    """
    depth = _integer(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    a = _sequence(spec, depth)
    one = a[0]
    table = CylinderTable([[one], [a[1], one - a[1]]],
                          mode=EXACT if spec.exact else FLOAT)
    for m in range(2, depth + 1):
        # p_{ewe'} = p_{ew} p_{we'} / p_w off the stem cells 00^n0, 00^n1,
        # 10^n0 and 10^n1 (n = m - 2), which are pinned; the sequence was
        # checked through a_depth above.
        stem = ("0" * m, "0" * (m - 1) + "1", "1" + "0" * (m - 1), "1" + "0" * (m - 2) + "1")
        table = markov_step(table, m - 2, dict(zip(stem, _stem(a, m - 2))))
    return table


# ---------------------------------------------------------------------------
# Entropy formulas
# ---------------------------------------------------------------------------

def _h(x):
    """h(x) = -x log x with h(0) = 0, natural log."""
    x = float(x)
    return -x * math.log(x) if x > 0.0 else 0.0


def _support_end(spec):
    """Smallest B with d_j = 0 for every j >= B (tail policies only)."""
    m = len(spec.prefix)
    if spec.tail == TAIL_CONSTANT or m == 0:
        return m
    a = extend_spec(spec, m)
    step = a[m - 1] - a[m]
    if step == 0 or a[m] == 0:
        return m
    return m + math.ceil(a[m] / step)


@dataclass(frozen=True)
class ClosedFormEntropy:
    value: float
    exact: bool
    truncation: int
    support_end: int


def entropy_closed_form(spec, truncation=None):
    """-h(1 - a_1) + sum_{j=0}^{J} h(d_j), with a truncation flag.

    Both tail policies make d_j vanish beyond a computable index, so the
    default truncation covers the whole series and the result is flagged
    exact; an explicit smaller J yields a partial sum flagged inexact.
    """
    support = _support_end(spec)
    j_max = support if truncation is None else _integer(truncation, "truncation")
    if j_max < 0:
        raise ValueError("truncation must be >= 0")
    a = _sequence(spec, j_max + 2)
    value = -_h(1 - a[1])
    for j in range(j_max + 1):
        value += _h(a[j] - 2 * a[j + 1] + a[j + 2])
    return ClosedFormEntropy(value=value, exact=j_max >= support,
                             truncation=j_max, support_end=support)


def telescoping_increments(spec, upto):
    """phi(1)..phi(upto): the ladder steps h^(n+2) - h^(n+1) of the built
    measure, expressed through the a-values.
    """
    upto = _integer(upto, "upto")
    if upto < 1:
        raise ValueError("upto must be >= 1")
    a = _sequence(spec, upto + 2)
    out = []
    for n in range(1, upto + 1):
        val = (_h(a[n + 2]) - 2 * _h(a[n + 1]) + _h(a[n])
               + 2 * (_h(a[n + 1] - a[n + 2]) - _h(a[n] - a[n + 1]))
               + _h(a[n] - 2 * a[n + 1] + a[n + 2]))
        out.append(val)
    return out
