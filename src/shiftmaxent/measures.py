"""Truncated invariant measures on the binary full shift.

A measure truncated at depth N is stored as a :class:`CylinderTable`:
for every n <= N and every binary word w of length n, the mass p_w of
the cylinder [w]. A table extends to an invariant Borel probability
measure iff it is normalized (p_empty = 1), consistent
(p_{w0} + p_{w1} = p_w) and shift-invariant (p_{0w} + p_{1w} = p_w).

Level n is one read-only numpy array of length 2^n that holds p_w at
index int(w, 2). The children w0, w1 of index i sit at 2i and 2i+1, and
the words 0w, 1w at i and 2^n + i, so the laws above are slice sums.
Word strings appear only at the edges: the mappings accepted by
:class:`CylinderTable`, :meth:`CylinderTable.prob`,
:meth:`CylinderTable.level` and :attr:`Violation.word`.

Tables come in two arithmetic modes. "exact" tables hold
:class:`fractions.Fraction` entries in object arrays and are checked
with tolerance 0; "float" tables hold float64 and are checked with a
small tolerance. Every mass is finite. Tables are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StructuralError
from .words import all_words, check_word

EXACT = "exact"
FLOAT = "float"

#: Default residual tolerance for float-mode tables.
FLOAT_TOLERANCE = 1e-12


def _is_exact(value):
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _index(word):
    """Position of `word` within its level: the word read in binary."""
    return int(word, 2) if word else 0


def _word(index, n):
    """The word of length n stored at `index`."""
    return format(index, f"0{n}b") if n else ""


def _infer_mode(levels):
    values = (p for level in levels
              for p in (level.values() if isinstance(level, Mapping) else level))
    return EXACT if all(map(_is_exact, values)) else FLOAT


def _as_level(n, level, mode):
    """Level n as a read-only array in index order, from a word mapping
    or a sequence of 2^n masses; every mass must be finite."""
    if isinstance(level, Mapping):
        values = [None] * (1 << n)
        for word, p in level.items():
            check_word(word)
            if len(word) != n:
                raise StructuralError(f"word {word!r} stored at level {n}")
            values[_index(word)] = p
        if len(level) != 1 << n:
            missing = _word(values.index(None), n)
            raise StructuralError(f"missing cylinder {missing!r} at level {n}")
        level = values
    elif len(level) != 1 << n:
        raise StructuralError(f"level {n} needs {1 << n} masses, got {len(level)}")
    try:
        if mode == EXACT:
            arr = np.empty(len(level), dtype=object)
            arr[:] = [p if type(p) is Fraction else Fraction(p) for p in level]
        else:
            arr = np.array(level, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"bad mass at level {n}: {exc}") from None
    if arr.shape != (1 << n,):
        raise StructuralError(f"level {n} needs {1 << n} scalar masses")
    if mode == FLOAT and not np.isfinite(arr).all():
        i = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise StructuralError(f"non-finite mass {arr[i]} at {_word(i, n)!r}")
    arr.flags.writeable = False
    return arr


class CylinderTable:
    """Cylinder masses p_w for all binary words up to a fixed depth.

    Parameters
    ----------
    levels : sequence of mappings or sequences
        levels[n] maps every word of length n to its mass, or lists the
        2^n masses with word w at index int(w, 2); there must be at
        least levels 0 and 1 (depth >= 1).
    mode : "exact", "float" or None
        Arithmetic tag. When None, the table is "exact" iff every entry
        is an int or Fraction; entries are coerced to the tagged type.
        A missing word or a non-finite mass raises StructuralError.
    """

    __slots__ = ("_levels", "_mode")

    def __init__(self, levels, mode=None):
        levels = list(levels)
        if len(levels) < 2:
            raise StructuralError("a table needs levels 0..N with N >= 1")
        if mode is None:
            mode = _infer_mode(levels)
        elif mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        self._levels = tuple(_as_level(n, level, mode)
                             for n, level in enumerate(levels))
        self._mode = mode

    @property
    def depth(self):
        return len(self._levels) - 1

    @property
    def mode(self):
        return self._mode

    def prob(self, word):
        """Mass of the cylinder [word]."""
        check_word(word)
        if len(word) > self.depth:
            raise StructuralError(
                f"word {word!r} is deeper than the table (depth {self.depth})")
        return self._levels[len(word)].item(_index(word))

    def level(self, n):
        """Copy of the level-n mapping (word -> mass)."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} out of range 0..{self.depth}")
        return dict(zip(all_words(n), self._levels[n].tolist()))

    def as_float(self):
        """Float-mode copy of this table."""
        if self._mode == FLOAT:
            return self
        return CylinderTable(self._levels, mode=FLOAT)

    def __eq__(self, other):
        if not isinstance(other, CylinderTable):
            return NotImplemented
        return (self._mode == other._mode
                and len(self._levels) == len(other._levels)
                and all(np.array_equal(a, b)
                        for a, b in zip(self._levels, other._levels)))

    def __repr__(self):
        return f"CylinderTable(depth={self.depth}, mode={self._mode!r})"


def bernoulli_table(p, depth):
    """Product (Bernoulli) measure with mass p on digit 0, to `depth`."""
    if _is_exact(p) or isinstance(p, str):
        p = Fraction(p)
        one = Fraction(1)
    else:
        p = float(p)
        one = 1.0
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    dtype = object if isinstance(p, Fraction) else float
    digit = np.array([p, one - p], dtype=dtype)
    levels = [np.array([one], dtype=dtype)]
    for _ in range(depth):
        levels.append(np.multiply.outer(levels[-1], digit).ravel())
    return CylinderTable(levels)


def point_mass_table(digit, depth):
    """Point mass on the constant sequence digit^infinity, to `depth`."""
    digit = str(digit)
    if digit not in ("0", "1"):
        raise ValueError("digit must be 0 or 1")
    levels = []
    for n in range(depth + 1):
        level = np.full(1 << n, Fraction(0), dtype=object)
        level[0 if digit == "0" else -1] = Fraction(1)
        levels.append(level)
    return CylinderTable(levels)


def table_from_top_level(top, mode=None):
    """Build a table from its deepest level by summing children.

    `top` maps every word of one length n >= 1 to its mass, or lists the
    2^n masses in index order. The resulting table is consistent by
    construction; invariance holds iff the top level satisfies
    sum_e p_{ew} = sum_e p_{we}.
    """
    if isinstance(top, Mapping):
        depth = len(next(iter(top), ""))
    else:
        depth = len(top).bit_length() - 1
    if depth < 1:
        raise StructuralError("top level must contain all words of one length n >= 1")
    if mode is None:
        mode = _infer_mode([top])
    stack = [_as_level(depth, top, mode)]
    while stack[-1].size > 1:
        stack.append(stack[-1][0::2] + stack[-1][1::2])
    return CylinderTable(stack[::-1], mode=mode)


def truncate_table(table, depth):
    """Restriction of `table` to the given smaller (or equal) depth."""
    if not 1 <= depth <= table.depth:
        raise ValueError(f"depth {depth} out of range 1..{table.depth}")
    return CylinderTable(table._levels[:depth + 1], mode=table.mode)


def max_abs_deviation(table_a, table_b):
    """Largest |p_w(a) - p_w(b)| over all levels both tables share."""
    return max(float(np.abs(a.astype(float) - b.astype(float)).max())
               for a, b in zip(table_a._levels, table_b._levels))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str        # "normalization" | "consistency" | "invariance" | "range"
    word: str
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    tolerance: float
    violations: tuple

    def max_residual(self):
        return max((v.residual for v in self.violations), default=0.0)

    def describe(self):
        if self.ok:
            return "valid"
        worst = max(self.violations, key=lambda v: v.residual)
        return (f"{len(self.violations)} violation(s); worst: {worst.kind} "
                f"at {worst.word!r} residual {worst.residual:.3g}")


def validate(table, tolerance=None):
    """Check normalization, consistency, invariance and 0 <= p_w <= 1.

    Numeric violations are collected in the report. `tolerance`
    defaults to 0 for exact tables and to ``FLOAT_TOLERANCE`` for float
    tables.
    """
    if tolerance is None:
        tolerance = 0 if table.mode == EXACT else FLOAT_TOLERANCE
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    levels = table._levels
    violations = []

    def check(kind, word, residual):
        if residual > tolerance:
            violations.append(Violation(kind, word, float(residual)))

    check("normalization", "", abs(levels[0][0] - 1))
    for n, level in enumerate(levels):
        for i in np.flatnonzero((level < 0) | (level > 1)):
            p = level[i]
            check("range", _word(i, n), -p if p < 0 else p - 1)
    for n in range(table.depth):
        level, child = levels[n], levels[n + 1]
        right = child[0::2] + child[1::2]    # p_{w0} + p_{w1}
        left = child[:1 << n] + child[1 << n:]   # p_{0w} + p_{1w}
        # Residuals only where a sum differs: exact subtraction is slow.
        idx = np.flatnonzero((right != level) | (left != level))
        consistency = np.abs(right[idx] - level[idx])
        invariance = np.abs(left[idx] - level[idx])
        for j in np.flatnonzero((consistency > tolerance) | (invariance > tolerance)):
            word = _word(idx[j], n)
            check("consistency", word, consistency[j])
            check("invariance", word, invariance[j])
    return ValidationReport(ok=not violations, tolerance=float(tolerance),
                            violations=tuple(violations))


# ---------------------------------------------------------------------------
# Markov measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovMeasure:
    """Order-k Markov measure, determined by its (k+1)-cylinder masses."""

    order: int
    table: CylinderTable

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.table.depth != self.order + 1:
            raise StructuralError(
                f"order-{self.order} Markov measure needs a table of depth "
                f"{self.order + 1}, got {self.table.depth}")


def markov_from_table(table, order=None):
    """The order-k Markov measure sharing `table`'s (k+1)-cylinder masses.

    Defaults to the deepest available order, k = depth - 1.
    """
    if order is None:
        order = table.depth - 1
    return MarkovMeasure(order, truncate_table(table, order + 1))


def markov_extend(measure, target_depth):
    """Extend a Markov measure to a table of the requested depth.

    For n > k+1 the conditional of the next symbol depends only on the
    last k symbols:  p_{x_1..x_n} = p_{x_1..x_{n-1}} *
    p_{x_{n-k}..x_n} / p_{x_{n-k}..x_{n-1}}, with zero children under a
    zero denominator.
    """
    k = measure.order
    base = measure.table
    if target_depth < k + 1:
        raise ValueError(f"target depth {target_depth} < order+1 = {k + 1}")
    levels = list(base._levels)
    lk, lk1 = base._levels[k], base._levels[k + 1]
    zero = Fraction(0) if base.mode == EXACT else 0.0
    for _ in range(k + 2, target_depth + 1):
        prev = levels[-1]
        suffix = np.arange(prev.size) & ((1 << k) - 1)
        den = lk[suffix]
        live = np.flatnonzero((prev != 0) & (den != 0))
        level = np.full((prev.size, 2), zero, dtype=prev.dtype)
        for e in (0, 1):
            level[live, e] = prev[live] * lk1[2 * suffix[live] + e] / den[live]
        levels.append(level.ravel())
    return CylinderTable(levels, mode=base.mode)


# ---------------------------------------------------------------------------
# Conditional entropy
# ---------------------------------------------------------------------------

def conditional_entropy(table, n):
    """h^(n) = sum over |w| = n-1 of -p_{we} log(p_{we} / p_w), in nats.

    Terms with p_{we} = 0 or p_w = 0 contribute 0. Requires
    2 <= n <= depth.
    """
    if not 2 <= n <= table.depth:
        raise ValueError(f"n={n} out of range 2..{table.depth}")
    parents = np.repeat(table._levels[n - 1].astype(float), 2)
    children = table._levels[n].astype(float)
    live = (parents > 0.0) & (children > 0.0)
    pw, pc = parents[live], children[live]
    return float(np.sum(pc * (np.log(pw) - np.log(pc))))


def entropy_ladder(table):
    """[(n, h^(n)) for n = 2..depth]; non-increasing for valid tables."""
    if table.depth < 2:
        raise ValueError("entropy ladder needs depth >= 2")
    return [(n, conditional_entropy(table, n)) for n in range(2, table.depth + 1)]


# ---------------------------------------------------------------------------
# Orbit sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitSample:
    """A finite binary sequence with its provenance."""

    bits: np.ndarray
    seed: int
    source: str

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("bits must be a nonempty 1-d sequence")
        if bits.max(initial=0) > 1:
            raise ValueError("bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    def __len__(self):
        return int(self.bits.size)

    def to_line(self):
        return "".join("01"[b] for b in self.bits)

    @classmethod
    def from_line(cls, line, source="file"):
        bits = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(bits=bits, seed=0, source=source)


def _conditionals(table):
    """P(next symbol = 1 | the j symbols before it) for j < depth.

    Entry j is a list indexed by those j symbols read in binary; the
    last entry also serves every later step, applied to the last
    depth-1 symbols (the Markov extension).
    """
    conds = []
    for j in range(table.depth):
        parent = table._levels[j].astype(float)
        ones = table._levels[j + 1][1::2].astype(float)
        cond = np.zeros(parent.size)
        live = parent > 0.0
        cond[live] = np.clip(ones[live] / parent[live], 0.0, 1.0)
        conds.append(cond.tolist())
    return conds


def _draw_bits(conds, length, seed):
    k = len(conds) - 1
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    bits = np.empty(length, dtype=np.uint8)
    state = 0
    for j in range(min(length, k)):
        b = 1 if u[j] < conds[j][state] else 0
        bits[j] = b
        state = (state << 1) | b
    if length <= k:
        return bits
    if k == 0:
        bits[:] = u < conds[0][0]
        return bits
    cond = conds[k]
    mask = (1 << k) - 1
    for j, uj in enumerate(u[k:].tolist(), start=k):
        b = 1 if uj < cond[state] else 0
        bits[j] = b
        state = ((state << 1) | b) & mask
    return bits


def _require_valid(table):
    report = validate(table)
    if not report.ok:
        raise ValueError(f"invalid table: {report.describe()}")


def sample_orbit(table, length, seed):
    """Draw one orbit prefix of the measure in `table`.

    The first depth symbols use the successive table conditionals
    p_{we}/p_w; later symbols follow the order-(depth-1) Markov
    extension. Deterministic given (table, length, seed).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    _require_valid(table)
    bits = _draw_bits(_conditionals(table), length, seed)
    source = f"table(depth={table.depth}, mode={table.mode})"
    return OrbitSample(bits=bits, seed=int(seed), source=source)


def sample_orbits(table, length, count, seed):
    """Draw `count` independent orbits; sample i uses seed XOR i.

    Results are independent of evaluation order, so batches may be
    parallelized.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    _require_valid(table)
    conds = _conditionals(table)
    source = f"table(depth={table.depth}, mode={table.mode})"
    out = []
    for i in range(count):
        s = int(seed) ^ i
        out.append(OrbitSample(bits=_draw_bits(conds, length, s),
                               seed=s, source=source))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def table_to_json(table):
    """JSON object for a table; exact masses become "num/den" strings."""
    exact = table.mode == EXACT
    levels = [{"n": n, "probs": [str(p) for p in level] if exact else level.tolist()}
              for n, level in enumerate(table._levels)]
    return {"depth": table.depth, "mode": table.mode, "levels": levels}


def table_from_json(obj):
    """Inverse of :func:`table_to_json` (probs in lexicographic order)."""
    try:
        depth = int(obj["depth"])
        mode = obj["mode"]
        raw_levels = obj["levels"]
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        if len(raw_levels) != depth + 1:
            raise ValueError(f"expected {depth + 1} levels, got {len(raw_levels)}")
        levels = []
        for n, entry in enumerate(raw_levels):
            if int(entry["n"]) != n:
                raise ValueError(f"levels out of order at index {n}")
            if mode == EXACT:
                levels.append([Fraction(str(p)) for p in entry["probs"]])
            else:
                levels.append([float(p) for p in entry["probs"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed table JSON: {exc}") from exc
    return CylinderTable(levels, mode=mode)


def dump_table(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json(table), fh, indent=2)
        fh.write("\n")


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_json(json.load(fh))
