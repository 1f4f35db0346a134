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
import math
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

def _bits_array(x):
    """The bits of x (an :class:`OrbitSample` or a 1-d sequence) as a
    uint8 array; any value other than 0 or 1 is rejected."""
    if isinstance(x, OrbitSample):
        return x.bits
    values = np.asarray(x)
    if values.ndim != 1:
        raise ValueError("bits must be a 1-d sequence")
    if not ((values == 0) | (values == 1)).all():
        raise ValueError("bits must be 0/1")
    return values.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class OrbitSample:
    """A finite binary sequence with its provenance."""

    bits: np.ndarray
    seed: int
    source: str

    def __post_init__(self):
        bits = _bits_array(self.bits)
        if bits.size < 1:
            raise ValueError("bits must be nonempty")
        object.__setattr__(self, "bits", bits)

    def __len__(self):
        return int(self.bits.size)

    def to_line(self):
        return (self.bits + ord("0")).tobytes().decode("ascii")

    @classmethod
    def from_line(cls, line, source="file"):
        bits = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(bits=bits, seed=0, source=source)


def _conditionals(table):
    """P(next symbol = 1 | the j < depth symbols w before it), as an array.

    The conditional given w sits at index (1 << j) | int(w, 2); index 0
    is unused. Every step from the depth-th on conditions on its last
    depth-1 symbols (the Markov extension).
    """
    parents = np.concatenate(table._levels[:-1]).astype(float)
    ones = np.concatenate([level[1::2] for level in table._levels[1:]]).astype(float)
    cond = np.zeros(parents.size + 1)
    live = parents > 0.0
    cond[1:][live] = np.clip(ones[live] / parents[live], 0.0, 1.0)
    return cond


#: Uniforms held at once: orbits are drawn in batches of at most this
#: many bits (or one orbit), which bounds the sampler's memory.
_BATCH_BITS = 1 << 20
#: Below about 90 lanes the vector pass and its repairs cost more than
#: the per-bit loop they replace (measured at depths 3-8).
_MIN_LANES = 96
#: Steps the repair takes before it first checks for coupling.
_REPAIR_STEPS = 8


def _walk(cond, end, state, u, bits, pos):
    """The per-bit rule bit_j = u_j < cond[state_j], one step at a time.

    Writes the bit of every uniform in the list `u` to bits[pos:] and
    returns the final state. A state is a leading 1 followed by the
    conditioning symbols; once it holds depth symbols it keeps only the
    last depth-1, so from step depth-1 on it lies in [end/2, end).
    """
    top = end >> 1
    low = top - 1
    for j, uj in enumerate(u, pos):
        if uj < cond[state]:
            bits[j] = 1
            state = state << 1 | 1
        else:
            bits[j] = 0
            state <<= 1
        if state >= end:
            state = top | state & low
    return state


def _blocks(count, length, depth):
    """(head, nb, steps) for `count` orbits of `length` bits at `depth`:
    each orbit takes `head` steps while its state grows, then nb blocks
    of `steps` steps (the last may be shorter), and count * nb is about
    sqrt(2 * count * length)."""
    head = min(length, depth - 1)
    rest = length - head
    if not rest:
        return head, 0, 0
    nb = max(1, min(rest, round(math.isqrt(2 * count * length) / count)))
    steps = -(-rest // nb)
    return head, -(-rest // steps), steps


def _draw_bits(cond, guess, length, seeds):
    """Orbit i driven by default_rng(seeds[i]).random(length), as row i
    of a uint8 array; `guess` is the state each block after the first
    assumes at its start (see :func:`sample_orbits`)."""
    count = len(seeds)
    end = cond.size
    head, nb, steps = _blocks(count, length, end.bit_length() - 1)
    rest = length - head
    u = np.zeros((count, head + nb * steps))
    for i, s in enumerate(seeds):
        np.random.default_rng(s).random(out=u[i, :length])
    if end == 2:    # depth 1: independent symbols
        return (u[:, :length] < cond[1]).astype(np.uint8)
    bits = bytearray(count * length)
    out = np.frombuffer(bits, dtype=np.uint8).reshape(count, length)
    condl = cond.tolist()
    if count * nb < _MIN_LANES:
        for i in range(count):
            _walk(condl, end, 1, u[i, :length].tolist(), bits, i * length)
        return out
    # Vector pass: block b of orbit i is one lane, starting from the true
    # state for b = 0 and from `guess` otherwise; states[t, i, b] is the
    # lane's state after its step t, and the state's last bit is the bit.
    state = np.full((count, nb), guess)
    for i in range(count):
        state[i, 0] = _walk(condl, end, 1, u[i, :head].tolist(), bits, i * length)
    top = end >> 1
    after_zero = np.arange(end) << 1 & top - 1 | top
    blocks = u[:, head:].reshape(count, nb, steps)
    states = np.empty((steps, count, nb), dtype=np.min_scalar_type(end - 1))
    p_one = np.empty((count, nb))
    one = np.empty_like(state)
    nxt = np.empty_like(state)
    for t in range(steps):
        cond.take(state, out=p_one, mode="clip")
        np.less(blocks[:, :, t], p_one, out=one)
        after_zero.take(state, out=nxt, mode="clip")
        np.bitwise_or(nxt, one, out=nxt)
        state, nxt = nxt, state
        states[t] = state
    lanes = states.transpose(1, 2, 0).reshape(count, nb * steps)
    np.bitwise_and(lanes[:, :rest], 1, out=out[:, head:])
    # Repair: a block whose true start state (the end of the block before
    # it) is not the guess is re-run by the scalar rule from the true
    # state until that chain meets the lane's; they agree from there on.
    sizes = [min(steps, rest - b * steps) for b in range(nb)]
    final = states[np.array(sizes) - 1, :, np.arange(nb)].T.tolist()
    for i in range(count):
        state = final[i][0]
        for b in range(1, nb):
            if state == guess:
                state = final[i][b]
                continue
            pos = head + b * steps
            t, k = 0, _REPAIR_STEPS
            while t < sizes[b]:
                k = min(k, sizes[b] - t)
                state = _walk(condl, end, state, u[i, pos + t:pos + t + k].tolist(),
                              bits, i * length + pos + t)
                t += k
                if state == states.item(t - 1, i, b):
                    state = final[i][b]
                    break
                k *= 2
    return out


def sample_orbit(table, length, seed):
    """Draw one orbit prefix: ``sample_orbits(table, length, 1, seed)[0]``."""
    return sample_orbits(table, length, 1, seed)[0]


def sample_orbits(table, length, count, seed):
    """Draw `count` independent orbit prefixes; sample i uses seed XOR i.

    The first depth symbols use the successive table conditionals
    p_{we}/p_w; later symbols follow the order-(depth-1) Markov
    extension. Bit j of sample i is u_j < P(1 | its state), with
    u = default_rng(seed ^ i).random(length), so the output is
    deterministic and sample i does not depend on the others.

    The orbits are drawn together, in batches of about a million bits
    that bound the memory used. Past its first depth-1 steps each orbit
    is cut into blocks, and numpy runs every block of every orbit as one
    lane, a step at a time; a block after the first starts from a
    guess, the likeliest state. Then, block by block, a block whose true
    start state differs from the guess is re-run one bit at a time until
    its state meets the lane's, after which the two chains agree. The
    bits are those of the per-bit rule, byte for byte; a chain that
    never meets, such as a periodic orbit's, costs the per-bit loop plus
    the vector pass. About sqrt(2 * bits) lanes balance the two passes,
    and small draws take the per-bit loop alone.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    report = validate(table)
    if not report.ok:
        raise ValueError(f"invalid table: {report.describe()}")
    cond = _conditionals(table)
    guess = (1 << (table.depth - 1)) + int(np.argmax(table._levels[-2].astype(float)))
    source = f"table(depth={table.depth}, mode={table.mode})"
    seeds = [int(seed) ^ i for i in range(count)]
    per_batch = max(1, _BATCH_BITS // length)
    out = []
    for lo in range(0, count, per_batch):
        batch = seeds[lo:lo + per_batch]
        out.extend(OrbitSample(bits=bits, seed=s, source=source)
                   for s, bits in zip(batch, _draw_bits(cond, guess, length, batch)))
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


def _json_int(value, what):
    """An integral JSON number as int; 2.9 is malformed, not 2."""
    n = int(value)
    if n != value:
        raise ValueError(
            f"malformed table JSON: {what} must be an integer, got {value!r}")
    return n


def table_from_json(obj):
    """Inverse of :func:`table_to_json` (probs in lexicographic order)."""
    try:
        depth = _json_int(obj["depth"], "depth")
        mode = obj["mode"]
        raw_levels = obj["levels"]
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        if len(raw_levels) != depth + 1:
            raise ValueError(f"expected {depth + 1} levels, got {len(raw_levels)}")
        levels = []
        for n, entry in enumerate(raw_levels):
            if _json_int(entry["n"], "n") != n:
                raise ValueError(f"levels out of order at index {n}")
            if mode == EXACT:
                levels.append([Fraction(str(p)) for p in entry["probs"]])
            else:
                levels.append([float(p) for p in entry["probs"]])
    except (KeyError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed table JSON: {exc}") from exc
    return CylinderTable(levels, mode=mode)


def dump_table(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json(table), fh, indent=2)
        fh.write("\n")


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_json(json.load(fh))
