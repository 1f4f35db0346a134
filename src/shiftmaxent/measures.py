"""Truncated invariant measures on the binary full shift.

A measure truncated at depth N is stored as a :class:`CylinderTable`:
for every n <= N and every binary word w of length n, the mass p_w of
the cylinder [w]. A table extends to an invariant Borel probability
measure iff it is normalized (p_empty = 1), consistent
(p_{w0} + p_{w1} = p_w) and shift-invariant (p_{0w} + p_{1w} = p_w).

Level n is one read-only numpy array N_n of length 2^n over one integer
denominator D_n: p_w = N_n[int(w, 2)] / D_n. The children w0, w1 of
index i sit at 2i and 2i+1, and the words 0w, 1w at i and 2^n + i, so
the laws above are slice sums. Word strings appear only at the edges:
the mappings accepted by :class:`CylinderTable`, :meth:`CylinderTable.prob`,
:meth:`CylinderTable.level`, the `pinned` words of :func:`markov_step`
and :attr:`Violation.word`.

Tables come in two arithmetic modes. An "exact" level holds Python-int
numerators in an object array, and D_n is the least common denominator
of its masses, so equal tables have equal arrays; exact tables are
checked in integers with tolerance 0, and :meth:`CylinderTable.prob`
and :meth:`CylinderTable.level` give :class:`fractions.Fraction`
masses. A "float" level holds float64 masses with D_n = 1 and is
checked with a small tolerance. Float values of an exact level are
N_n / D_n, correctly rounded as ``float(Fraction)`` is. Every mass is
finite. Tables are immutable after construction and safe to share
across threads.

A table of depth k + 1 also stands for the order-k Markov measure with
those masses: :func:`markov_extend` takes the table itself and extends
it to any depth by :func:`markov_step`.

Every mass read from outside the package (table entries, spec values,
constraint bounds, recurrence targets) goes through :func:`parse_mass`,
the one rule for what is exact: strings, ints and Fractions are.
"""

from __future__ import annotations

import json
import math
import operator
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


def parse_mass(value):
    """A mass read from outside: a str ("1/3", "0.25"), int or Fraction
    as a Fraction, a float as is. A bool or other type raises TypeError,
    a zero denominator ValueError; the range is the caller's to check."""
    if isinstance(value, str) or _is_exact(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        return value
    raise TypeError(f"cannot read {value!r} as a mass")


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


def _over_lcd(masses):
    """(numerators, D) of a sequence of rationals, D their least common
    denominator."""
    fractions = [p if type(p) is Fraction else Fraction(p) for p in masses]
    # A level read from JSON shares one object per distinct mass, so each
    # object's ratio is read and scaled once.
    ratio = {id(f): f for f in fractions}
    for key, f in ratio.items():
        ratio[key] = int(f.numerator), int(f.denominator)
    den = math.lcm(*{d for _, d in ratio.values()})
    for key, (p, d) in ratio.items():
        ratio[key] = p * (den // d)
    nums = np.empty(len(fractions), dtype=object)
    nums[:] = [ratio[id(f)] for f in fractions]
    return nums, den


def _reduced(nums, den):
    """nums / den over the least common denominator of its values."""
    if den == 1:
        return nums, den
    g = math.gcd(den, *nums.tolist())
    return (nums // g, den // g) if g > 1 else (nums, den)


def _as_level(n, level, mode):
    """Level n as (array in index order, denominator), from a word
    mapping or a sequence of 2^n masses; every mass must be finite."""
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
            arr, den = _over_lcd(level)
        else:
            arr, den = np.array(level, dtype=float), 1
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"bad mass at level {n}: {exc}") from None
    if arr.shape != (1 << n,):
        raise StructuralError(f"level {n} needs {1 << n} scalar masses")
    if mode == FLOAT and not np.isfinite(arr).all():
        i = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise StructuralError(f"non-finite mass {arr[i]} at {_word(i, n)!r}")
    return arr, den


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

    __slots__ = ("_levels", "_dens", "_mode")

    def __init__(self, levels, mode=None):
        levels = list(levels)
        if mode is None:
            mode = _infer_mode(levels)
        elif mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        pairs = [_as_level(n, level, mode) for n, level in enumerate(levels)]
        self._set([arr for arr, _ in pairs], [den for _, den in pairs], mode)

    @classmethod
    def _of(cls, levels, dens, mode):
        """Table over ready levels (numerators or float64 masses) and
        their denominators, in the representation described above."""
        table = cls.__new__(cls)
        table._set(levels, dens, mode)
        return table

    def _set(self, levels, dens, mode):
        if len(levels) < 2:
            raise StructuralError("a table needs levels 0..N with N >= 1")
        for level in levels:
            level.flags.writeable = False
        self._levels, self._dens, self._mode = tuple(levels), tuple(dens), mode

    @property
    def depth(self):
        return len(self._levels) - 1

    @property
    def mode(self):
        return self._mode

    def _floats(self, n):
        """Level n as float64 masses, N_n / D_n correctly rounded."""
        return np.asarray(self._levels[n] / self._dens[n], dtype=float)

    def prob(self, word):
        """Mass of the cylinder [word]."""
        check_word(word)
        if len(word) > self.depth:
            raise StructuralError(
                f"word {word!r} is deeper than the table (depth {self.depth})")
        n = len(word)
        p = self._levels[n].item(_index(word))
        return p if self._mode == FLOAT else Fraction(p, self._dens[n])

    def level(self, n):
        """Copy of the level-n mapping (word -> mass)."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} out of range 0..{self.depth}")
        masses = self._levels[n].tolist()
        if self._mode == EXACT:
            masses = [Fraction(p, self._dens[n]) for p in masses]
        return dict(zip(all_words(n), masses))

    def __eq__(self, other):
        if not isinstance(other, CylinderTable):
            return NotImplemented
        return (self._mode == other._mode
                and self._dens == other._dens
                and all(np.array_equal(a, b)
                        for a, b in zip(self._levels, other._levels)))

    def __repr__(self):
        return f"CylinderTable(depth={self.depth}, mode={self._mode!r})"


def bernoulli_table(p, depth):
    """Product (Bernoulli) measure with mass p on digit 0, to `depth`."""
    p = parse_mass(p)
    depth = _integer(depth, "depth")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if isinstance(p, Fraction):
        # p = a/b in lowest terms: every nonzero mass a^k (b-a)^(n-k) / b^n
        # is too, so b^n is the least common denominator of level n.
        mode, den, digit = EXACT, p.denominator, [p.numerator, p.denominator - p.numerator]
    else:
        mode, den, digit = FLOAT, 1, [p, 1.0 - p]
    digit = np.array(digit, dtype=object if mode == EXACT else float)
    levels = [np.ones(1, dtype=digit.dtype)]
    for _ in range(depth):
        levels.append(np.multiply.outer(levels[-1], digit).ravel())
    return CylinderTable._of(levels, [den ** n for n in range(depth + 1)], mode)


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
    while stack[-1][0].size > 1:
        level, den = stack[-1]
        stack.append(_reduced(level[0::2] + level[1::2], den))
    stack.reverse()
    return CylinderTable._of([level for level, _ in stack],
                             [den for _, den in stack], mode)


def truncate_table(table, depth):
    """Restriction of `table` to the given smaller (or equal) depth."""
    depth = _integer(depth, "depth")
    if not 1 <= depth <= table.depth:
        raise ValueError(f"depth {depth} out of range 1..{table.depth}")
    return CylinderTable._of(table._levels[:depth + 1], table._dens[:depth + 1],
                             table.mode)


def max_abs_deviation(table_a, table_b):
    """Largest |p_w(a) - p_w(b)| over all levels both tables share."""
    return max(float(np.abs(table_a._floats(n) - table_b._floats(n)).max())
               for n in range(min(table_a.depth, table_b.depth) + 1))


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


def _ratios(diffs, den):
    """diffs / den elementwise: Fractions for exact (object) arrays,
    floats for float arrays (den is then 1)."""
    if diffs.dtype != object:
        return diffs / den
    out = np.empty(diffs.size, dtype=object)
    out[:] = [Fraction(d, den) for d in diffs.tolist()]
    return out


def validate(table, tolerance=None):
    """Check normalization, consistency, invariance and 0 <= p_w <= 1.

    Numeric violations are collected in the report. `tolerance`
    defaults to 0 for exact tables and to ``FLOAT_TOLERANCE`` for float
    tables. Exact laws are compared in integers, and a residual is
    formed as a Fraction only where the two sides differ.
    """
    if tolerance is None:
        tolerance = 0 if table.mode == EXACT else FLOAT_TOLERANCE
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    levels, dens = table._levels, table._dens
    violations = []

    def check(kind, word, residual):
        if residual > tolerance:
            violations.append(Violation(kind, word, float(residual)))

    check("normalization", "", _ratios(np.abs(levels[0] - dens[0]), dens[0])[0])
    for n, (level, den) in enumerate(zip(levels, dens)):
        bad = np.flatnonzero((level < 0) | (level > den))
        over = np.where(level[bad] < 0, -level[bad], level[bad] - den)
        for i, residual in zip(bad, _ratios(over, den)):
            check("range", _word(i, n), residual)
    for n in range(table.depth):
        level, child = levels[n], levels[n + 1]
        # p_w = N_n / D_n and the sums below are over D_(n+1). D_n divides
        # D_(n+1) only if the table is consistent, so both sides go over
        # the least common multiple.
        g = math.gcd(dens[n], dens[n + 1])
        up, down = dens[n] // g, dens[n + 1] // g
        right = child[0::2] + child[1::2]    # p_{w0} + p_{w1}
        left = child[:1 << n] + child[1 << n:]   # p_{0w} + p_{1w}
        if up != 1:
            right, left = right * up, left * up
        if down != 1:
            level = level * down
        # Residuals only where a sum differs: exact subtraction is slow.
        idx = np.flatnonzero((right != level) | (left != level))
        common = up * dens[n + 1]
        consistency = _ratios(np.abs(right[idx] - level[idx]), common)
        invariance = _ratios(np.abs(left[idx] - level[idx]), common)
        for j in np.flatnonzero((consistency > tolerance) | (invariance > tolerance)):
            word = _word(idx[j], n)
            check("consistency", word, consistency[j])
            check("invariance", word, invariance[j])
    return ValidationReport(ok=not violations, tolerance=float(tolerance),
                            violations=tuple(violations))


# ---------------------------------------------------------------------------
# Markov measures
# ---------------------------------------------------------------------------

def markov_step(table, memory, pinned=None):
    """`table` one level deeper by the order-`memory` Markov rule.

    The new level m = depth + 1 holds p_{ue} = p_u p_{ve} / p_v for each
    word u of length m - 1 and symbol e, where v is the last `memory`
    symbols of u (0 <= memory < m - 1), and 0 where p_u or p_v is 0.
    `pinned` maps words of length m to masses that replace the rule.
    An exact level forms each cell as an integer ratio, reduces it by
    its gcd and puts the level over the lcm of the reduced denominators,
    its least common denominator.
    """
    m = table.depth + 1
    if not 0 <= memory < m - 1:
        raise ValueError(f"memory {memory} out of range 0..{m - 2}")
    pinned = dict(pinned or {})
    for word in pinned:
        check_word(word)
        if len(word) != m:
            raise StructuralError(f"pinned word {word!r} is not of length {m}")
    pinned = {_index(word): p for word, p in pinned.items()}
    u = np.arange(1 << m)
    x = u >> 1                       # u
    y = u & ((2 << memory) - 1)      # ve
    z = x & ((1 << memory) - 1)      # v
    levels, dens = table._levels, table._dens
    px, py, pz = levels[m - 1][x], levels[memory + 1][y], levels[memory][z]
    dx, dy, dz = dens[m - 1], dens[memory + 1], dens[memory]
    if table.mode == EXACT:
        num, den = px * py * dz, pz * (dx * dy)
        for i, p in pinned.items():
            q = Fraction(p)
            num[i], den[i] = q.numerator, q.denominator
        dead = den == 0
        num[dead], den[dead] = 0, 1
        g = np.gcd(num, den)
        g[den < 0] *= -1    # denominators stay positive under negative masses
        num, den = num // g, den // g
        lcd = math.lcm(*set(den.tolist()))
        level, den = num * (lcd // den), lcd
    else:
        level = np.divide(px * py, pz, out=np.zeros(1 << m),
                          where=(px != 0) & (pz != 0))
        level[list(pinned)] = list(pinned.values())
        level, den = _as_level(m, level, FLOAT)
    return CylinderTable._of(levels + (level,), dens + (den,), table.mode)


def markov_extend(table, target_depth):
    """`table` extended to `target_depth` as the order-k Markov measure
    of its top level, k = table.depth - 1.

    For n > k+1 the conditional of the next symbol depends only on the
    last k symbols:  p_{x_1..x_n} = p_{x_1..x_{n-1}} *
    p_{x_{n-k}..x_n} / p_{x_{n-k}..x_{n-1}}, with zero children under a
    zero denominator (see :func:`markov_step`).
    """
    k = table.depth - 1
    target_depth = _integer(target_depth, "target_depth")
    if target_depth < k + 1:
        raise ValueError(f"target depth {target_depth} < order+1 = {k + 1}")
    while table.depth < target_depth:
        table = markov_step(table, k)
    return table


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
    parents = np.repeat(table._floats(n - 1), 2)
    children = table._floats(n)
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
    """A finite binary sequence and the seed that drew it (0 if not drawn)."""

    bits: np.ndarray
    seed: int

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
    def from_line(cls, line):
        bits = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(bits=bits, seed=0)


def _conditionals(table):
    """P(next symbol = 1 | the j < depth symbols w before it), as an array.

    The conditional given w sits at index (1 << j) | int(w, 2); index 0
    is unused. Every step from the depth-th on conditions on its last
    depth-1 symbols (the Markov extension).
    """
    levels = [table._floats(n) for n in range(table.depth + 1)]
    parents = np.concatenate(levels[:-1])
    ones = np.concatenate([level[1::2] for level in levels[1:]])
    cond = np.zeros(parents.size + 1)
    live = parents > 0.0
    cond[1:][live] = np.clip(ones[live] / parents[live], 0.0, 1.0)
    return cond


#: Uniforms held at once: orbits are drawn in batches of at most this
#: many bits (or one orbit), which bounds the sampler's memory.
_BATCH_BITS = 1 << 20
#: Below about 90 lanes the vector pass and its check cost more than the
#: per-bit loop they replace (measured at depths 3-8).
_MIN_LANES = 96
#: Steps each lane takes before its block: enough for a mixing table's
#: chains to forget the guessed start, and few beside a block of
#: hundreds of steps.
_WARMUP = 32
#: Steps the scalar check takes before it first checks for coupling.
_REPAIR_STEPS = 8


def _walk(cond, zero, state, u, bits, pos):
    """The per-bit rule bit_j = u_j < cond[state_j], one step at a time.

    Writes the bit of every uniform in the list `u` to bits[pos:] and
    returns the final state; zero[s] is the state after a 0 from s, and
    zero[s] | 1 the state after a 1 (see :func:`_draw_bits`).
    """
    for j, uj in enumerate(u, pos):
        if uj < cond[state]:
            bits[j] = 1
            state = zero[state] | 1
        else:
            bits[j] = 0
            state = zero[state]
    return state


def _blocks(count, length):
    """(nb, steps) for `count` orbits of `length` bits: each orbit is cut
    into nb blocks of `steps` steps (the last may be shorter), and
    count * nb is about sqrt(2 * count * length)."""
    nb = max(1, min(length, round(math.isqrt(2 * count * length) / count)))
    steps = -(-length // nb)
    return -(-length // steps), steps


def _draw_bits(cond, guess, length, seeds):
    """Orbit i driven by default_rng(seeds[i]).random(length), as row i
    of a uint8 array; `guess` is the state from which every block's lane
    warms up (see :func:`sample_orbits`).

    Block b of orbit i is one numpy lane. It starts from `guess` at step
    b * steps - _WARMUP, reading zeros before step 0, and stores its
    states from its block's first step on; lane 0 is reset to the empty
    history when its warm-up ends, so block 0 is exact. The scalar check
    then compares each block's true start (the end of the block before
    it) with its lane's state at the block start, and on a mismatch
    re-runs the block bit by bit until the two chains meet.
    """
    count = len(seeds)
    end = cond.size
    nb, steps = _blocks(count, length)
    padded = np.zeros((count, _WARMUP + nb * steps))
    u = padded[:, _WARMUP:]
    for i, s in enumerate(seeds):
        np.random.default_rng(s).random(out=u[i, :length])
    if end == 2:    # depth 1: independent symbols
        return (u[:, :length] < cond[1]).astype(np.uint8)
    bits = bytearray(count * length)
    out = np.frombuffer(bits, dtype=np.uint8).reshape(count, length)
    condl = cond.tolist()
    # A state is a leading 1 followed by the conditioning symbols; once it
    # holds depth symbols it keeps only the last depth-1, so from step
    # depth-1 on it lies in [end/2, end). zero[s] is the state after a 0.
    top = end >> 1
    zero = np.arange(end) << 1
    zero[top:] = zero[top:] & top - 1 | top
    zerol = zero.tolist()
    if count * nb < _MIN_LANES:
        for i in range(count):
            _walk(condl, zerol, 1, u[i, :length].tolist(), bits, i * length)
        return out
    # Vector pass: lane (i, b) reads draws[i, b, t], the uniform of step
    # b * steps - _WARMUP + t, and states[t, i, b] is its state after
    # step b * steps + t; the state's last bit is the bit.
    draws = np.lib.stride_tricks.sliding_window_view(
        padded, _WARMUP + steps, axis=1)[:, ::steps]
    states = np.empty((steps, count, nb), dtype=np.min_scalar_type(end - 1))
    state = np.full((count, nb), guess)
    p_one = np.empty((count, nb))
    one = np.empty_like(state)
    nxt = np.empty_like(state)
    for t in range(-_WARMUP, steps):
        if t == 0:
            state[:, 0] = 1
            starts = state.tolist()
        cond.take(state, out=p_one, mode="clip")
        np.less(draws[:, :, _WARMUP + t], p_one, out=one)
        zero.take(state, out=nxt, mode="clip")
        np.bitwise_or(nxt, one, out=nxt)
        state, nxt = nxt, state
        if t >= 0:
            states[t] = state
    lanes = states.transpose(1, 2, 0).reshape(count, nb * steps)
    np.bitwise_and(lanes[:, :length], 1, out=out)
    # Check: a block whose true start state (the end of the block before
    # it) is not its lane's is re-run by the scalar rule from its true
    # state until that chain meets the lane; they agree from there on.
    sizes = [min(steps, length - b * steps) for b in range(nb)]
    final = states[np.array(sizes) - 1, :, np.arange(nb)].T.tolist()
    for i in range(count):
        state = final[i][0]
        for b in range(1, nb):
            if state == starts[i][b]:
                state = final[i][b]
                continue
            pos = b * steps
            t, k = 0, _REPAIR_STEPS
            while t < sizes[b]:
                k = min(k, sizes[b] - t)
                state = _walk(condl, zerol, state, u[i, pos + t:pos + t + k].tolist(),
                              bits, i * length + pos + t)
                t += k
                if state == states.item(t - 1, i, b):
                    state = final[i][b]
                    break
                k *= 2
    return out


def _integer(value, name):
    """`value` (an int or a numpy integer) as an int. A bool, whose
    True would stand for 1, or a float, which int() would truncate,
    raises TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, not {value!r}")


def sample_orbits(table, length, count, seed):
    """Draw `count` independent orbit prefixes; sample i uses seed XOR i.

    The first depth symbols use the successive table conditionals
    p_{we}/p_w; later symbols follow the order-(depth-1) Markov
    extension. Bit j of sample i is u_j < P(1 | its state), with
    u = default_rng(seed ^ i).random(length), so the output is
    deterministic and sample i does not depend on the others. `length`,
    `count` and `seed` must be integers (numpy integers too); a bool or
    a float raises TypeError.

    The orbits are drawn together, in batches of about a million bits
    that bound the memory used. Each orbit is cut into blocks, and numpy
    runs every block of every orbit as one lane, a step at a time. A
    lane starts from a guess, the likeliest state, a few dozen steps
    before its block and follows the orbit's uniforms from there, so
    that it mostly reaches the block in its true state; the first
    block's lane restarts from the empty history at its block. Last,
    block by block, a block whose true start state (the end of the
    block before it) differs from its lane's is re-run one bit at a
    time until the two chains meet, after which they agree. The bits
    are those of the per-bit rule, byte for byte; a chain that never
    meets, such as a periodic orbit's, costs the per-bit loop plus the
    vector pass. About sqrt(2 * bits) lanes balance the passes, and
    small draws take the per-bit loop alone.
    """
    length = _integer(length, "length")
    count = _integer(count, "count")
    seed = _integer(seed, "seed")
    if length < 1:
        raise ValueError("length must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    report = validate(table)
    if not report.ok:
        raise ValueError(f"invalid table: {report.describe()}")
    cond = _conditionals(table)
    guess = (1 << (table.depth - 1)) + int(np.argmax(table._floats(table.depth - 1)))
    seeds = [seed ^ i for i in range(count)]
    per_batch = max(1, _BATCH_BITS // length)
    out = []
    for lo in range(0, count, per_batch):
        batch = seeds[lo:lo + per_batch]
        out.extend(OrbitSample(bits=bits, seed=s)
                   for s, bits in zip(batch, _draw_bits(cond, guess, length, batch)))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fraction_texts(nums, den, form=str):
    """form(Fraction(p, den)) for each numerator p, each distinct p
    reduced by its gcd with den once."""
    values = nums.tolist()
    text = {p: form(Fraction(p, den)) for p in set(values)}
    return [text[p] for p in values]


def _float_texts(level):
    """repr of each float64 mass, each distinct bit pattern formatted
    once (so -0.0 and 0.0 stay apart)."""
    bits, inverse = np.unique(level.view(np.int64), return_inverse=True)
    texts = np.array([repr(p) for p in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def table_to_json(table):
    """JSON object for a table; exact masses become "num/den" strings."""
    exact = table.mode == EXACT
    levels = [{"n": n, "probs": _fraction_texts(level, den) if exact else level.tolist()}
              for n, (level, den) in enumerate(zip(table._levels, table._dens))]
    return {"depth": table.depth, "mode": table.mode, "levels": levels}


def table_text(table):
    """The table file: exactly ``json.dumps(table_to_json(table),
    indent=2) + "\n"``, one mass per line, built without the JSON encoder."""
    exact = table.mode == EXACT
    # One join at the end: joining level strings, then the file, would copy
    # every mass twice more and leave the peak memory higher than json's.
    parts = [f'{{\n  "depth": {table.depth},\n  "mode": "{table.mode}",\n  "levels": [']
    for n, (level, den) in enumerate(zip(table._levels, table._dens)):
        masses = (_fraction_texts(level, den, lambda f: f'"{f}"') if exact
                  else _float_texts(level))
        parts += ["," if n else "",
                  f'\n    {{\n      "n": {n},\n      "probs": [\n        ',
                  ",\n        ".join(masses), "\n      ]\n    }"]
    parts.append("\n  ]\n}\n")
    return "".join(parts)


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
                texts = [str(p) for p in entry["probs"]]
                parsed = {text: parse_mass(text) for text in dict.fromkeys(texts)}
                levels.append([parsed[text] for text in texts])
            else:
                levels.append([p if type(p) is float else float(parse_mass(p))
                               for p in entry["probs"]])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed table JSON: {exc}") from exc
    return CylinderTable(levels, mode=mode)


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_json(json.load(fh))
