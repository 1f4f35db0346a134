"""Empirical recurrence frequencies along finite orbits.

The recurrence of a word w along x at horizon n is the Birkhoff average
of the cylinder indicator, (1/n) #{0 <= j < n : x_j..x_{j+|w|-1} = w}.
The horizon may not exceed the length of x. Windows that overrun the
end of the sample count as misses, which keeps the average a total
function; the resulting boundary error is at most (|w| + 1)/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import OrbitSample, _bits_array, _integer, parse_mass
from .words import canonical_index, check_word


def match_count(x, word, horizon):
    """Number of window starts j < horizon where `word` occurs in x;
    the horizon must be an integer in 1..len(x)."""
    check_word(word)
    horizon = _integer(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    bits = _bits_array(x)
    if horizon > bits.size:
        raise ValueError(f"horizon {horizon} exceeds the sample length {bits.size}")
    m = len(word)
    if m == 0:
        return horizon  # the whole space: every window hits
    nwin = min(horizon, bits.size - m + 1)
    if nwin <= 0:
        return 0
    acc = np.ones(nwin, dtype=bool)
    for i, ch in enumerate(word):
        acc &= bits[i:i + nwin] == (1 if ch == "1" else 0)
    return int(acc.sum())


def recurrence(x, word, horizon):
    """Empirical frequency of the cylinder [word] at the given horizon.

    The empty word denotes the whole space and returns 1.
    """
    return match_count(x, word, horizon) / horizon


def generic_point_half(length):
    """The deterministic point 0 1 00 11 000 111 ... truncated to `length`.

    Every zero-block frequency of this point converges to 1/2.
    """
    length = _integer(length, "length")
    if length < 1:
        raise ValueError("length must be >= 1")
    # runs 0^1 1^1 0^2 1^2 ...; r pairs with r (r + 1) > length suffice
    r = math.isqrt(length) + 1
    bits = np.repeat(np.tile(np.array([0, 1], dtype=np.uint8), r),
                     np.arange(2, 2 * r + 2) // 2)[:length]
    return OrbitSample(bits=bits, seed=0)


def weighted_deviation(x, horizon, targets):
    """Distance of the empirical averages to the targets in the weighted
    metric sum_i 2^{-i} |A_n(w_i) - alpha_i|.

    Weights come from the canonical length-lexicographic enumeration of
    words (index 1 for "0"), not from the position in `targets`. Each
    target is read by :func:`measures.parse_mass` and must lie in [0, 1].
    """
    targets = list(targets)   # it may be an iterator, read twice below
    profile = recurrence_profile(x, [w for w, _ in targets], horizon,
                                 targets=[alpha for _, alpha in targets])
    return sum((2.0 ** -canonical_index(w) * abs(average - target)
                for w, average, target in zip(profile.words, profile.averages,
                                              profile.targets)), 0.0)


@dataclass(frozen=True)
class RecurrenceProfile:
    """Empirical averages of several words at one horizon."""

    words: tuple
    horizon: int
    averages: tuple
    targets: tuple = None

    def csv_rows(self):
        rows = ["word,horizon,average,target,deviation"]
        for i, w in enumerate(self.words):
            if self.targets is None:
                rows.append(f"{w},{self.horizon},{self.averages[i]!r},,")
            else:
                t = float(self.targets[i])
                rows.append(f"{w},{self.horizon},{self.averages[i]!r},"
                            f"{t!r},{abs(self.averages[i] - t)!r}")
        return rows


def recurrence_profile(x, words, horizon, targets=None):
    words = tuple(words)
    for word in words:
        if words.count(word) > 1:
            raise ValueError(f"duplicate word {word!r}")
    if targets is not None:
        given = list(targets)
        targets = tuple(map(parse_mass, given))
        if len(targets) != len(words):
            raise ValueError("targets must align with words")
        if not all(0 <= t <= 1 for t in targets):
            raise ValueError(f"targets must lie in [0, 1], got {given}")
        targets = tuple(map(float, targets))
    averages = tuple(recurrence(x, w, horizon) for w in words)
    return RecurrenceProfile(words=words, horizon=horizon,
                             averages=averages, targets=targets)
