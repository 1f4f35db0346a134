"""Empirical recurrence frequencies along finite orbits.

The recurrence of a word w along x at horizon n is the Birkhoff average
of the cylinder indicator, (1/n) #{0 <= j < n : x_j..x_{j+|w|-1} = w}.
The horizon may not exceed the length of x. Windows that overrun the
end of the sample count as misses, which keeps the average a total
function; the resulting boundary error is at most (|w| + 1)/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedRatioError
from .measures import OrbitSample, _bits_array
from .words import canonical_index, check_word


def match_count(x, word, horizon):
    """Number of window starts j < horizon where `word` occurs in x;
    the horizon must lie in 1..len(x)."""
    check_word(word)
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
    if length < 1:
        raise ValueError("length must be >= 1")
    blocks = []
    total = 0
    run = 1
    while total < length:
        blocks.append(np.zeros(run, dtype=np.uint8))
        blocks.append(np.ones(run, dtype=np.uint8))
        total += 2 * run
        run += 1
    bits = np.concatenate(blocks)[:length]
    return OrbitSample(bits=bits, seed=0,
                       source="alternating runs 0^k 1^k")


def weighted_deviation(x, horizon, targets):
    """Distance of the empirical averages to the targets in the weighted
    metric sum_i 2^{-i} |A_n(w_i) - alpha_i|.

    Weights come from the canonical length-lexicographic enumeration of
    words (index 1 for "0"), not from the position in `targets`.
    """
    seen = set()
    total = 0.0
    for word, alpha in targets:
        check_word(word)
        if word in seen:
            raise ValueError(f"duplicate target word {word!r}")
        seen.add(word)
        weight = 2.0 ** (-canonical_index(word))
        total += weight * abs(recurrence(x, word, horizon) - float(alpha))
    return total


def ratio_average(x, f_word, g_word, horizon):
    """recurrence(f_word) / recurrence(g_word) at a common horizon."""
    denominator = recurrence(x, g_word, horizon)
    if denominator == 0.0:
        raise UndefinedRatioError(
            f"denominator word {g_word!r} never occurs in the first "
            f"{horizon} windows")
    return recurrence(x, f_word, horizon) / denominator


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
        targets = tuple(float(t) for t in targets)
        if len(targets) != len(words):
            raise ValueError("targets must align with words")
        if not all(0.0 <= t <= 1.0 for t in targets):
            raise ValueError(f"targets must lie in [0, 1], got {targets}")
    averages = tuple(recurrence(x, w, horizon) for w in words)
    return RecurrenceProfile(words=words, horizon=horizon,
                             averages=averages, targets=targets)
