"""Desk-scale empirical entropy estimators for binary samples.

On the binary shift an (n, eps)-ball at cylinder resolution is just an
n-cylinder, so both estimators reduce to counting length-n factors:

- word-count growth: (1/n) log(#distinct observed n-words);
- Katok-style count: (1/n) log r, where r is the least number of
  n-words whose pooled empirical mass reaches 1 - delta. Since covers
  are unions of disjoint cylinders, taking words by decreasing
  frequency is exactly optimal.

Both read one pooled count of the samples' length-n windows, and
`entropy_estimates` gives the two numbers from a single count. Each
window is coded as the integer it spells in binary; the codes are built
by doubling the window width, so a count takes about log2 n array passes.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import _bits_array

_MAX_WORD_LENGTH = 62  # packed into int64 window codes


def _window_codes(bits, n):
    """int(bits[i:i+n], 2) for every window start i, built from the codes
    of widths 1, 2, 4, ... (width 2w is (c_w[:-w] << w) | c_w[w:]) joined
    along the binary digits of n."""
    block, w = bits.astype(np.int64), 1    # the codes of width w
    codes, width = None, 0                 # the codes of width `width`
    while True:
        if n & w:
            if codes is None:
                codes, width = block, w
            else:
                codes = (codes[:block.size - width] << w) | block[width:]
                width += w
        if 2 * w > n:
            return codes
        block = (block[:-w] << w) | block[w:]
        w *= 2


def _word_counts(samples, n):
    """Occurrences of each distinct length-n word, pooled over the samples."""
    if not samples:
        raise ValueError("need at least one sample")
    if not 1 <= n <= _MAX_WORD_LENGTH:
        raise ValueError(f"word length must be in 1..{_MAX_WORD_LENGTH}")
    arrays = [_bits_array(s) for s in samples]
    if min(a.size for a in arrays) < n:
        raise ValueError("word length exceeds the shortest sample")
    codes = np.concatenate([_window_codes(a, n) for a in arrays])
    return np.unique(codes, return_counts=True)[1]


def _check_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def _katok_from_counts(counts, n, delta):
    counts = np.sort(counts)[::-1]
    total = counts.sum()
    threshold = (1.0 - delta) * total
    cumulative = np.cumsum(counts)
    r = int(np.searchsorted(cumulative, threshold - 1e-9 * total, side="left")) + 1
    return math.log(r) / n


def entropy_estimates(samples, n, delta):
    """(word_count_entropy, katok_entropy) of the samples, from one count."""
    _check_delta(delta)
    counts = _word_counts(samples, n)
    return math.log(counts.size) / n, _katok_from_counts(counts, n, delta)


def word_count_entropy(samples, n):
    """(1/n) log of the number of distinct length-n factors observed."""
    return math.log(_word_counts(samples, n).size) / n


def katok_entropy(samples, n, delta):
    """(1/n) log of the least number of n-words covering empirical mass
    1 - delta (words taken in decreasing frequency)."""
    _check_delta(delta)
    return _katok_from_counts(_word_counts(samples, n), n, delta)
