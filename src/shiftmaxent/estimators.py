"""Desk-scale empirical entropy estimators for binary samples.

On the binary shift an (n, eps)-ball at cylinder resolution is just an
n-cylinder, so both estimators reduce to counting length-n factors:

- word-count growth: (1/n) log(#distinct observed n-words);
- Katok-style count: (1/n) log r, where r is the least number of
  n-words whose pooled empirical mass reaches 1 - delta. Since covers
  are unions of disjoint cylinders, taking words by decreasing
  frequency is exactly optimal.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import _bits_array

_MAX_WORD_LENGTH = 62  # packed into int64 window codes


def _window_codes(bits, n):
    k = bits.size - n + 1
    codes = np.zeros(k, dtype=np.int64)
    for i in range(n):
        codes += bits[i:i + k].astype(np.int64) << (n - 1 - i)
    return codes


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


def word_count_entropy(samples, n):
    """(1/n) log of the number of distinct length-n factors observed."""
    return math.log(_word_counts(samples, n).size) / n


def katok_entropy(samples, n, delta):
    """(1/n) log of the least number of n-words covering empirical mass
    1 - delta (words taken in decreasing frequency)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    counts = np.sort(_word_counts(samples, n))[::-1]
    total = counts.sum()
    threshold = (1.0 - delta) * total
    cumulative = np.cumsum(counts)
    r = int(np.searchsorted(cumulative, threshold - 1e-9 * total, side="left")) + 1
    return math.log(r) / n
