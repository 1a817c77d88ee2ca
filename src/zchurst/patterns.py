"""Ordinal patterns: extraction, symmetry classes, and frequency estimators.

A window of d+1 values is summarized by the permutation (r_0,...,r_d) with
x_{d-r_0} >= x_{d-r_1} >= ... >= x_{d-r_d}; on ties the earlier value ranks
higher (r_{l-1} > r_l whenever the two values are equal).  Patterns are
grouped into classes under spatial reversal alpha and time reversal beta;
averaging frequencies over a class is a Rao-Blackwellization of the plain
relative frequency and never increases variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadLength, DomainError, InputError

# Counting is vectorized over windows; this bounds the scratch arrays.
_CHUNK_WINDOWS = 1 << 17

# Each window costs (d+1)^2 pairwise comparisons, and the PatternCounts dict
# can hold up to (d+1)! patterns; counting is meant for small orders.
_MAX_ORDER = 10


def _factorials(d: int) -> np.ndarray:
    return np.array([math.factorial(d - l) for l in range(d + 1)], dtype=np.int64)


def _finite_series(x, min_size: int) -> np.ndarray:
    """x as a 1-D float array of at least min_size values, all finite."""
    arr = np.asarray(x, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise InputError(f"series value at index {bad} is {arr.flat[bad]}, not finite")
    if arr.ndim != 1 or arr.size < min_size:
        raise BadLength(f"need a 1-D series of at least {min_size} values, got shape {arr.shape}")
    return arr


def _ranks(windows: np.ndarray) -> np.ndarray:
    """Positions along the last axis, largest value first; on ties the earlier."""
    return np.argsort(-windows, axis=-1, kind="stable")


def _lehmer_codes(perms: np.ndarray) -> np.ndarray:
    """Lehmer codes of permutations of 0..d laid along the last axis."""
    later_smaller = np.triu(perms[..., :, None] > perms[..., None, :], k=1)
    return later_smaller.sum(axis=-1) @ _factorials(perms.shape[-1] - 1)


@dataclass(frozen=True)
class Pattern:
    """An ordinal pattern: a permutation of {0..d}, plus its Lehmer code.

    The dense code in [0, (d+1)!) is what the counting kernel tallies;
    the permutation form is what humans and the algebra below use.
    """

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(r) for r in self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise DomainError(f"not a permutation of 0..d: {self.perm!r}")
        if len(perm) < 2:
            raise BadLength("a pattern needs order d >= 1 (at least 2 entries)")
        object.__setattr__(self, "perm", perm)

    @property
    def d(self) -> int:
        return len(self.perm) - 1

    @property
    def code(self) -> int:
        return int(_lehmer_codes(np.array(self.perm)))

    @classmethod
    def from_code(cls, code: int, d: int) -> "Pattern":
        fact = _factorials(d)
        digits = []
        rest = int(code)
        for l in range(d + 1):
            digits.append(rest // int(fact[l]))
            rest %= int(fact[l])
        pool = list(range(d + 1))
        return cls(tuple(pool.pop(c) for c in digits))


def alpha(p: Pattern) -> Pattern:
    """Spatial reversal (r_d,...,r_0)."""
    return Pattern(p.perm[::-1])


def beta(p: Pattern) -> Pattern:
    """Time reversal (d-r_0,...,d-r_d)."""
    d = p.d
    return Pattern(tuple(d - r for r in p.perm))


@dataclass(frozen=True)
class PatternClass:
    """Closure of a pattern under {id, alpha, beta, beta o alpha}; 2 or 4 members."""

    representative: Pattern
    members: frozenset = field(repr=False)

    def __len__(self) -> int:
        return len(self.members)


def pattern_class(p: Pattern) -> PatternClass:
    members = frozenset({p, alpha(p), beta(p), beta(alpha(p))})
    representative = min(members, key=lambda q: q.perm)
    return PatternClass(representative=representative, members=members)


def pattern_of_values(x) -> Pattern:
    """Ordinal pattern of one window of d+1 values."""
    arr = _finite_series(x, 2)
    return Pattern(tuple((arr.size - 1 - _ranks(arr)).tolist()))


@dataclass(frozen=True)
class PatternCounts:
    """Histogram of patterns over n sliding windows; counts sum to n."""

    d: int
    n: int
    counts: dict

    def get(self, p: Pattern) -> int:
        return self.counts.get(p, 0)


def count_patterns(x, d: int) -> PatternCounts:
    """Histogram of order-d patterns over every sliding window of x.

    Each chunk of windows is reduced to its distinct codes, so memory grows
    with the chunk and the patterns seen, not with (d+1)!.
    """
    if not 1 <= d <= _MAX_ORDER:
        raise DomainError(f"order must be in 1..{_MAX_ORDER}, got {d}")
    arr = _finite_series(x, d + 1)
    windows = sliding_window_view(arr, d + 1)
    n = windows.shape[0]
    tally = {}
    for start in range(0, n, _CHUNK_WINDOWS):
        perms = d - _ranks(windows[start : start + _CHUNK_WINDOWS])
        codes, hits = np.unique(_lehmer_codes(perms), return_counts=True)
        for code, hit in zip(codes.tolist(), hits.tolist()):
            tally[code] = tally.get(code, 0) + hit
    counts = {Pattern.from_code(code, d): tally[code] for code in sorted(tally)}
    return PatternCounts(d=d, n=n, counts=counts)


def p_hat(counts: PatternCounts, p: Pattern) -> float:
    """Plain relative frequency of one pattern."""
    if counts.n < 1:
        raise DomainError("no windows counted")
    return counts.get(p) / counts.n


def p_bar(counts: PatternCounts, p: Pattern) -> float:
    """Class-averaged relative frequency (Rao-Blackwellized estimator)."""
    if counts.n < 1:
        raise DomainError("no windows counted")
    cls = pattern_class(p)
    total = sum(counts.get(s) for s in cls.members)
    return total / (len(cls) * counts.n)


def change_indicator_count(x) -> tuple:
    """(changes, windows): windows whose middle value is a local extremum.

    A window counts when x_k >= x_{k+1} < x_{k+2} or x_k < x_{k+1} >= x_{k+2};
    changes/windows is the zero-crossing rate of the first differences, and
    equals 4 * p_bar of the d=2 change class exactly, ties included.
    """
    arr = _finite_series(x, 3)
    # for finite values x_k >= x_{k+1} is the negation of x_{k+1} > x_k, so
    # a window changes where its two steps differ in going up
    up = arr[1:] > arr[:-1]
    return int(np.count_nonzero(up[1:] != up[:-1])), arr.size - 2
