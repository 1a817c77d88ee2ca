"""Ordinal pattern extraction and symmetry algebra tests.

The extraction kernel is verified exhaustively against a longhand
selection-sort oracle over every arrangement of small alphabets, so every
tie layout an order-4 window can exhibit is covered.
"""

import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zchurst import (
    BadLength,
    DomainError,
    InputError,
    Pattern,
    alpha,
    beta,
    change_indicator_count,
    count_patterns,
    p_bar,
    p_hat,
    pattern_class,
    pattern_of_values,
    synthesize,
)
from zchurst.patterns import _CHUNK_WINDOWS


def _selection_oracle(window):
    """Repeatedly take the earliest position holding the largest remaining
    value and record d minus that position."""
    d = len(window) - 1
    remaining = list(range(d + 1))
    out = []
    while remaining:
        best = remaining[0]
        for pos in remaining[1:]:
            if window[pos] > window[best]:
                best = pos
        out.append(d - best)
        remaining.remove(best)
    return tuple(out)


def test_pattern_extraction_exhaustive():
    for d in range(1, 5):
        for window in itertools.product(range(6), repeat=d + 1):
            x = np.array(window, dtype=np.float64)
            want = Pattern(_selection_oracle(window))
            assert pattern_of_values(x) == want, window
            assert count_patterns(x, d).counts == {want: 1}, window


def test_tie_goes_to_the_earlier_value():
    # equal neighbours: the earlier one ranks higher
    assert pattern_of_values(np.array([1.0, 1.0])).perm == (1, 0)
    assert pattern_of_values(np.array([2.0, 2.0, 2.0])).perm == (2, 1, 0)


def test_pattern_validation():
    with pytest.raises(DomainError):
        Pattern((0, 2))
    with pytest.raises(DomainError):
        Pattern((0, 1, 1))
    with pytest.raises(BadLength):
        Pattern((0,))
    with pytest.raises(BadLength):
        pattern_of_values(np.array([1.0]))


def test_non_finite_values_are_refused():
    readers = (
        pattern_of_values,
            lambda x: count_patterns(x, 2),
        change_indicator_count,
    )
    for bad in (np.nan, np.inf, -np.inf):
        x = np.arange(8, dtype=np.float64)
        x[5] = bad
        for read in readers:
            with pytest.raises(InputError, match="index 5 is"):
                read(x)


def test_lehmer_code_bijection():
    import math

    for d in range(1, 6):
        seen = set()
        for perm in itertools.permutations(range(d + 1)):
            p = Pattern(perm)
            code = p.code
            assert 0 <= code < math.factorial(d + 1)
            assert Pattern.from_code(code, d) == p
            seen.add(code)
        assert len(seen) == math.factorial(d + 1)


def test_reversal_algebra():
    for d in range(1, 5):
        for perm in itertools.permutations(range(d + 1)):
            p = Pattern(perm)
            assert alpha(alpha(p)) == p
            assert beta(beta(p)) == p
            assert alpha(beta(p)) == beta(alpha(p))
            members = pattern_class(p).members
            assert len(members) in (2, 4)
            assert p in members
            # every member generates the same class
            for q in members:
                assert pattern_class(q).members == members


def test_order2_class_structure():
    monotone = pattern_class(pattern_of_values(np.array([1.0, 2.0, 3.0])))
    change = pattern_class(pattern_of_values(np.array([0.0, 1.0, 0.0])))
    assert len(monotone) == 2
    assert len(change) == 4
    all_patterns = {Pattern(p) for p in itertools.permutations(range(3))}
    assert monotone.members | change.members == all_patterns
    assert not monotone.members & change.members


def _naive_counts(x, d):
    return Counter(
        pattern_of_values(x[i : i + d + 1]) for i in range(len(x) - d)
    )


def test_count_patterns_matches_naive():
    rng = np.random.default_rng(7)
    smooth = rng.standard_normal(300)
    ties = rng.integers(0, 3, size=300).astype(np.float64)
    for x in (smooth, ties):
        for d in range(1, 5):
            counts = count_patterns(x, d)
            naive = _naive_counts(x, d)
            assert counts.n == len(x) - d
            assert sum(counts.counts.values()) == counts.n
            for p, c in naive.items():
                assert counts.get(p) == c
            assert sum(naive.values()) == counts.n


def test_frequencies_normalize():
    x = synthesize(0.6, 400, seed=8).levels
    counts = count_patterns(x, 2)
    total = sum(p_hat(counts, Pattern(p)) for p in itertools.permutations(range(3)))
    assert abs(total - 1.0) <= 1e-12
    seen = set()
    class_total = 0.0
    for perm in itertools.permutations(range(3)):
        cls = pattern_class(Pattern(perm))
        if cls.representative in seen:
            continue
        seen.add(cls.representative)
        class_total += len(cls) * p_bar(counts, cls.representative)
    assert abs(class_total - 1.0) <= 1e-12


def test_change_indicator_matches_class_frequency():
    change = pattern_class(pattern_of_values(np.array([0.0, 1.0, 0.0])))
    rng = np.random.default_rng(11)
    for x in (rng.standard_normal(500), rng.integers(0, 2, size=500).astype(np.float64)):
        changes, windows = change_indicator_count(x)
        counts = count_patterns(x, 2)
        assert windows == len(x) - 2
        assert changes == sum(counts.get(p) for p in change.members)
        # longhand restatement of the local-extremum rule
        naive = sum(
            1
            for i in range(len(x) - 2)
            if (x[i] >= x[i + 1] < x[i + 2]) or (x[i] < x[i + 1] >= x[i + 2])
        )
        assert changes == naive


def _ordinal_counts(x):
    """Pattern counts for d = 1..4, and the change count, of one series."""
    return [count_patterns(x, d).counts for d in range(1, 5)], change_indicator_count(x)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=6).flatmap(
        lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=5, max_size=120)
    )
)
def test_counts_invariant_under_increasing_maps(values):
    # integer series drawn from a small alphabet, so ties are common; each map
    # is exactly strictly increasing on such values in double precision
    x = np.array(values, dtype=np.float64)
    for f in (lambda v: 4.0 * v + 3.0, lambda v: v**3, lambda v: np.exp(v / 8.0)):
        assert np.all(np.diff(f(np.unique(x))) > 0.0)
        assert _ordinal_counts(f(x)) == _ordinal_counts(x)
    # the local-extremum rule written out, ties and all
    longhand = sum(
        (a >= b < c) or (a < b >= c) for a, b, c in zip(values, values[1:], values[2:])
    )
    assert change_indicator_count(x) == (longhand, len(values) - 2)


def test_counting_across_chunk_boundaries():
    # exercise the vectorized kernel on arrays just around its chunk size
    rng = np.random.default_rng(3)
    change = pattern_class(pattern_of_values(np.array([0.0, 1.0, 0.0])))
    for extra in (1, 2, 3):
        x = rng.integers(0, 3, size=_CHUNK_WINDOWS + extra + 2).astype(np.float64)
        counts = count_patterns(x, 2)
        assert sum(counts.counts.values()) == counts.n == len(x) - 2
        changes, windows = change_indicator_count(x)
        assert windows == counts.n
        assert changes == sum(counts.get(p) for p in change.members)


def test_count_patterns_validation():
    x = np.arange(20, dtype=np.float64)
    with pytest.raises(DomainError):
        count_patterns(x, 0)
    with pytest.raises(DomainError):
        count_patterns(x, 11)
    with pytest.raises(BadLength):
        count_patterns(np.array([1.0, 2.0]), 2)
    with pytest.raises(BadLength):
        change_indicator_count(np.array([1.0, 2.0]))
    # a 2-D array is named by its shape, not by its size of 9
    for reader in (lambda x: count_patterns(x, 2), change_indicator_count):
        with pytest.raises(BadLength, match=re.escape("got shape (3, 3)")):
            reader(np.zeros((3, 3)))
