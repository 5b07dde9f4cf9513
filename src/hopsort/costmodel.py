"""Closed-form ceiling on the hop-link sort's comparison count.

``predicted_cost`` is an upper bound on the hop engine's comparison count
for any input of length n with k distinct keys.  The tests check it but
nobody has proven it: ``tests/test_properties.py`` hunts for an input above
it with random, sorted, descending and sawtooth inputs up to n = 300, with
seeded swap hill-climbs and with every input up to n = 6, and has found
none.  It is nearly tight at k = 1, where hop spends 2n - log2(n) - 2 for n
a power of two against a ceiling of 2n - 1.
"""

from __future__ import annotations

import math

from .datasets import _check_ints


def predicted_cost(n: int, k: int) -> float:
    """Ceiling on hop's comparisons for length ``n`` with ``k`` distinct keys:
    2n + n*log2(k) - k, which reads n + n*log2(n) when all are distinct.  A
    value that is not an int (or is a bool) raises TypeError."""
    _check_ints(TypeError, n=n, k=k)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1 or k > n:
        raise ValueError(f"k must be in 1..n (n={n}), got {k}")
    return 2 * n + n * math.log2(k) - k

