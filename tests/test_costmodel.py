"""Closed-form cost model: exact values, scaling identity, rejections."""

import math

import pytest

from hopsort.costmodel import predicted_cost


def test_all_distinct_branch():
    # k = n: n + n*log2(n), exact at powers of two
    for n, value in ((1, 1), (2, 4), (16, 80), (1024, 11264)):
        assert predicted_cost(n, n) == value, n


def test_duplicated_branch():
    assert predicted_cost(1024, 16) == 2 * 1024 + 1024 * 4 - 16
    assert predicted_cost(16, 4) == 32 + 32 - 4


def test_branches_agree_at_the_boundary():
    for n in (2, 16, 1024, 4096):
        assert predicted_cost(n, n) == 2 * n + n * math.log2(n) - n, n


def test_doubling_identity_in_the_duplicated_regime():
    # cost(2n, k) == 2*cost(n, k) + k whenever k < n
    for n, k in ((64, 16), (1024, 16), (4096, 1024), (2**19, 1024)):
        assert math.isclose(
            predicted_cost(2 * n, k), 2 * predicted_cost(n, k) + k, rel_tol=1e-12
        )


def test_plateau_prediction_per_element():
    # with k fixed, per-element work settles near 2 + log2(k)
    assert predicted_cost(2**20, 1024) / 2**20 == 11.9990234375


def test_rejections():
    with pytest.raises(ValueError):
        predicted_cost(0, 1)
    with pytest.raises(ValueError):
        predicted_cost(8, 0)
    with pytest.raises(ValueError):
        predicted_cost(8, 9)
    # a value that is not an int, or is a bool, is refused as the generators do
    for n, k in ((8.5, 2), (8, 2.0), (True, True)):
        with pytest.raises(TypeError, match=" must be an int, got "):
            predicted_cost(n, k)
