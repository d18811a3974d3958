"""The reference fold ``_reference.minmax_scalar``, which the level
kernel's bit-identity tests compare against: hand cases and the literal
recursion."""

import numpy as np
import pytest

from _reference import minmax_scalar, nested_scalar


def test_single_level_is_plain_max():
    assert minmax_scalar([3.0], [5.0]) == 5.0
    assert minmax_scalar([7.0], [5.0]) == 7.0


def test_hand_cases_two_levels():
    # a1 outermost; worked by hand
    assert minmax_scalar([1.0, -3.0], [2.0, 0.0]) == 1.0
    assert minmax_scalar([0.0, 5.0], [10.0, -5.0]) == 5.0
    assert minmax_scalar([3.0, 0.0], [1.0, 2.0]) == 3.0


def test_all_a_below_all_b_gives_min_b():
    # degenerate case: value collapses to min of the b side
    a = [0.0, -1.0, 0.5]
    b = [2.0, 1.0, 3.0]
    assert minmax_scalar(a, b) == 1.0


def test_outer_a_dominating_gives_a1():
    a = [4.0, 0.0, 1.0]
    b = [2.0, 5.0, -1.0]
    assert minmax_scalar(a, b) == 4.0


def test_matches_reference_recursion_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = rng.integers(1, 9)
        a = rng.uniform(-5, 5, n).tolist()
        b = rng.uniform(-5, 5, n).tolist()
        assert minmax_scalar(a, b) == nested_scalar(a, b)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        minmax_scalar([1.0, 2.0], [3.0])
    with pytest.raises(ValueError):
        minmax_scalar([], [])
