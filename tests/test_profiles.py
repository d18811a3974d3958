import numpy as np
import pytest

from minmax_hj.errors import ProfileShapeError
from minmax_hj.family import Piece
from minmax_hj.profiles import (AbsShift, NegatedAbs, PiecewiseMonotone,
                                profile_from_dict)


def test_abs_shift_values():
    phi = AbsShift(1.0, 2.0, -0.5)
    p = np.array([-1.0, 1.0, 3.0])
    assert np.allclose(phi(p), [3.5, -0.5, 3.5])
    assert phi.extreme_value() == -0.5
    assert phi.lipschitz() == 2.0


def test_negated_abs_values():
    phi = NegatedAbs(0.0, 1.0, 1.0)
    assert np.allclose(phi(np.array([0.0, 2.0])), [1.0, -1.0])


def test_piecewise_valley_with_flat_bottom():
    phi = PiecewiseMonotone([-2.0, -1.0, 1.0, 2.0], [1.0, 0.0, 0.0, 1.0])
    p = np.array([-3.0, -1.5, 0.0, 0.9, 1.5, 4.0])
    assert np.allclose(phi(p), [2.0, 0.5, 0.0, 0.0, 0.5, 3.0])
    assert phi.extreme_value() == 0.0
    assert phi.lipschitz() == 1.0


def test_piecewise_hill():
    phi = PiecewiseMonotone([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0], direction="hill")
    assert np.allclose(phi(np.array([-2.0, 0.0, 0.5])), [-2.0, 2.0, 1.0])


def test_piecewise_shape_rejection():
    # W shape is not a valley
    with pytest.raises(ProfileShapeError):
        PiecewiseMonotone([-2, -1, 0, 1, 2], [1, 0, 1, 0, 1])
    # flat tail destroys coercivity
    with pytest.raises(ProfileShapeError):
        PiecewiseMonotone([-1, 0, 1], [0, 0, 1])
    # hill mislabeled as valley
    with pytest.raises(ProfileShapeError):
        PiecewiseMonotone([-1, 0, 1], [0, 1, 0], direction="valley")
    with pytest.raises(ProfileShapeError):
        AbsShift(0.0, -1.0, 0.0)


def test_negate_dual_pointwise():
    rng = np.random.default_rng(0)
    p = rng.uniform(-4, 4, 64)
    # bit-exact for the abs shapes (only negations are reordered)
    for phi in (AbsShift(0.7, 1.3, -0.2), NegatedAbs(-0.4, 0.8, 2.0)):
        dual = phi.negate_dual()
        assert np.array_equal(dual(p), -phi(-p))
        roundtrip = dual.negate_dual()
        assert np.array_equal(roundtrip(p), phi(p))
    # interpolation order differs for piecewise profiles: near-exact only
    phi = PiecewiseMonotone([-2.0, -0.5, 1.0], [2.0, -1.0, 1.5])
    dual = phi.negate_dual()
    assert np.allclose(dual(p), -phi(-p), atol=1e-12)
    assert np.allclose(dual.negate_dual()(p), phi(p), atol=1e-12)


def test_even_dual_pointwise():
    rng = np.random.default_rng(1)
    p = rng.uniform(-4, 4, 64)
    dual = AbsShift(0.7, 1.3, -0.2).even_dual()
    assert np.array_equal(dual(p), AbsShift(0.7, 1.3, -0.2)(-p))
    phi = PiecewiseMonotone([-2.0, -0.5, 1.0], [2.0, -1.0, 1.5])
    assert np.allclose(phi.even_dual()(p), phi(-p), atol=1e-12)


def test_abs_branch_inverses():
    phi = AbsShift(1.0, 2.0, -0.5)
    left, right = phi.branch_inverses(np.array([-0.5, 1.5, 3.5]))
    assert np.allclose(left, [1.0, 0.0, -1.0])
    assert np.allclose(right, [1.0, 2.0, 3.0])


def test_piecewise_branch_inverses_flat_bottom_and_tails():
    phi = PiecewiseMonotone([-2.0, -1.0, 1.0, 2.0], [1.0, 0.0, 0.0, 1.0])
    left, right = phi.branch_inverses(np.array([0.0, 0.5, 1.0, 3.0]))
    # leftmost/rightmost solutions; level 3 lives on the extended tails
    assert np.allclose(left, [-1.0, -1.5, -2.0, -4.0])
    assert np.allclose(right, [1.0, 1.5, 2.0, 4.0])
    with pytest.raises(ValueError):
        phi.branch_inverses(np.array([-0.1]))


def test_bind_base_matches_direct():
    # a column of base gradients, row i of dv taken at the i-th
    rng = np.random.default_rng(2)
    dv = rng.uniform(-3, 3, (2, 32))
    base = np.array([[0.7], [-0.2]])
    for phi in (AbsShift(0.3, 1.1, 0.4),
                NegatedAbs(0.3, 1.1, 0.4),
                PiecewiseMonotone([-1.0, 0.0, 2.0], [1.0, -0.5, 3.0])):
        f = Piece(phi).bind_base(base, None, None)
        assert np.array_equal(f((dv,)), phi(base + dv))


def test_roundtrip_from_dict():
    for data, phi in (
            ({"kind": "abs_shift", "center": 0.3, "slope": 1.1,
              "offset": 0.4}, AbsShift(0.3, 1.1, 0.4)),
            ({"kind": "piecewise_monotone", "breaks": [-1.0, 0.0, 2.0],
              "values": [1.0, -0.5, 3.0], "direction": "valley"},
             PiecewiseMonotone([-1.0, 0.0, 2.0], [1.0, -0.5, 3.0]))):
        clone = profile_from_dict(data)
        p = np.linspace(-3, 3, 11)
        assert np.array_equal(clone(p), phi(p))
