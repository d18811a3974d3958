import numpy as np
import pytest

from minmax_hj.family import Piece
from minmax_hj.profiles import AbsShift, NegatedAbs, PiecewiseMonotone


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


def _general(cls, center, slope, offset, p):
    """The abs profiles' formula as written, with nothing left out."""
    d = slope * np.abs(p - center)
    return offset + d if cls is AbsShift else offset - d


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cls", [AbsShift, NegatedAbs])
@pytest.mark.parametrize("center,slope", [(0.0, 1.0), (-0.0, 1.0),
                                          (1.0, 1.0), (0.0, 2.5)])
@pytest.mark.parametrize("offset", [0.0, -1.0])
def test_identity_arithmetic_left_out_is_exact(cls, center, slope, offset):
    # a zero center and a unit slope are left out of the arithmetic on
    # float arrays; the result keeps every bit, dtype and the scalar kind
    phi = cls(center, slope, offset)
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        5e-324, -1.0, 1.0, 1e308, -1e308])
    ints = np.iinfo(np.int64)
    inputs = [special, special.reshape(1, -1, 1),
              special[:-2].astype(np.float32),
              rng.standard_normal((3, 17)), np.asarray(-0.0), 0.0, -0.0,
              np.float64(-0.0), np.inf, 3, -2, True,
              np.array([0, -3, 7, ints.min, ints.max]),
              np.array([1, 200], dtype=np.uint8),
              np.array([True, False])]
    for p in inputs:
        with np.errstate(over="ignore"):     # 2.5 * 1e308
            got, want = phi(p), _general(cls, center, slope, offset, p)
        assert type(got) is type(want)
        assert _same_bits(got, want), (p, got, want)
