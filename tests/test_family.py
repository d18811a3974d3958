import numpy as np
import pytest

from minmax_hj.errors import OrderingViolationError, ProfileShapeError
from minmax_hj.family import (GradientShift, LevelHamiltonian, MinMaxFamily,
                              Piece, reorder_family,
                              validate_ordering)
from minmax_hj.profiles import AbsShift, NegatedAbs

from _reference import nested_family_values
from conftest import random_family


def _piece_values(family, p, x, medium):
    cv = [pc.evaluate(p, x, medium) for pc in family.checks]
    hv = [pc.evaluate(p, x, medium) for pc in family.hats]
    return cv, hv


def test_additive_piece_evaluation(sin_sq_medium):
    check = Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0)
    # V(0.5) = sin^2(pi/2) = 1
    assert np.isclose(check.evaluate(2.0, 0.5, sin_sq_medium), 2.0)
    assert np.isclose(check.evaluate(0.0, 0.0, sin_sq_medium), -1.0)


def test_amplitude_piece_evaluation(two_channel_medium):
    pc = Piece(AbsShift(0.0, 1.0, 0.5), "amplitude", 2, scale=2.0)
    # channel 2 at x=0 is 0.5; 2*0.5*(|p|+0.5) at p=1 -> 1.5
    assert np.isclose(pc.evaluate(1.0, 0.0, two_channel_medium), 1.5)


def test_base_family_values(base_family, sin_sq_medium):
    p = np.array([0.0, 1.0, 2.5])
    x = 0.25  # V = 1/2
    got = LevelHamiltonian(base_family, 1).evaluate(p, x, sin_sq_medium)
    want = 0.5 + np.maximum(np.abs(p) - 1.0, 1.0 - np.abs(p))
    assert np.allclose(got, want)


def test_eval_levels_match_reference(two_channel_medium):
    rng = np.random.default_rng(42)
    p = rng.uniform(-4, 4, 200)
    x = rng.uniform(0, 1, 200)
    for _ in range(25):
        ell = int(rng.integers(1, 4))
        fam = random_family(rng, ell, two_channel_medium)
        cv, hv = _piece_values(fam, p, x, two_channel_medium)
        for s in range(1, ell + 1):
            got = LevelHamiltonian(fam, s).evaluate(p, x,
                                                    two_channel_medium)
            want = nested_family_values(cv, hv, s)
            assert np.array_equal(got, want)


def test_level_out_of_range(base_family, sin_sq_medium):
    with pytest.raises(ValueError):
        LevelHamiltonian(base_family, 1.5).evaluate(0.0, 0.0, sin_sq_medium)
    with pytest.raises(ValueError):
        LevelHamiltonian(base_family, 0.5).evaluate(0.0, 0.0, sin_sq_medium)
    with pytest.raises(ValueError):
        LevelHamiltonian(base_family, 1.25).evaluate(0.0, 0.0, sin_sq_medium)
    with pytest.raises(ValueError):
        LevelHamiltonian(base_family, 2).evaluate(0.0, 0.0, sin_sq_medium)


def test_half_levels_are_not_evaluated(two_level_family):
    # half levels exist only in the nested formula, on effective curves
    with pytest.raises(ValueError, match="whole number"):
        LevelHamiltonian(two_level_family, 1.5)


def test_piece_evaluates_a_list_of_gradients():
    # a list is gradients, not the components of one gradient
    piece = Piece(AbsShift(0.0, 1.0, 0.0))
    np.testing.assert_array_equal(piece.evaluate([0.0, 1.0]), [0.0, 1.0])
    one = piece.evaluate([2.0])
    assert one.shape == (1,) and one[0] == 2.0
    shifted = GradientShift(piece, 1.0)
    np.testing.assert_array_equal(shifted.evaluate([1.0, 3.0]), [0.0, 2.0])


def test_reordering_preserves_top_level(two_channel_medium):
    # the running-extrema replacement leaves the full nesting unchanged
    # (intermediate levels of the reordered family mix in deeper pieces
    # and are not expected to match)
    rng = np.random.default_rng(99)
    p = rng.uniform(-4, 4, 500)
    x = rng.uniform(0, 1, 500)
    for _ in range(50):
        ell = int(rng.integers(1, 4))
        fam = random_family(rng, ell, two_channel_medium)
        cv, hv = _piece_values(fam, p, x, two_channel_medium)
        reordered = reorder_family(fam)
        got = LevelHamiltonian(reordered, ell).evaluate(p, x,
                                                        two_channel_medium)
        want = nested_family_values(cv, hv, ell)
        assert np.array_equal(got, want)


def test_reordered_pieces_are_monotone(two_channel_medium):
    rng = np.random.default_rng(5)
    fam = random_family(rng, 3, two_channel_medium)
    reordered = reorder_family(fam)
    p = np.linspace(-5, 5, 101)
    x = np.linspace(0, 1, 17)[:, None]
    validate_ordering(reordered, two_channel_medium, p, x.ravel())


def test_ordering_violation_names_level(two_channel_medium):
    # checks increasing across levels: violated at level 1
    checks = [Piece(AbsShift(0.0, 1.0, -3.0)), Piece(AbsShift(0.0, 1.0, 0.0))]
    hats = [Piece(NegatedAbs(0.0, 1.0, 0.0)), Piece(NegatedAbs(0.0, 1.0, 2.0))]
    fam = MinMaxFamily(checks, hats)
    with pytest.raises(OrderingViolationError) as err:
        validate_ordering(fam, two_channel_medium,
                          np.linspace(-2, 2, 9), np.linspace(0, 1, 5))
    assert err.value.kind == "check"
    assert err.value.level == 1


def test_ordering_witness_is_one_point(two_channel_medium):
    # check_1 = |p| - 1 falls below check_2 = |p| / 2 where |p| < 2
    checks = [Piece(AbsShift(0.0, 1.0, -1.0)), Piece(AbsShift(0.0, 0.5, 0.0))]
    hats = [Piece(NegatedAbs(0.0, 1.0, 0.0)), Piece(NegatedAbs(0.0, 1.0, 2.0))]
    fam = MinMaxFamily(checks, hats)
    p = np.linspace(-3.0, 3.0, 9)
    with pytest.raises(OrderingViolationError) as err:
        validate_ordering(fam, two_channel_medium, p, np.array([0.5]))
    # the first failing gradient on the axis, not the axis
    assert err.value.p == -1.5 and err.value.x == 0.5
    assert (err.value.lhs, err.value.rhs) == (0.5, 0.75)
    assert "at p=-1.5, x=0.5" in str(err.value)


def test_mislabeled_pieces_rejected():
    with pytest.raises(ProfileShapeError):
        MinMaxFamily([Piece(NegatedAbs(0.0, 1.0, 0.0))],
                     [Piece(NegatedAbs(0.0, 1.0, 0.0))])
    with pytest.raises(ProfileShapeError):
        MinMaxFamily([Piece(AbsShift(0.0, 1.0, 0.0))],
                     [Piece(AbsShift(0.0, 1.0, 0.0))])


def test_gradient_shift_identity(base_family, sin_sq_medium):
    h = LevelHamiltonian(base_family, base_family.ell)
    shifted = GradientShift(h, 1.0)
    p = np.linspace(-2, 2, 21)
    x = 0.3
    assert np.allclose(shifted.evaluate(p + 1.0, x, sin_sq_medium),
                       h.evaluate(p, x, sin_sq_medium))


def test_bound_evaluator_matches_evaluate(two_channel_medium):
    rng = np.random.default_rng(13)
    fam = random_family(rng, 2, two_channel_medium)
    h = LevelHamiltonian(fam, 2)
    x = np.linspace(0, 1, 33)
    f = h.bind_base(np.array([[0.7]]), x, two_channel_medium)
    dv = rng.uniform(-2, 2, 33)
    assert np.array_equal(f((dv[None, :],))[0],
                          h.evaluate(0.7 + dv, x, two_channel_medium))


def test_lipschitz_bound_covers_samples(two_channel_medium):
    rng = np.random.default_rng(14)
    for _ in range(10):
        fam = random_family(rng, 2, two_channel_medium)
        h = LevelHamiltonian(fam, fam.ell)
        lip = h.lipschitz(two_channel_medium)
        p = np.sort(rng.uniform(-4, 4, 200))
        x = rng.uniform(0, 1)
        vals = h.evaluate(p, x, two_channel_medium)
        rates = np.abs(np.diff(vals)) / np.diff(p)
        assert np.all(rates <= lip + 1e-9)
