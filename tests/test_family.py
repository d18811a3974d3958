import numpy as np
import pytest

from minmax_hj.errors import HypothesisError, ProfileShapeError
from minmax_hj.family import (GradientShift, LevelHamiltonian, MinMaxFamily,
                              Piece, outermost_levels, reorder_family,
                              validate_ordering)
from minmax_hj.media import MediumSpec, sample_realization
from minmax_hj.profiles import AbsShift, NegatedAbs

from _reference import nested_family_values, ordering_witness_per_x
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
    got = LevelHamiltonian(base_family).evaluate(p, x, sin_sq_medium)
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
            level = MinMaxFamily(fam.checks[:s], fam.hats[:s])
            got = LevelHamiltonian(level).evaluate(p, x, two_channel_medium)
            want = nested_family_values(cv, hv, s)
            assert np.array_equal(got, want)


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
        got = LevelHamiltonian(reordered).evaluate(p, x, two_channel_medium)
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
    with pytest.raises(HypothesisError) as err:
        validate_ordering(fam, two_channel_medium,
                          np.linspace(-2, 2, 9), np.linspace(0, 1, 5))
    assert err.value.witness["kind"] == "check"
    assert err.value.witness["level"] == 1


def test_ordering_witness_is_one_point(two_channel_medium):
    # check_1 = |p| - 1 falls below check_2 = |p| / 2 where |p| < 2
    checks = [Piece(AbsShift(0.0, 1.0, -1.0)), Piece(AbsShift(0.0, 0.5, 0.0))]
    hats = [Piece(NegatedAbs(0.0, 1.0, 0.0)), Piece(NegatedAbs(0.0, 1.0, 2.0))]
    fam = MinMaxFamily(checks, hats)
    p = np.linspace(-3.0, 3.0, 9)
    with pytest.raises(HypothesisError) as err:
        validate_ordering(fam, two_channel_medium, p, np.array([0.5]))
    # the first failing gradient on the axis, not the axis
    w = err.value.witness
    assert w["p"] == -1.5 and w["x"] == 0.5
    assert (w["lhs"], w["rhs"]) == (0.5, 0.75)
    assert "at p=-1.5, x=0.5" in str(err.value)


def _ordering_witness(family, medium, p, x):
    try:
        validate_ordering(family, medium, p, x)
    except HypothesisError as err:
        return err.witness
    return None


# out of order, with V = sin^2(pi x) on the probes k/8, where it takes
# 0, 0.146, 0.5, 0.854, 1, 0.854, 0.5, 0.146:
#   checks at level 1 where V < 0.1 (|p| + 2V - 1 < |p| + V - 0.9),
#   checks at level 2 where V > 0.6 (|p| + V - 0.9 < |p| + 2V - 1.5),
#   hats at level 1 where V > 0.6 (1 - |p| + V > 1.6 - |p|)
TWO_PROBES_TWO_LEVELS = MinMaxFamily(
    [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0, scale=2.0),
     Piece(AbsShift(0.0, 1.0, -0.9), "additive", 0),
     Piece(AbsShift(0.0, 1.0, -1.5), "additive", 0, scale=2.0)],
    [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
     Piece(NegatedAbs(0.0, 1.0, 1.6)),
     Piece(NegatedAbs(0.0, 1.0, 10.0))])


@pytest.mark.parametrize("start, witness", [
    (0, ("check", 1, 0.0)),     # the first probe fails at level 1
    (1, ("check", 2, 0.375)),   # checks at level 2 before hats at level 1
    (4, ("check", 2, 0.5)),
    (6, ("check", 1, 0.0))])    # probes 0.75 and 0.875 are in order
def test_ordering_witness_is_the_per_probe_loops(sin_sq_medium, start,
                                                 witness):
    p = np.linspace(-3.0, 3.0, 25)
    x = np.roll(np.linspace(0.0, 1.0, 9)[:-1], -start)
    got = _ordering_witness(TWO_PROBES_TWO_LEVELS, sin_sq_medium, p, x)
    assert got == ordering_witness_per_x(TWO_PROBES_TWO_LEVELS,
                                         sin_sq_medium, p, x)
    assert (got["kind"], got["level"], got["x"]) == witness
    assert got["p"] == -3.0


def test_ordering_on_repeated_states_matches_the_loop():
    # a four-cell checkerboard has four states on the 8 probes, and the
    # witness must still name the first failing probe; random families
    # break the ordering almost everywhere, so also a reordered one
    spec = MediumSpec("checkerboard", 1.0, [
        {"cell": 0.25, "low": 0.0, "high": 1.0},
        {"cell": 0.5, "low": 0.0, "high": 0.5},
        {"cell": 0.25, "low": 0.5, "high": 1.5}])
    p = np.linspace(-3.0, 3.0, 25)
    rng = np.random.default_rng(3)
    for seed in range(6):
        medium = sample_realization(spec, seed)
        x = rng.permutation(np.linspace(0.0, 1.0, 9)[:-1])
        for fam in (TWO_PROBES_TWO_LEVELS, random_family(rng, 3, medium),
                    reorder_family(random_family(rng, 3, medium))):
            assert _ordering_witness(fam, medium, p, x) == \
                ordering_witness_per_x(fam, medium, p, x)


def test_mislabeled_pieces_rejected():
    with pytest.raises(ProfileShapeError):
        MinMaxFamily([Piece(NegatedAbs(0.0, 1.0, 0.0))],
                     [Piece(NegatedAbs(0.0, 1.0, 0.0))])
    with pytest.raises(ProfileShapeError):
        MinMaxFamily([Piece(AbsShift(0.0, 1.0, 0.0))],
                     [Piece(AbsShift(0.0, 1.0, 0.0))])


def test_gradient_shift_identity(base_family, sin_sq_medium):
    h = LevelHamiltonian(base_family)
    shifted = GradientShift(h, 1.0)
    p = np.linspace(-2, 2, 21)
    x = 0.3
    assert np.allclose(shifted.evaluate(p + 1.0, x, sin_sq_medium),
                       h.evaluate(p, x, sin_sq_medium))


def test_bound_evaluator_matches_evaluate(two_channel_medium):
    rng = np.random.default_rng(13)
    fam = random_family(rng, 2, two_channel_medium)
    h = LevelHamiltonian(fam)
    x = np.linspace(0, 1, 33)
    f = h.bind_base(np.array([[0.7]]), x, two_channel_medium)
    dv = rng.uniform(-2, 2, 33)
    assert np.array_equal(f((dv[None, :],))[0],
                          h.evaluate(0.7 + dv, x, two_channel_medium))


def test_lipschitz_bound_covers_samples(two_channel_medium):
    rng = np.random.default_rng(14)
    for _ in range(10):
        fam = random_family(rng, 2, two_channel_medium)
        h = LevelHamiltonian(fam)
        lip = h.lipschitz(two_channel_medium)
        p = np.sort(rng.uniform(-4, 4, 200))
        x = rng.uniform(0, 1)
        vals = h.evaluate(p, x, two_channel_medium)
        rates = np.abs(np.diff(vals)) / np.diff(p)
        assert np.all(rates <= lip + 1e-9)


def test_outermost_level_is_the_last_to_change_the_value(two_channel_medium):
    # against the literal nesting of each level in turn: level k is the
    # outermost that changes the value where H_k != H_{k-1} and every
    # level above it keeps H_k
    rng = np.random.default_rng(37)
    seen = set()
    p = np.linspace(-4.0, 4.0, 41)[:, None, None]
    x = np.linspace(0.0, 1.0, 9)[None, :, None] + np.zeros((1, 1, 2))
    for ell in (1, 2, 3):
        for _ in range(4):
            fam = random_family(rng, ell, two_channel_medium)
            cv, hv = _piece_values(fam, p, x, two_channel_medium)
            nested = [nested_family_values(cv, hv, s)
                      for s in range(1, ell + 1)]
            want = np.ones(np.broadcast(p, x).shape, dtype=int)
            for k in range(2, ell + 1):
                want[nested[k - 1] != nested[k - 2]] = k
            got = outermost_levels(fam, p, x, two_channel_medium)
            assert np.array_equal(got, want)
            assert np.array_equal(
                nested[-1], LevelHamiltonian(fam).evaluate(
                    p, x, two_channel_medium))
            seen.update(np.unique(got).tolist())
    assert seen == {1, 2, 3}
