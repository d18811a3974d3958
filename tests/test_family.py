import numpy as np
import pytest

from minmax_hj.errors import HypothesisError, ProfileShapeError
from minmax_hj.family import (CombinedPiece, GradientShift, LevelHamiltonian,
                              MinMaxFamily, Piece, PieceTable,
                              outermost_levels, reorder_family,
                              validate_ordering)
from minmax_hj.media import MediumSpec, medium_table, sample_realization
from minmax_hj.profiles import AbsShift, NegatedAbs, PiecewiseMonotone

from _reference import (level_fold, nested_family_values,
                        ordering_witness_per_x, states_per_entry)
from conftest import CountingMedium, random_family


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
    # the running extrema are combined pieces, which the exact ordering
    # check does not read: compare them on a lattice
    rng = np.random.default_rng(5)
    fam = random_family(rng, 3, two_channel_medium)
    reordered = reorder_family(fam)
    p = np.linspace(-5, 5, 101)[:, None]
    x = np.linspace(0, 1, 17)
    cv, hv = _piece_values(reordered, p, x, two_channel_medium)
    for k in range(2):
        assert np.all(cv[k] >= cv[k + 1]) and np.all(hv[k] <= hv[k + 1])


def _ordering_witness(family, medium):
    try:
        validate_ordering(PieceTable(family, [medium]))
    except HypothesisError as err:
        return err.witness
    return None


def test_ordering_violation_names_level(two_channel_medium):
    # checks increasing across levels: violated at level 1
    checks = [Piece(AbsShift(0.0, 1.0, -3.0)), Piece(AbsShift(0.0, 1.0, 0.0))]
    hats = [Piece(NegatedAbs(0.0, 1.0, 0.0)), Piece(NegatedAbs(0.0, 1.0, 2.0))]
    fam = MinMaxFamily(checks, hats)
    w = _ordering_witness(fam, two_channel_medium)
    assert w["kind"] == "check"
    assert w["level"] == 1


def test_ordering_witness_is_one_point(two_channel_medium):
    # check_1 = |p| - 1 falls below check_2 = |p| / 2 where |p| < 2
    checks = [Piece(AbsShift(0.0, 1.0, -1.0)), Piece(AbsShift(0.0, 0.5, 0.0))]
    hats = [Piece(NegatedAbs(0.0, 1.0, 0.0)), Piece(NegatedAbs(0.0, 1.0, 2.0))]
    fam = MinMaxFamily(checks, hats)
    with pytest.raises(HypothesisError) as err:
        validate_ordering(PieceTable(fam, [two_channel_medium]))
    # the kink at 0, where the gap is widest, not the whole interval
    w = err.value.witness
    assert w["p"] == 0.0 and w["x"] == 0.0
    assert (w["lhs"], w["rhs"]) == (-1.0, 0.0)
    assert "at p=0.0, x=0.0" in str(err.value)


@pytest.mark.parametrize("slope, offset, p", [
    (2.0, -6.0, -6.0),   # |p| - 1 < 2|p| - 6 past |p| = 5: one unit out
    (2.0, 0.0, -1.0)])   # out of order at the kink already: one unit out
def test_ordering_witness_on_a_tail(sin_sq_medium, slope, offset, p):
    fam = MinMaxFamily(
        [Piece(AbsShift(0.0, 1.0, -1.0)), Piece(AbsShift(0.0, slope,
                                                         offset))],
        [Piece(NegatedAbs(0.0, 1.0, 1.0)), Piece(NegatedAbs(0.0, 1.0, 3.0))])
    w = _ordering_witness(fam, sin_sq_medium)
    assert (w["kind"], w["level"], w["p"]) == ("check", 1, p)
    assert w["lhs"] == abs(p) - 1.0 < w["rhs"] == slope * abs(p) + offset


def test_equal_tail_slopes_stay_in_order(sin_sq_medium):
    # offsets whose sums round: the tails are compared by their slopes,
    # exactly, not by differences of values
    fam = MinMaxFamily(
        [Piece(AbsShift(0.3, 1.7, 0.7), "additive", 0),
         Piece(AbsShift(0.3, 1.7, 0.3), "additive", 0)],
        [Piece(NegatedAbs(0.1, 0.9, 1.3), "additive", 0),
         Piece(NegatedAbs(0.1, 0.9, 1.7), "additive", 0)])
    assert _ordering_witness(fam, sin_sq_medium) is None


def _shifted(start):
    """sin^2 on the circle, shifted so that node 0 sees x = start / 8."""
    spec = MediumSpec("periodic", 1.0, [{"formula": "sin_sq",
                                          "shift": -start / 8}])
    return sample_realization(spec, 0)


def _dense_witness(family, medium):
    """The per-node loops of the reference on a lattice that holds every
    kink, wide enough for the tails of the families below."""
    return ordering_witness_per_x(family, medium, np.linspace(-8, 8, 257),
                                  medium_table(medium))


# out of order, with V = sin^2(pi x), which takes at x = k/8
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
    (0, ("check", 1, 0.0)),       # the first node fails at level 1
    (1, ("check", 2, 644 / 4096)),  # checks at level 2 before hats at 1
    (4, ("check", 2, 0.0)),
    (6, ("check", 1, 605 / 4096))])  # V is in (0.1, 0.6) until then
def test_ordering_witness_is_the_per_probe_loops(start, witness):
    medium = _shifted(start)
    got = _ordering_witness(TWO_PROBES_TWO_LEVELS, medium)
    want = _dense_witness(TWO_PROBES_TWO_LEVELS, medium)
    assert (got["kind"], got["level"], got["x"]) == \
        (want["kind"], want["level"], want["x"]) == witness
    # the gap is the same at every p: the witness sits at the kink
    assert got["p"] == 0.0


def test_ordering_on_repeated_states_matches_the_loop():
    # a four-cell checkerboard has four states on the table, and the
    # witness must still name the first failing node; random families
    # break the ordering almost everywhere, so also one ordered by
    # construction (each level a constant shift of the first)
    spec = MediumSpec("checkerboard", 1.0, [
        {"cell": 0.25, "low": 0.0, "high": 1.0},
        {"cell": 0.5, "low": 0.0, "high": 0.5},
        {"cell": 0.25, "low": 0.5, "high": 1.5}])
    rng = np.random.default_rng(3)
    for seed in range(6):
        medium = sample_realization(spec, seed)
        base = random_family(rng, 1, medium)
        ordered = MinMaxFamily(
            [base.checks[0].with_extra_const(-k) for k in range(3)],
            [base.hats[0].with_extra_const(k) for k in range(3)])
        for fam in (TWO_PROBES_TWO_LEVELS, random_family(rng, 3, medium),
                    ordered):
            got, want = (_ordering_witness(fam, medium),
                         _dense_witness(fam, medium))
            assert (got is None) == (want is None)
            if got is not None:
                assert [got[k] for k in ("kind", "level", "x")] == \
                    [want[k] for k in ("kind", "level", "x")]


def test_piece_table_evaluates_each_coupled_channel_once(
        two_level_family, two_channel_medium, monkeypatch):
    # four pieces on channels 0 and 1 of a three-channel medium
    calls = []
    evaluate = type(two_channel_medium).evaluate_channel

    def counted(self, idx, x):
        calls.append(idx)
        return evaluate(self, idx, x)
    monkeypatch.setattr(type(two_channel_medium), "evaluate_channel",
                        counted)
    PieceTable(two_level_family, [two_channel_medium])
    assert calls == [0, 1]


def test_piece_table_states_are_those_of_the_coupled_channels():
    # channel 1 is coupled to nothing, so it splits no state although
    # its shift tells apart nodes on which channel 0 agrees; the rows
    # are the pieces evaluated on the states' first nodes
    medium = sample_realization(MediumSpec("periodic", 1.0, [
        {"formula": "cos_sq", "offset": 0.5},
        {"formula": "cos", "shift": 0.1}]), 0)
    check = Piece(AbsShift(0.0, 1.0, -1.0), "amplitude", 0, scale=2.0)
    hat = Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0)
    table = PieceTable(MinMaxFamily([check], [hat]), [medium])
    columns = [medium.evaluate_channel(c, medium_table(medium))
               for c in (0, 1)]
    first, inverse = states_per_entry(columns[:1])
    assert np.array_equal(table.first, first)
    assert np.array_equal(table.inverse, inverse[None])
    assert table.x.size < states_per_entry(columns)[0].size
    for (_, a, b), pc in ((table.checks[0], check), (table.hats[0], hat)):
        want = np.broadcast_arrays(*pc.coefficients(table.x, medium),
                                   table.x)[:2]
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])


def test_medium_free_family_is_one_state(two_channel_medium):
    fam = MinMaxFamily([Piece(AbsShift(0.0, 1.0, -1.0))],
                       [Piece(NegatedAbs(0.0, 1.0, 1.0))])
    table = PieceTable(fam, [two_channel_medium])
    assert table.first.tolist() == [0] and table.x.tolist() == [0.0]
    assert np.array_equal(table.inverse,
                          np.zeros((1, table.nodes.size), dtype=int))


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
    # level above it keeps H_k. On random families and on the kernel's
    # plain ones: piecewise profiles, amplitude pieces, a b holding -0.0
    rng = np.random.default_rng(37)
    families = [random_family(rng, ell, two_channel_medium)
                for ell in (1, 2, 3) for _ in range(4)]
    families += [fam for fam in _kernel_families(np.random.default_rng(41),
                                                 two_channel_medium)
                 if not any(isinstance(pc, CombinedPiece)
                            for pc in fam.checks + fam.hats)]
    seen = set()
    p = np.linspace(-4.0, 4.0, 41)[:, None, None]
    x = np.linspace(0.0, 1.0, 9)[None, :, None] + np.zeros((1, 1, 2))
    for fam in families:
        ell = fam.ell
        cv, hv = _piece_values(fam, p, x, two_channel_medium)
        nested = [nested_family_values(cv, hv, s) for s in range(1, ell + 1)]
        want = np.ones(np.broadcast(p, x).shape, dtype=int)
        for k in range(2, ell + 1):
            want[nested[k - 1] != nested[k - 2]] = k
        got = outermost_levels(fam, p, x, two_channel_medium)
        assert np.array_equal(got, want)
        assert nested[-1].tobytes() == LevelHamiltonian(fam).evaluate(
            p, x, two_channel_medium).tobytes()
        seen.update(np.unique(got).tolist())
    assert len(families) == 40
    assert seen == {1, 2, 3}


def _plain_pieces(family):
    out = []
    for pc in family.checks + family.hats:
        out += pc.pieces if isinstance(pc, CombinedPiece) else [pc]
    return out


def _kernel_families(rng, medium):
    """Families for the kernel: random ones (uncoupled, shared and
    distinct channels, amplitude pieces), their reorderings (combined
    pieces), piecewise profiles, uncoupled pieces with a nonzero
    extra_const, and pieces that add a b holding -0.0."""
    for ell in (1, 2, 3):
        for _ in range(6):
            fam = random_family(rng, ell, medium)
            yield fam
            yield reorder_family(fam)
    valley = PiecewiseMonotone([-1.0, 0.0, 2.0], [1.0, -0.5, 3.0])
    hill = PiecewiseMonotone([-2.0, 0.5, 1.0], [-1.0, 2.0, 0.5], "hill")
    yield MinMaxFamily([Piece(valley, "additive", 0)],
                       [Piece(hill, "additive", 0)])
    yield MinMaxFamily([Piece(valley, "amplitude", 2, scale=0.7),
                        Piece(AbsShift(0.5, 2.0, 1.0), None,
                              extra_const=0.25)],
                       [Piece(NegatedAbs(0.0, 1.0, 0.5), None,
                              extra_const=0.25),
                        Piece(hill, None, extra_const=-0.5)])
    yield MinMaxFamily([Piece(AbsShift(0.0, 1.0, 0.7), None,
                              extra_const=0.3)],
                       [Piece(NegatedAbs(0.0, 1.5, 1.0), None,
                              extra_const=0.3)])
    # b = -1.0 * 0.0 + -0.0 = -0.0 where the channel is zero; the
    # offsets -0.0 make the profiles themselves -0.0 or 0.0 at p = 0
    yield MinMaxFamily([Piece(AbsShift(0.0, 1.0, -0.0), "additive", 0,
                              scale=-1.0, extra_const=-0.0)],
                       [Piece(NegatedAbs(0.0, 1.0, -0.0), "additive", 0,
                              scale=-1.0, extra_const=-0.0)])


class TestLevelKernel:
    """The compiled level kernel against the fold of the pieces' own
    bindings (``_reference.level_fold``), bit for bit: values and the
    signs of zeros."""

    def test_matches_the_piece_fold_bitwise(self, two_channel_medium):
        rng = np.random.default_rng(41)
        # node 0 is x = 0, where the sin^2 channels are 0.0
        x = np.linspace(0.0, 1.0, 13)
        seen = 0
        for fam in _kernel_families(rng, two_channel_medium):
            kinks = np.concatenate([pc.profile.kinks()[0]
                                    for pc in _plain_pieces(fam)])
            p = np.concatenate((rng.uniform(-4.0, 4.0, 24), kinks, -kinks,
                                [0.0, -0.0]))[:, None] + np.zeros(x.shape)
            want = level_fold(fam, x, two_channel_medium)(p)
            h = LevelHamiltonian(fam)
            got = h.bind(x, two_channel_medium)(p)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            base = rng.uniform(-2.0, 2.0, (p.shape[0], 1))
            dv = p - base
            got = h.bind_base(base, x, two_channel_medium)((dv,))
            want = level_fold(fam, x, two_channel_medium)(dv + base)
            assert got.tobytes() == want.tobytes()
            seen += 1
        assert seen == 40

    def test_broadcasts_like_the_fold(self, two_channel_medium):
        rng = np.random.default_rng(43)
        fam = random_family(rng, 2, two_channel_medium)
        h = LevelHamiltonian(fam)
        p = np.linspace(-3.0, 3.0, 7)[:, None, None]
        x = np.linspace(0.0, 1.0, 5)[None, :, None] + np.zeros((1, 1, 2))
        want = level_fold(fam, x, two_channel_medium)(p)
        assert h.evaluate(p, x, two_channel_medium).tobytes() \
            == want.tobytes()
        assert h.evaluate(0.3, 0.2, two_channel_medium) \
            == level_fold(fam, 0.2, two_channel_medium)(np.asarray(0.3))

    def test_subset_rows_equal_a_fresh_binding(self, two_channel_medium):
        rng = np.random.default_rng(47)
        x = np.linspace(0.0, 1.0, 17)
        P = rng.uniform(-3.0, 3.0, (9, 1))
        for fam in list(_kernel_families(rng, two_channel_medium))[::3]:
            # and a scalar base that adds nothing, where rows are ignored
            for ham, zero in ((LevelHamiltonian(fam), 0.0),
                              (GradientShift(LevelHamiltonian(fam), 0.37),
                               0.37)):
                for base in (P, zero):
                    f = ham.bind_base(base, x, two_channel_medium)
                    f((rng.uniform(-2.0, 2.0, (9, x.size)),))
                    for rows in (np.array([0, 4, 5, 8]), np.array([3]),
                                 np.arange(9)):
                        dv = rng.uniform(-2.0, 2.0, (rows.size, x.size))
                        fresh = ham.bind_base(
                            base if base is zero else base[rows], x,
                            two_channel_medium)
                        assert f((dv,), rows).tobytes() \
                            == fresh((dv,)).tobytes()

    def test_nonzero_scalar_base_serves_every_row(self, two_channel_medium):
        # a piece's own binding and a level kernel (a shift folds its
        # delta into the zero base) given a scalar base and rows
        rng = np.random.default_rng(53)
        x = np.linspace(0.0, 1.0, 17)
        fam = random_family(rng, 2, two_channel_medium)
        dv = rng.uniform(-2.0, 2.0, (4, x.size))
        for ham, base in ((Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
                           0.5),
                          (GradientShift(LevelHamiltonian(fam), 0.37), 0.0)):
            f = ham.bind_base(base, x, two_channel_medium)
            assert f((dv,), np.array([0, 4, 5, 8])).tobytes() \
                == f((dv,)).tobytes()

    def test_one_channel_evaluation_per_binding(self, two_channel_medium):
        # two levels on channel 0, a hat on channel 1 and an amplitude
        # check on channel 2: every channel is evaluated once per binding
        fam = MinMaxFamily(
            [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
             Piece(AbsShift(0.0, 1.0, -3.0), "amplitude", 2)],
            [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
             Piece(NegatedAbs(0.0, 1.0, 3.0), "additive", 1)])
        x = np.linspace(0.0, 1.0, 16)
        for pbase in (0.0, np.zeros((3, 1))):
            medium = CountingMedium(two_channel_medium)
            LevelHamiltonian(fam).bind_base(pbase, x, medium)
            assert medium.calls == {0: 1, 1: 1, 2: 1}
