"""Min-max families of Hamiltonian pieces and the scalar nesting identity.

A family holds an equal number of quasiconvex pieces (``checks``) and
quasiconcave pieces (``hats``). Levels nest as

    H_1 = max(check_1, hat_1)
    H_k = max(check_k, min(hat_k, H_{k-1}))

Half levels, min(hat_{k+1}, H_k), appear only in the nested effective
formula (``effective.theorem_formula_values``). The scalar identity
behind reordering says the nested value is unchanged when the sequences
are replaced by their running extrema; ``reorder_family`` is its
function-level counterpart.

Every Hamiltonian here (a piece, a combined piece, a level, a gradient
shift) writes its formula once, as ``bind(x, medium)``: H(., x) as a
function of a plain gradient array, with the x-dependence frozen on x.
``evaluate`` and the solvers' ``bind_base`` derive from it in the shared
base ``Hamiltonian``.

Evaluation does not check the ordering of the pieces;
``validate_ordering`` does, once, on a sample lattice.
"""

from functools import reduce

import numpy as np

from .errors import OrderingViolationError, ProfileShapeError
from .profiles import QUASICONCAVE, QUASICONVEX


def minmax_scalar(a, b):
    """Alternating nested value of two equal-length sequences.

    First entries are outermost:
    max(a[0], min(b[0], max(a[1], ..., max(a[-1], b[-1])))).
    Entries may be floats or broadcastable arrays.
    """
    a = [np.asarray(v, dtype=float) for v in a]
    b = [np.asarray(v, dtype=float) for v in b]
    if len(a) != len(b) or not a:
        raise ValueError("need equal-length, nonempty sequences")
    v = np.maximum(a[-1], b[-1])
    for k in range(len(a) - 2, -1, -1):
        v = np.maximum(a[k], np.minimum(b[k], v))
    return v if v.shape else float(v)


def minmax_scalar_monotone(a, b):
    """Same nested value, computed from running extrema.

    Replaces a by its running maxima and b by its running minima (from
    the outside in) before nesting. Equal to ``minmax_scalar`` for
    arbitrary inputs; the monotone sequences are what the reordering
    construction produces.
    """
    a = np.stack([np.asarray(v, dtype=float) for v in a])
    b = np.stack([np.asarray(v, dtype=float) for v in b])
    if a.shape != b.shape:
        raise ValueError("need equal-length sequences")
    alpha = np.maximum.accumulate(a, axis=0)
    beta = np.minimum.accumulate(b, axis=0)
    v = np.maximum(alpha[-1], beta[-1])
    for k in range(a.shape[0] - 2, -1, -1):
        v = np.maximum(alpha[k], np.minimum(beta[k], v))
    return v if v.shape else float(v)


class Hamiltonian:
    """What every Hamiltonian derives from its ``bind(x, medium)``."""

    def evaluate(self, p, x=None, medium=None):
        return self.bind(x, medium)(np.asarray(p, dtype=float))

    def bind_base(self, pbase, x, medium):
        """The solvers' binding: f(dv) = H(dv[0] + pbase, x), with dv a
        one-tuple holding the difference array and pbase broadcasting
        against it (a column of base gradients, one per row of dv, or a
        scalar)."""
        f = self.bind(x, medium)
        return lambda dv: f(dv[0] + pbase)


class Piece(Hamiltonian):
    """One Hamiltonian piece: profile in p coupled to a medium coefficient.

    coupling:
      None        -- x-independent, H(p) = profile(p)
      "additive"  -- profile(p) + scale * coeff(x)
      "amplitude" -- scale * coeff(x) * profile(p); coefficient must stay
                     positive or the convexity tag would be wrong, so
                     every binding checks it on its nodes.

    ``extra_const`` is a constant added to every value.
    """

    def __init__(self, profile, coupling=None, channel=None, scale=1.0,
                 extra_const=0.0):
        if coupling not in (None, "additive", "amplitude"):
            raise ProfileShapeError(f"unknown coupling {coupling!r}")
        if coupling is not None and channel is None:
            raise ProfileShapeError("coupled pieces need a medium channel")
        if coupling == "amplitude" and scale <= 0:
            raise ProfileShapeError("amplitude coupling needs a positive scale")
        self.profile = profile
        self.coupling = coupling
        self.channel = channel
        self.scale = float(scale)
        self.extra_const = float(extra_const)

    @property
    def tag(self):
        return self.profile.tag

    def bind(self, x, medium):
        phi, extra = self.profile, self.extra_const
        if self.coupling is None:
            return phi if extra == 0.0 else lambda p: phi(p) + extra
        coeff = self.scale * medium.evaluate_channel(self.channel, x)
        if self.coupling == "additive":
            shift = coeff + extra
            return lambda p: phi(p) + shift
        bad = np.ravel(coeff <= 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ProfileShapeError(
                f"amplitude channel {self.channel} has coefficient "
                f"{np.ravel(coeff)[i]:.6g} <= 0 at x={np.ravel(x)[i]:.6g}; "
                f"the convexity tag would be invalid")
        return lambda p: coeff * phi(p) + extra

    def lipschitz(self, medium=None):
        lip = self.profile.lipschitz()
        if self.coupling == "amplitude":
            lo, hi = medium.channel_bounds(self.channel)
            lip *= self.scale * max(abs(lo), abs(hi))
        return lip

    def with_extra_const(self, delta):
        return Piece(self.profile, self.coupling, self.channel, self.scale,
                     self.extra_const + delta)

    def negate_dual(self):
        """p -> -H(-p, x); swaps the convexity role."""
        scale = -self.scale if self.coupling == "additive" else self.scale
        return Piece(self.profile.negate_dual(), self.coupling, self.channel,
                     scale, -self.extra_const)

    def even_dual(self):
        """p -> H(-p, x); keeps the convexity role."""
        return Piece(self.profile.even_dual(), self.coupling, self.channel,
                     self.scale, self.extra_const)


class CombinedPiece(Hamiltonian):
    """Pointwise max (of quasiconvex) or min (of quasiconcave) pieces,
    as reordering produces them."""

    def __init__(self, op, pieces):
        if op not in ("max", "min"):
            raise ValueError("op must be 'max' or 'min'")
        tags = {p.tag for p in pieces}
        if len(tags) != 1:
            raise ProfileShapeError("combined pieces must share a convexity tag")
        want = QUASICONVEX if op == "max" else QUASICONCAVE
        if tags.pop() != want:
            raise ProfileShapeError(f"{op} combination would break the convexity tag")
        self.op = op
        self.pieces = list(pieces)

    @property
    def tag(self):
        return QUASICONVEX if self.op == "max" else QUASICONCAVE

    def bind(self, x, medium):
        red = np.maximum if self.op == "max" else np.minimum
        fs = [pc.bind(x, medium) for pc in self.pieces]
        return lambda p: reduce(red, [f(p) for f in fs])

    def lipschitz(self, medium=None):
        return max(pc.lipschitz(medium) for pc in self.pieces)


class MinMaxFamily:
    """Equal-length lists of quasiconvex and quasiconcave pieces, nested
    max-first."""

    def __init__(self, checks, hats):
        if len(checks) != len(hats) or not checks:
            raise ProfileShapeError("need equally many checks and hats, at least one")
        for pc in checks:
            if pc.tag != QUASICONVEX:
                raise ProfileShapeError("checks must be quasiconvex")
        for pc in hats:
            if pc.tag != QUASICONCAVE:
                raise ProfileShapeError("hats must be quasiconcave")
        self.checks = list(checks)
        self.hats = list(hats)

    @property
    def ell(self):
        return len(self.checks)


def _level(family, s):
    """The whole level s, 1 <= s <= ell, as an int."""
    k = int(round(float(s)))
    if float(s) != k:
        raise ValueError(f"level must be a whole number, got {s}")
    if not 1 <= k <= family.ell:
        raise ValueError(f"level {s} out of range for a {family.ell}-level family")
    return k


def _check_ordering_values(check_vals, hat_vals, p, x):
    """Raise at the first sample where consecutive pieces are out of
    order; the witness is that sample's gradient and medium point."""
    def raise_at(kind, k, lhs, rhs):
        bad = np.asarray(lhs < rhs if kind == "check" else lhs > rhs)
        if not np.any(bad):
            return
        w = tuple(np.argwhere(bad)[0])
        pick = lambda a: float(np.broadcast_to(a, bad.shape)[w])
        raise OrderingViolationError(kind, k + 1, pick(p), pick(x),
                                     pick(lhs), pick(rhs))

    for k in range(len(check_vals) - 1):
        raise_at("check", k, check_vals[k], check_vals[k + 1])
    for k in range(len(hat_vals) - 1):
        raise_at("hat", k, hat_vals[k], hat_vals[k + 1])


def validate_ordering(family, medium, p_samples, x_samples):
    """Check the monotone ordering on a sample lattice, tolerance zero;
    raises with the failing level and a witness point."""
    for xs in x_samples:
        cv = [pc.evaluate(p_samples, xs, medium) for pc in family.checks]
        hv = [pc.evaluate(p_samples, xs, medium) for pc in family.hats]
        _check_ordering_values(cv, hv, p_samples, xs)


def reorder_family(family):
    """Replace pieces by running extrema over levels k..ell.

    The nested value at the top level is unchanged (scalar identity),
    and the returned family is ordered by construction.
    """
    ell = family.ell

    def combine(pieces, op):
        out = []
        for k in range(ell):
            tail = pieces[k:]
            out.append(tail[0] if len(tail) == 1 else CombinedPiece(op, tail))
        return out

    return MinMaxFamily(combine(family.checks, "max"),
                        combine(family.hats, "min"))


class LevelHamiltonian(Hamiltonian):
    """The family nesting at one whole level s: the level-s pieces
    folded by ``minmax_scalar``, level s outermost."""

    def __init__(self, family, s):
        k = _level(family, s)
        self._pieces = family.checks[:k], family.hats[:k]

    # a binding of its own, so that perfbench/tracer.py can wrap the
    # solvers' level bindings on this class alone
    bind_base = Hamiltonian.bind_base

    def bind(self, x, medium):
        checks, hats = self._pieces
        fc = [pc.bind(x, medium) for pc in reversed(checks)]
        fh = [pc.bind(x, medium) for pc in reversed(hats)]
        return lambda p: minmax_scalar([f(p) for f in fc],
                                       [f(p) for f in fh])

    def lipschitz(self, medium=None):
        checks, hats = self._pieces
        return max(pc.lipschitz(medium) for pc in checks + hats)


class GradientShift(Hamiltonian):
    """H'(p, x) = H(p - delta, x), with the shift folded into the base point.

    Folding keeps a shifted solve bit-identical to the original one when
    pbase - delta reproduces the original base point exactly in floating
    point.
    """

    def __init__(self, inner, delta):
        self.inner = inner
        self.delta = float(delta)

    def bind(self, x, medium):
        f, delta = self.inner.bind(x, medium), self.delta
        return lambda p: f(p - delta)

    def bind_base(self, pbase, x, medium):
        return self.inner.bind_base(np.asarray(pbase, dtype=float)
                                    - self.delta, x, medium)

    def lipschitz(self, medium=None):
        return self.inner.lipschitz(medium)

