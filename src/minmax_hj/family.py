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

Evaluation does not check the ordering of the pieces;
``validate_ordering`` does, once, on a sample lattice.
"""

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


class Piece:
    """One Hamiltonian piece: profile in p coupled to a medium coefficient.

    coupling:
      None        -- x-independent, H(p) = profile(p)
      "additive"  -- profile(p) + scale * coeff(x)
      "amplitude" -- scale * coeff(x) * profile(p); coefficient must stay
                     positive or the convexity tag would be wrong.

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

    def _coeff(self, x, medium):
        vals = medium.evaluate_channel(self.channel, x)
        return self.scale * vals

    def evaluate(self, p, x=None, medium=None):
        base = self.profile((np.asarray(p, dtype=float),))
        if self.coupling is None:
            val = base
        elif self.coupling == "additive":
            val = base + self._coeff(x, medium)
        else:
            val = self._coeff(x, medium) * base
        return val + self.extra_const

    def bind_base(self, pbase, x, medium):
        """Freeze the x-dependence on a node set; returns f(dv) = H(pbase+dv, x)
        with pbase a column of gradients, row i of dv taken at pbase[i]."""
        f = self.profile.bind_base(pbase)
        extras = self.extra_const
        if self.coupling is None:
            if extras == 0.0:
                return f
            return lambda dv: f(dv) + extras
        coeff = self._coeff(x, medium)
        if self.coupling == "additive":
            shift = coeff + extras
            return lambda dv: f(dv) + shift
        if np.any(coeff <= 0):
            raise ProfileShapeError(
                "amplitude coefficient is not positive on the node set; "
                "convexity tag would be invalid")
        return lambda dv: coeff * f(dv) + extras

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


class CombinedPiece:
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

    def evaluate(self, p, x=None, medium=None):
        red = np.maximum if self.op == "max" else np.minimum
        out = self.pieces[0].evaluate(p, x, medium)
        for pc in self.pieces[1:]:
            out = red(out, pc.evaluate(p, x, medium))
        return out

    def bind_base(self, pbase, x, medium):
        red = np.maximum if self.op == "max" else np.minimum
        fs = [pc.bind_base(pbase, x, medium) for pc in self.pieces]

        def run(dv):
            out = fs[0](dv)
            for f in fs[1:]:
                out = red(out, f(dv))
            return out
        return run

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


def _fold(check_vals, hat_vals):
    # checks take the outer max, hats the inner min
    v = np.maximum(check_vals[0], hat_vals[0])
    for k in range(1, len(check_vals)):
        v = np.maximum(check_vals[k], np.minimum(hat_vals[k], v))
    return v


def eval_minmax(family, s, p, x=None, medium=None):
    """Evaluate the family nesting at whole level ``s``."""
    k = _level(family, s)
    cv = [pc.evaluate(p, x, medium) for pc in family.checks[:k]]
    hv = [pc.evaluate(p, x, medium) for pc in family.hats[:k]]
    return _fold(cv, hv)


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


class LevelHamiltonian:
    """Solver-facing view of one whole nesting level."""

    def __init__(self, family, s):
        self.family = family
        self.s = s
        k = _level(family, s)
        self._pieces = family.checks[:k], family.hats[:k]

    def evaluate(self, p, x=None, medium=None):
        return eval_minmax(self.family, self.s, p, x, medium)

    def bind_base(self, pbase, x, medium):
        checks, hats = self._pieces
        fc = [pc.bind_base(pbase, x, medium) for pc in checks]
        fh = [pc.bind_base(pbase, x, medium) for pc in hats]

        def run(dv):
            return _fold([f(dv) for f in fc], [f(dv) for f in fh])
        return run

    def lipschitz(self, medium=None):
        checks, hats = self._pieces
        return max(pc.lipschitz(medium) for pc in checks + hats)


class GradientShift:
    """H'(p, x) = H(p - delta, x), with the shift folded into the base point.

    Folding keeps a shifted solve bit-identical to the original one when
    pbase - delta reproduces the original base point exactly in floating
    point.
    """

    def __init__(self, inner, delta):
        self.inner = inner
        self.delta = float(delta)

    def evaluate(self, p, x=None, medium=None):
        return self.inner.evaluate(np.asarray(p, dtype=float) - self.delta,
                                   x, medium)

    def bind_base(self, pbase, x, medium):
        return self.inner.bind_base(np.asarray(pbase, dtype=float)
                                    - self.delta, x, medium)

    def lipschitz(self, medium=None):
        return self.inner.lipschitz(medium)

