"""Min-max families of Hamiltonian pieces.

A family holds an equal number of quasiconvex pieces (``checks``) and
quasiconcave pieces (``hats``). Levels nest as

    H_1 = max(check_1, hat_1)
    H_k = max(check_k, min(hat_k, H_{k-1}))

Half levels, min(hat_{k+1}, H_k), appear only in the nested effective
formula (``effective.theorem_formula_values``). Replacing the checks
and hats by their running extrema over the levels leaves the nested
value unchanged; ``reorder_family`` does that with combined pieces.

A piece and a combined piece each write their formula once, as
``bind(x, medium)``: H(., x) as a function of a plain gradient array,
with the x-dependence frozen on x. The solvers' ``bind_base`` derives
from it in the shared base ``Hamiltonian``.

A level's binding, the one path every solve evaluates a family
through, writes the fold of its pieces out directly, in place
(``_LevelKernel``), and gives bit for bit the fold of the pieces' own
bindings. Binding evaluates each coupled channel once and reads every
piece's coefficients off it. A call computes each distinct distance
s * |p - c| once, folds the pieces in scratch tables the binding keeps,
and returns a fresh array. Pieces that add the same coefficient b (same
coupling, channel, scale and extra_const, so bit-equal b) have it
added once, after their max or min. That changes no bit. g(t) =
fl(t + b) is monotone: where g(s) < g(t), s < t as well, so
max(g(s), g(t)) = g(t) = g(max(s, t)). Where g(s) and g(t) compare
equal they are the same float bit for bit, so the tie rule of max
cannot tell them apart: with b nonzero g returns -0.0 nowhere (an exact
cancellation rounds to +0.0), with b = +0.0 it maps both zeros to
+0.0, and with b = -0.0 it is the identity. The same holds for min,
and by induction for the whole fold; a NaN operand gives NaN either
way.

Evaluation does not check the ordering of the pieces;
``validate_ordering`` does, once and exactly, on a ``PieceTable``.
"""

import math
from functools import reduce

import numpy as np

from .errors import HypothesisError, ProfileShapeError
from .media import distinct, medium_table
from .profiles import QUASICONCAVE, QUASICONVEX, AbsShift, NegatedAbs


class Hamiltonian:
    """What every Hamiltonian derives from its ``bind(x, medium)``."""

    def bind_base(self, pbase, x, medium):
        """The solvers' binding: f(dv, rows=None) = H(dv[0] + pbase, x),
        with dv a one-tuple holding the difference array and pbase
        broadcasting against it (a column of base gradients, one per
        row of dv, or a scalar). ``rows``, if given, indexes the rows of
        the column that the rows of dv take, so that one binding serves
        every subset of them; a scalar base serves every row as it is.
        A scalar zero base is not added: that only turns -0.0 into 0.0,
        which every profile maps to the same value."""
        f = self.bind(x, medium)
        if _zero(pbase):
            return lambda dv, rows=None: f(dv[0])
        return lambda dv, rows=None: f(dv[0] + _pick(pbase, rows))


def _zero(pbase):
    """Whether pbase is the scalar zero base, which is not added."""
    return np.ndim(pbase) == 0 and pbase == 0.0


def _pick(pbase, rows):
    """The rows ``rows`` of a base column; a scalar base, or no rows,
    as it is."""
    return pbase if rows is None or np.ndim(pbase) == 0 else pbase[rows]


class Piece(Hamiltonian):
    """One Hamiltonian piece: profile in p coupled to a medium coefficient.

    On every node x it is an affine map of its profile,
    H(p, x) = a(x) * profile(p) + b(x), written once, by ``coefficients``:
      None        -- a = 1, b = extra_const
      "additive"  -- a = 1, b = scale * coeff(x) + extra_const
      "amplitude" -- a = scale * coeff(x), b = extra_const; a must stay
                     positive or the convexity tag would be wrong
    """

    def __init__(self, profile, coupling=None, channel=None, scale=1.0,
                 extra_const=0.0):
        self.profile = profile
        self.coupling = coupling
        self.channel = channel
        self.scale = float(scale)
        self.extra_const = float(extra_const)

    @property
    def tag(self):
        return self.profile.tag

    def coefficients(self, x, medium, columns=None):
        """(a, b) of H(p, x) = a * profile(p) + b on the nodes x; a
        scalar stands for a value constant over x. ``columns``, if
        given, maps the piece's channel to its values on x, which are
        then read instead of evaluated. Raises ProfileShapeError at the
        first node where an amplitude a <= 0."""
        if self.coupling is None:
            return 1.0, self.extra_const
        coeff = self.scale * (
            medium.evaluate_channel(self.channel, x) if columns is None
            else columns[self.channel])
        if self.coupling == "additive":
            return 1.0, coeff + self.extra_const
        bad = np.ravel(coeff <= 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ProfileShapeError(
                f"amplitude channel {self.channel} has coefficient "
                f"{np.ravel(coeff)[i]:.6g} <= 0 at x={np.ravel(x)[i]:.6g}; "
                f"the convexity tag would be invalid")
        return coeff, self.extra_const

    def bind(self, x, medium, columns=None):
        phi = self.profile
        a, b = self.coefficients(x, medium, columns)
        if self.coupling == "amplitude":
            return lambda p: a * phi(p) + b
        # a = 1 is left out, so that an additive binding adds only b
        if self.coupling is None and b == 0.0:
            return phi
        return lambda p: phi(p) + b

    def lipschitz(self, medium=None):
        """Lipschitz bound in p; an amplitude piece scales its profile's
        by the largest |coefficient| the channel bounds of the
        realization ``medium`` allow."""
        lip = self.profile.lipschitz()
        if self.coupling == "amplitude":
            lo, hi = medium.spec.channel_bounds(self.channel)
            lip *= self.scale * max(abs(lo), abs(hi))
        return lip


class CombinedPiece(Hamiltonian):
    """Pointwise max (of quasiconvex) or min (of quasiconcave) pieces,
    as reordering produces them."""

    def __init__(self, op, pieces):
        self.op = op
        self.pieces = list(pieces)

    @property
    def tag(self):
        return QUASICONVEX if self.op == "max" else QUASICONCAVE

    def bind(self, x, medium, columns=None):
        red = np.maximum if self.op == "max" else np.minimum
        fs = [pc.bind(x, medium, columns) for pc in self.pieces]
        return lambda p: reduce(red, [f(p) for f in fs])

    def lipschitz(self, medium=None):
        return max(pc.lipschitz(medium) for pc in self.pieces)


class MinMaxFamily:
    """Equal-length lists of quasiconvex and quasiconcave pieces, nested
    max-first."""

    def __init__(self, checks, hats):
        self.checks = list(checks)
        self.hats = list(hats)

    @property
    def ell(self):
        return len(self.checks)


def ordering_message(at):
    """The text of an ordering witness: the kind of the pieces, the
    lower of the two levels, the gradient ``p``, the medium point ``x``
    and the values ``lhs`` and ``rhs`` of the two pieces there."""
    return (f"{at['kind']} pieces out of order at levels {at['level']}/"
            f"{at['level'] + 1}: values {at['lhs']:.6g} vs {at['rhs']:.6g} "
            f"at p={at['p']}, x={at['x']}")


def _states(columns, shape):
    """(first, inverse) of the distinct states of the entries of an
    array of ``shape``, told apart bit for bit by the flat arrays
    ``columns`` (one state without them): ``first`` holds each state's
    first flat index, in order, and ``inverse`` each entry's state."""
    if not columns:
        return np.zeros(1, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    bits = np.column_stack(columns).view(np.uint64)
    # stable: the first entry of a state leads its run
    order = np.lexsort(bits.T[::-1])
    run = np.ones(order.size, dtype=bool)
    run[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    first = order[run]
    by_entry = np.argsort(first)
    rank = np.empty_like(by_entry)
    rank[by_entry] = np.arange(by_entry.size)
    inverse = np.empty_like(order)
    inverse[order] = rank[np.cumsum(run) - 1]
    return first[by_entry], inverse.reshape(shape)


class PieceTable:
    """A family's plain pieces on a whole sample of realizations, on the
    exact oracle's ``medium_table``: where a family meets a sample.

    ``first_draw[d]`` indexes the first realization that draws distinct
    medium d (equal ``key``), ``medium_of[s]`` is realization s's, and
    ``seeds`` holds every realization's seed. The rows are the distinct
    states of all (distinct medium, node) entries, told apart by the
    channels some piece couples to, each evaluated once per medium:
    ``inverse[d, j]`` is node j's row in medium d, ``first`` each row's
    first entry (flat in ``inverse``) and ``x`` its node. ``checks[k]``
    and ``hats[k]`` hold each piece as (profile, a, b), H = a * profile
    + b, with a and b arrays over the rows (``Piece.coefficients``,
    which raises ProfileShapeError at the first row where an amplitude
    a <= 0)."""

    def __init__(self, family, realizations):
        self.seeds = [r.seed for r in realizations]
        self.first_draw, self.medium_of = distinct(r.key for r in realizations)
        media = [realizations[i] for i in self.first_draw]
        self.nodes = medium_table(media[0])
        channels = sorted({pc.channel for pc in family.checks + family.hats
                           if pc.coupling is not None})
        columns = {c: np.concatenate([m.evaluate_channel(c, self.nodes)
                                      for m in media]) for c in channels}
        self.first, self.inverse = _states(list(columns.values()),
                                           (len(media), self.nodes.size))
        self.x = self.nodes[self.first % self.nodes.size]
        columns = {c: v[self.first] for c, v in columns.items()}

        def rows(piece):
            a, b = piece.coefficients(self.x, None, columns)
            return (piece.profile,
                    *np.broadcast_arrays(a, b, self.x)[:2])

        self.checks = [rows(pc) for pc in family.checks]
        self.hats = [rows(pc) for pc in family.hats]


def _out_of_order(upper, lower):
    """Where the piece ``upper`` falls below ``lower``, both as
    (profile, a, b) over the rows of a ``PieceTable``. Their difference
    is affine between the union K of their kinks and on each tail, so
    it is judged at the left tail, at K and at the right tail: returns
    a (|K| + 2, rows) table of those verdicts and one of the gradients
    that witness them, each kink itself, and for a tail the point one
    unit past where the pieces cross (or past the end kink where they
    are out of order already)."""
    (fu, au, bu), (fl, al, bl) = upper, lower
    (ku, (ul, ur)), (kl, (ll, lr)) = fu.kinks(), fl.kinks()
    K = np.union1d(ku, kl)
    au, bu, al, bl = (np.reshape(c, (1, -1)) for c in (au, bu, al, bl))
    vu, vl = au * fu(K)[:, None] + bu, al * fl(K)[:, None] + bl
    # a tail falls out of order where the upper piece rises slower
    # outward: by these amounts per unit
    fall = au * ul - al * ll, al * lr - au * ur
    bad = np.concatenate((fall[0] > 0, vu < vl, fall[1] > 0))
    gap = np.maximum(vu - vl, 0.0)
    left = K[0] - 1.0 - gap[:1] / np.where(bad[:1], fall[0], 1.0)
    right = K[-1] + 1.0 + gap[-1:] / np.where(bad[-1:], fall[1], 1.0)
    return bad, np.concatenate((left, np.broadcast_to(K[:, None], gap.shape),
                                right))


def validate_ordering(table):
    """Check the monotone ordering exactly on every row of a
    ``PieceTable``: no check may lie below the next level's, and no hat
    above it, at any gradient (``_out_of_order``). Raises with a witness
    point: the first failing medium (its first ``seed``) and node,
    checks before hats, the lower level, then the leftmost failing place
    (the left tail, the kinks in order, the right tail)."""
    tests = [(kind, k, rows[k], rows[k + 1])
             for kind, rows in (("check", table.checks), ("hat", table.hats))
             for k in range(len(rows) - 1)]
    found = [_out_of_order(*((lhs, rhs) if kind == "check" else (rhs, lhs)))
             for kind, _, lhs, rhs in tests]
    failing = np.zeros(table.x.size, dtype=bool)
    for bad, _ in found:
        failing |= bad.any(axis=0)
    failing = failing[table.inverse]
    if not failing.any():
        return
    d, j = np.unravel_index(np.argmax(failing), failing.shape)
    r = table.inverse[d, j]
    t = next(t for t, (bad, _) in enumerate(found) if bad[:, r].any())
    bad, points = found[t]
    p = points[np.argmax(bad[:, r]), r]
    kind, k, *pieces = tests[t]
    lhs, rhs = (a[r] * f(p) + b[r] for f, a, b in pieces)
    at = {"seed": table.seeds[table.first_draw[d]],
          "kind": kind, "level": k + 1, "p": float(p),
          "x": float(table.nodes[j]), "lhs": float(lhs), "rhs": float(rhs)}
    raise HypothesisError(ordering_message(at), at)


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


def _plain(piece):
    """The plain pieces of a piece, in order."""
    if isinstance(piece, CombinedPiece):
        return [q for pc in piece.pieces for q in _plain(pc)]
    return [piece]


def _key(pc):
    """What tells apart the b a plain piece adds: equal keys, bit-equal
    b. None for an uncoupled piece that adds nothing."""
    if pc.coupling is None and pc.extra_const == 0.0:
        return None
    return pc.coupling, pc.channel, pc.scale.hex(), pc.extra_const.hex()


def _columns(pieces, x, medium):
    """Each channel that a plain piece of ``pieces`` couples to,
    evaluated once on the nodes x: the ``columns`` of
    ``Piece.coefficients``."""
    channels = sorted({q.channel for pc in pieces for q in _plain(pc)
                       if q.coupling is not None})
    return {c: medium.evaluate_channel(c, x) for c in channels}


class _LevelKernel:
    """A family's levels bound on the nodes x: ``kernel(p, rows=None)``
    is H(p + base[rows], x) as a fresh array (a float when it is 0-d),
    bit for bit the nested fold of the pieces' own bindings, level ell
    outermost. ``rows`` picks the rows of the base that the rows
    of p take; without a base, or with a scalar one, it is ignored.

    Binding evaluates each coupled channel once and reads every plain
    piece's (a, b) off it; a combined piece keeps its own binding. A
    call computes q = p + base and each distinct distance s * |q - c|
    once, then folds the pieces in the module docstring's order:
    check_1, hat_1, then hat_k and check_k for each level k above, with
    the operands of each max and min in the nesting's order. The b that
    the leading pieces of the fold share (equal ``_key``) is added once,
    after their max or min; every other piece adds its own.

    Memory: q goes into scratch, and the distance computed last
    overwrites it unless a profile reads q itself (a piecewise profile,
    or a combined piece, whose value is copied in). Each distance is
    computed where its first reader meets it; the last piece that reads
    it writes its value over it, and a distance that one piece reads is
    computed where that piece writes. check_1 writes into the result;
    every other value goes into one more scratch table, free again once
    it is folded in. The scratch tables are views of one array the
    kernel keeps and grows to its largest call.
    """

    def __init__(self, checks, hats, x, medium, base=None):
        # bound in the order the pieces' own bindings meet them, so that
        # an amplitude <= 0 raises the same error first
        pieces = (*reversed(checks), *reversed(hats))
        columns = _columns(pieces, x, medium)
        bound = {id(pc): pc.coefficients(x, medium, columns)
                 if isinstance(pc, Piece) else pc.bind(x, medium, columns)
                 for pc in pieces}
        order = [(checks[0], None), (hats[0], np.maximum)]
        for c, h in zip(checks[1:], hats[1:]):
            order += [(h, np.minimum), (c, np.maximum)]
        # the distance s * |q - c| each piece reads; None for a piecewise
        # profile or a combined piece, which read q itself
        dists = [(pc.profile.center, pc.profile.slope)
                 if isinstance(getattr(pc, "profile", None),
                               (AbsShift, NegatedAbs)) else None
                 for pc, _ in order]
        last = {d: i for i, d in enumerate(dists)}    # in first-read order
        # tables by index: q, with a base, is scratch 0, which the
        # distance computed last may overwrite if no profile reads q
        n = int(base is not None)
        over_q = (list(last)[-1]
                  if base is not None and None not in last else None)
        self._steps, slot = [], {}
        for i, ((pc, op), d) in enumerate(zip(order, dists)):
            new = d is not None and d not in slot   # computes d here
            if new and d == over_q:
                slot[d] = 0
            elif new and last[d] > i:
                slot[d], n = n, n + 1
            if i == 0:
                o = -1                  # the result, after the scratch
            elif d in slot and last[d] == i:
                o = slot[d]
            else:
                o = -2                  # the value table, scratch's last
            if new and d not in slot:
                slot[d] = o             # its one reader writes over it
            if isinstance(pc, Piece):
                phi, (a, b), key = pc.profile, bound[id(pc)], _key(pc)
                a = a if pc.coupling == "amplitude" else None
            else:
                phi, a, b, key = bound[id(pc)], None, None, None
            f = phi if d is None else (
                np.add if isinstance(phi, AbsShift) else np.subtract)
            self._steps.append((o, slot.get(d), d if new else None, f,
                                phi.offset if d else None, a, key, b, op,
                                i == 1))
        self._base = base
        self._n = n + any(step[0] == -2 for step in self._steps)
        self._shape = np.broadcast_shapes(*map(np.shape, columns.values()))
        self._scratch = np.empty(0)
        self._views = {}        # (p's shape, base's shape) -> scratch views

    def __call__(self, p, rows=None):
        p = np.asarray(p, dtype=float)
        base = self._base
        if base is not None:
            base = _pick(base, rows)
        shapes = p.shape, np.shape(base)
        if shapes not in self._views:
            shape = np.broadcast_shapes(*shapes, self._shape)
            size = math.prod(shape)
            if self._scratch.size < self._n * size:
                self._scratch = np.empty(self._n * size)
                self._views.clear()
            self._views[shapes] = [
                self._scratch[i * size:(i + 1) * size].reshape(shape)
                for i in range(self._n)]
        S = self._views[shapes]
        out = np.empty(S[0].shape)
        S = [*S, out]
        q = p if base is None else np.add(p, base, out=S[0])
        pending = add = None
        for o, d, new, f, off, a, key, b, op, first in self._steps:
            v = S[o]
            if new is not None:
                c, s = new
                w = S[d]
                np.absolute(np.subtract(q, c, out=w) if c else q, out=w)
                if s != 1.0:
                    np.multiply(s, w, out=w)
            if d is None:
                np.copyto(v, f(q))
            else:
                f(off, S[d], out=v)
            if a is not None:
                np.multiply(a, v, out=v)
            if op is None:
                pending, add = key, b
                continue
            # a pending b is added where the run of its key ends
            if key != pending:
                if pending is not None:
                    np.add(out, add, out=out)
                if key is not None:
                    np.add(v, b, out=v)
                pending = None
            if first:
                op(out, v, out=out)
            else:
                op(v, out, out=out)
        if pending is not None:
            np.add(out, add, out=out)
        return out if out.ndim else float(out)


class LevelHamiltonian:
    """The whole family's nesting, level ell outermost, evaluated by
    one in-place fold per binding (``_LevelKernel``)."""

    def __init__(self, family):
        self._pieces = family.checks, family.hats

    def bind_base(self, pbase, x, medium):
        """``Hamiltonian.bind_base`` on the kernel, which adds the base
        column (its ``rows``, if given) into its own scratch. A method
        of this class, so that perfbench/tracer.py can wrap the solvers'
        level bindings on it alone."""
        run = _LevelKernel(*self._pieces, x, medium,
                           None if _zero(pbase)
                           else np.asarray(pbase, dtype=float))
        return lambda dv, rows=None: run(dv[0], rows)

    def lipschitz(self, medium=None):
        checks, hats = self._pieces
        return max(pc.lipschitz(medium) for pc in checks + hats)


def outermost_levels(family, p, x, medium):
    """Per point of p (broadcast against the nodes x), the outermost
    level k whose value H_k(p, x) differs from H_{k-1}(p, x), with the
    levels nested as in the module docstring; 1 where no level above
    the first changes the value. Each coupled channel is evaluated
    once, as a level binding does."""
    columns = _columns(family.checks + family.hats, x, medium)
    (c1, *checks), (h1, *hats) = [
        [pc.bind(x, medium, columns)(p) for pc in pieces]
        for pieces in (family.checks, family.hats)]
    v = np.maximum(c1, h1)
    level = np.ones(np.broadcast(v, x).shape, dtype=int)
    for k, (c, h) in enumerate(zip(checks, hats), start=2):
        w = np.maximum(c, np.minimum(h, v))
        level = np.where(w != v, k, level)
        v = w
    return level
