"""Stable pairs and contact values.

For a coercive quasiconvex V and an anticoercive quasiconcave L (both
functions of the gradient at a frozen medium point), the comparison
region is D = {L >= V}. The pair is stable when D is empty, or when V
is constant on the boundary of D and strictly larger everywhere outside.
The V-contact value is min V (empty D) or the shared boundary value; the
L-contact value is max L (empty D) or the boundary value of L.

Per-level contact fields m_k (V-contact of the k-th pair) and M_k
(L-contact of hat_k against check_{k-1}, with the convention that an
absent check_0 means +infinity, so M_1 is the peak of hat_1) feed the
effective-Hamiltonian formula; their extrema over the medium sample are
the constants whose monotone chains the main gate checks.
``check_condition_e`` reports level-1 pieces that are flat at their
contact value.

A piece depends on x only through the channel values there, so each
pair and level-1 piece is evaluated on one (distinct medium state,
gradient grid) table: x-nodes of byte-equal channel vectors share the
row of the first of them, and the rows expand back to every node bit
for bit. A call holds the two piece tables plus a float and a bool
table of the one ``Workspace`` its hypothesis analysis reuses, as freed
tables would be faulted in again. Boundary points are located by linear
interpolation, which is exact for the piecewise-linear catalogue as
long as profile kinks do not share a cell with a crossing.
"""

import numpy as np

from .errors import BoxTooSmallError
from .family import CombinedPiece
from .media import distinct


def _grid_1d(p_box, n_p):
    lo, hi = float(p_box[0]), float(p_box[1])
    if not lo < hi:
        raise ValueError("need p_box lo < hi")
    return np.linspace(lo, hi, int(n_p))


class Workspace(dict):
    """Reused scratch: one byte buffer per slot, grown to the largest
    table asked of it and viewed as its dtype, undefined until written."""

    def table(self, slot, shape, dtype=float):
        size = shape[0] * shape[1] * np.dtype(dtype).itemsize
        if len(self.get(slot, ())) < size:
            self[slot] = np.empty(size, np.uint8)
        return self[slot][:size].view(dtype).reshape(shape)


def _steepest(v, out):
    d = np.subtract(v[:, 1:], v[:, :-1], out=out[:, 1:])
    return np.abs(d, out=d).max(axis=1)


def analyze_pair(V_fn, L_fn, p_box, n_p=2049, work=None):
    """Stability of a (V, L) pair on a gradient box, every row at once.

    V_fn/L_fn take a gradient array that broadcasts against the x-nodes
    column they close over (one row if they ignore x). Returns a dict of
    per-row arrays: contact_value_V, contact_value_Lambda,
    boundary_variation, stable, tau_b (ten grid steps of the steeper
    function) and outside_gap (NaN where the region is empty). Raises
    BoxTooSmallError with the first offending ``row`` when a comparison
    region or an empty region's V-minimum touches the box. Scratch tables
    come from ``work`` (a new ``Workspace`` if None), never the outputs."""
    work = Workspace() if work is None else work
    p = _grid_1d(p_box, n_p)
    h = p[1] - p[0]
    vV, vL = np.broadcast_arrays(np.atleast_2d(V_fn(p)),
                                 np.atleast_2d(L_fn(p)))
    # one table holds the steepness differences, then g, then the sign
    # changes: each is done with before the next is written
    g = work.table("values", vV.shape)
    tau_b = 10.0 * (np.maximum(_steepest(vV, g), _steepest(vL, g)) / h) * h
    np.subtract(vL, vV, out=g)
    mask = np.greater_equal(g, 0.0, out=work.table("mask", g.shape, bool))
    empty = ~mask.any(axis=1)
    imin = np.argmin(vV, axis=1)
    edge = mask[:, 0] | mask[:, -1]
    bad = edge | (empty & ((imin == 0) | (imin == n_p - 1)))
    if bad.any():
        row = int(np.argmax(bad))
        raise BoxTooSmallError(
            "comparison region touches the gradient box" if edge[row] else
            "V attains its grid minimum on the box boundary", row)
    # every row's crossings in one padded table; the padding is masked
    change = np.not_equal(mask[:, :-1], mask[:, 1:], out=work.table(
        "values", (len(mask), n_p - 1), bool))
    rows, cols = np.divmod(np.flatnonzero(change), n_p - 1)
    g0, g1 = (vL[rows, c] - vV[rows, c] for c in (cols, cols + 1))
    counts = np.bincount(rows, minlength=len(mask))
    p_star = np.full((len(mask), max(counts.max(), 1)), p[0])
    p_star[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = \
        p[cols] + g0 * h / (g0 - g1)
    valid = np.arange(p_star.shape[1]) < counts[:, None]
    bV, bL = V_fn(p_star), L_fn(p_star)
    n = np.maximum(counts, 1)
    variation = (np.max(bV, axis=1, where=valid, initial=-np.inf)
                 - np.min(bV, axis=1, where=valid, initial=np.inf))
    c_V = np.add.reduce(bV, axis=1, where=valid) / n
    outside = np.logical_not(mask, out=mask)
    outside_gap = np.min(vV, axis=1, where=outside, initial=np.inf) - c_V
    return {
        "contact_value_V": np.where(empty, vV[np.arange(len(vV)), imin], c_V),
        "contact_value_Lambda": np.where(
            empty, vL.max(axis=1), np.add.reduce(bL, axis=1, where=valid) / n),
        "boundary_variation": np.where(empty, 0.0, variation),
        "stable": empty | ((variation <= tau_b) & (outside_gap > -tau_b)),
        "tau_b": tau_b,
        "outside_gap": np.where(empty, np.nan, outside_gap)}


def expand_p_box(family, media):
    """Grow a symmetric gradient box, doubling its half-width from 4 up to
    1024, until every check dominates every hat on its boundary at 65
    points of one medium period, in every realization of ``media`` (one
    realization or a list): the widest box any of them needs. Each
    distinct medium state among the probes is evaluated once."""
    if not isinstance(media, (list, tuple)):
        media = [media]
    probes = []
    for m in [media[i] for i in distinct(r.key for r in media)[0]]:
        x = np.linspace(0.0, m.period, 65)
        probes.append((m, x[distinct(m.node_keys(x))[0]][None, :]))
    R = 4.0
    while R <= 1024.0:
        edges = np.array([-R, R])[:, None]
        if all(np.all(ck.evaluate(edges, x, m) > ht.evaluate(edges, x, m))
               for m, x in probes
               for ck in family.checks for ht in family.hats):
            return (-R, R)
        R *= 2.0
    raise BoxTooSmallError("could not find a gradient box with dominant checks")


def _piece_peak(piece, x, medium, P):
    """Max over p of a quasiconcave piece at each x: exact, or for a
    combined piece the peak of a grid scan over P."""
    if isinstance(piece, CombinedPiece):
        return np.max(np.atleast_2d(piece.evaluate(P, x[:, None], medium)),
                      axis=1)
    peak = piece.profile.extreme_value()
    if piece.coupling is None:
        val = peak + 0.0 * np.asarray(x, dtype=float)
    else:
        coeff = piece.scale * medium.evaluate_channel(piece.channel, x)
        val = peak + coeff if piece.coupling == "additive" else coeff * peak
    return val + piece.extra_const


def contact_fields(family, media, x_nodes, p_box=None, n_p=2049, work=None):
    """Contact fields and constants for a family, as one dict.

    ``media`` is one realization or a list (the extrema then run over
    all of them). The dict holds the fields ``m_fields`` and
    ``M_fields``, (n_media, ell, n_x) arrays; their extrema ``m_bar``
    (max of m_k over the sample) and ``M_lower`` (min of M_k), one entry
    per level; the media's ``seeds``; and ``witnesses``, the unstable
    pairs, recorded rather than raised and ordered by medium, x, level,
    then level pair before cross pair. ``all_pairs_stable`` is the
    verdict. Every pair's analysis reuses the tables of ``work``.

    A realization that draws the medium of an earlier one copies its
    fields and witnesses (under its own seed).
    """
    if not isinstance(media, (list, tuple)):
        media = [media]
    if p_box is None:
        p_box = expand_p_box(family, media)
    work = Workspace() if work is None else work
    x_nodes = np.asarray(x_nodes, dtype=float)
    real_reps, real_inv = distinct(m.key for m in media)
    fields = np.empty((real_reps.size, 2, family.ell, x_nodes.size))  # m, M
    found = []
    for medium, f in zip((media[i] for i in real_reps), fields):
        reps, inv = distinct(medium.node_keys(x_nodes))
        xr = x_nodes[reps]
        x = xr[:, None]
        f[1, 0] = _piece_peak(family.hats[0], xr, medium,
                              _grid_1d(p_box, n_p))[inv]
        unstable = []
        for k in range(family.ell):
            # the level pair, then hat_k against check_{k-1}
            for c, kind in enumerate(("level pair", "cross pair")[:k + 1]):
                try:
                    rep = analyze_pair(family.checks[k - c].bind(x, medium),
                                       family.hats[k].bind(x, medium),
                                       p_box, n_p, work)
                except BoxTooSmallError as err:
                    raise BoxTooSmallError(
                        f"level {k + 1} {kind} at "
                        f"x={float(xr[err.row])}, seed {medium.seed}: "
                        f"{err}") from None
                # one entry per node, also for a pair that ignores x
                rep = {key: np.broadcast_to(v, xr.shape)[inv]
                       for key, v in rep.items()}
                f[c, k] = rep[("contact_value_V", "contact_value_Lambda")[c]]
                unstable += [((j, k, c), {
                    "level": k + 1, "kind": kind, "x": float(x_nodes[j]),
                    "seed": medium.seed,
                    "variation": float(rep["boundary_variation"][j]),
                    "tau_b": float(rep["tau_b"][j]),
                    "contact_value_V": float(rep["contact_value_V"][j]),
                    "outside_gap": float(rep["outside_gap"][j])})
                    for j in np.flatnonzero(~rep["stable"]).tolist()]
        found.append([w for _, w in sorted(unstable, key=lambda u: u[0])])
    witnesses = [{**w, "seed": medium.seed}
                 for medium, i in zip(media, real_inv) for w in found[i]]
    m_fields, M_fields = fields[real_inv, 0], fields[real_inv, 1]
    return {"m_fields": m_fields, "M_fields": M_fields,
            "m_bar": m_fields.max(axis=(0, 2)),
            "M_lower": M_fields.min(axis=(0, 2)),
            "seeds": [m.seed for m in media], "witnesses": witnesses,
            "all_pairs_stable": not witnesses}


def check_monotonicity(constants, strict=False):
    """Verdicts for the two contact chains of a ``contact_fields``
    record: m_bar non-increasing, M_lower non-decreasing (strictly, when
    asked)."""
    m, M = constants["m_bar"], constants["M_lower"]
    failures = []
    for k in range(m.size - 1):
        ok = m[k] > m[k + 1] if strict else m[k] >= m[k + 1]
        if not ok:
            failures.append({"chain": "upper", "index": k + 1,
                             "values": [float(m[k]), float(m[k + 1])]})
        ok = M[k] < M[k + 1] if strict else M[k] <= M[k + 1]
        if not ok:
            failures.append({"chain": "lower", "index": k + 1,
                             "values": [float(M[k]), float(M[k + 1])]})
    return {"monotone": not failures, "strict": strict, "failures": failures}


def check_condition_e(family, medium, x_nodes, m_1, p_box, n_p=2049,
                      work=None):
    """Thin-level-set check at level 1.

    m_1 holds the level-1 V-contact values at x_nodes in this medium,
    as ``contact_fields`` computed them on the same p_box and n_p (level
    1 of this medium's ``m_fields``). For each sampled x, the set
    {p : |piece(p, x) - m_1(x)| <= 1e-9 * max(1, |m_1(x)|)} must have no
    grid-interior point for either level-1 piece. The catalogue is
    exactly evaluable, so the tolerance is an arithmetic one, not a
    grid-scale one: genuine flats produce exact runs, sharp minima do
    not. One witness per x, the check's before the hat's. The x-nodes of
    byte-equal channel vectors and m_1 values are checked once, on the
    first of them.
    """
    work = Workspace() if work is None else work
    P = _grid_1d(p_box, n_p)
    x_nodes = np.asarray(x_nodes, dtype=float)
    m_1 = np.asarray(m_1, dtype=float)
    reps, inv = distinct(medium.node_keys(x_nodes, m_1))
    x, m1 = x_nodes[reps][:, None], m_1[reps][:, None]
    tol = 1e-9 * np.maximum(1.0, np.abs(m1))
    witnesses, found = [], np.zeros(x_nodes.size, dtype=bool)
    for name, piece in (("check", family.checks[0]), ("hat", family.hats[0])):
        vals = np.broadcast_to(piece.evaluate(P, x, medium), (len(x), P.size))
        dev = np.subtract(vals, m1, out=work.table("values", vals.shape))
        hit = np.less_equal(np.abs(dev, out=dev), tol,
                            out=work.table("mask", vals.shape, bool))
        interior = np.logical_and(hit[:, 1:-1], hit[:, :-2], out=work.table(
            "values", (len(x), P.size - 2), bool))
        interior &= hit[:, 2:]
        i = np.argmax(interior, axis=1) + 1
        new = interior.any(axis=1)[inv] & ~found
        first = np.flatnonzero(new)[:8]
        witnesses += [(j, {"x": float(x_nodes[j]), "piece": name,
                           "p": float(P[i[r]]), "value": float(vals[r, i[r]]),
                           "contact": float(m_1[j])})
                      for j, r in zip(first.tolist(), inv[first].tolist())]
        found |= new
        del vals   # one fresh (x, p) table at a time
    witnesses = [w for _, w in sorted(witnesses, key=lambda t: t[0])][:8]
    return {"holds": not witnesses, "witnesses": witnesses}
