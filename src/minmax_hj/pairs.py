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

Everything works on a gradient grid. Boundary points are located by
linear interpolation, which is exact for the piecewise-linear catalogue
as long as profile kinks do not share a cell with a crossing.
"""

import numpy as np

from .errors import BoxTooSmallError
from .family import CombinedPiece


class PairReport:
    def __init__(self, contact_value_V, contact_value_Lambda,
                 boundary_variation, stable, tau_b, outside_gap=None):
        self.contact_value_V = contact_value_V
        self.contact_value_Lambda = contact_value_Lambda
        self.boundary_variation = boundary_variation
        self.stable = stable
        self.tau_b = tau_b
        self.outside_gap = outside_gap


def _grid_1d(p_box, n_p):
    lo, hi = float(p_box[0]), float(p_box[1])
    if not lo < hi:
        raise ValueError("need p_box lo < hi")
    return np.linspace(lo, hi, int(n_p))


def _tau_b(vals_V, vals_L, h):
    """Stability tolerance: ten grid steps of the steeper function."""
    lip = max(np.max(np.abs(np.diff(vals_V))), np.max(np.abs(np.diff(vals_L)))) / h
    return 10.0 * lip * h


def analyze_pair(V_fn, L_fn, p_box, n_p=2049):
    """Stability report for one (V, L) pair on a gradient box.

    V_fn/L_fn take gradient arrays. Raises BoxTooSmallError when the
    comparison region or the V-minimum touches the box boundary.
    """
    p = _grid_1d(p_box, n_p)
    h = p[1] - p[0]
    vV = np.asarray(V_fn(p), dtype=float)
    vL = np.asarray(L_fn(p), dtype=float)
    tau_b = _tau_b(vV, vL, h)
    g = vL - vV
    mask = g >= 0.0
    if mask[0] or mask[-1]:
        raise BoxTooSmallError("comparison region touches the gradient box")
    if not mask.any():
        imin = int(np.argmin(vV))
        if imin in (0, vV.size - 1):
            raise BoxTooSmallError("V attains its grid minimum on the box boundary")
        return PairReport(float(vV[imin]), float(np.max(vL)), 0.0, True,
                          tau_b)

    idx = np.flatnonzero(mask[:-1] != mask[1:])
    p_star = p[idx] + g[idx] * h / (g[idx] - g[idx + 1])
    bV = np.asarray(V_fn(p_star), dtype=float)
    bL = np.asarray(L_fn(p_star), dtype=float)
    variation = float(np.max(bV) - np.min(bV))
    c_V = float(np.mean(bV))
    c_L = float(np.mean(bL))

    outside_gap = float(np.min(vV[~mask]) - c_V)
    stable = variation <= tau_b and outside_gap > -tau_b
    return PairReport(c_V, c_L, variation, stable, tau_b, outside_gap)


def expand_p_box(family, media):
    """Grow a symmetric gradient box, doubling its half-width from 4 up to
    1024, until every check dominates every hat on its boundary at 65
    points of one medium period, in every realization of ``media`` (one
    realization or a list): the widest box any of them needs."""
    if not isinstance(media, (list, tuple)):
        media = [media]
    probes = [(m, np.linspace(0.0, m.period, 65)[None, :]) for m in media]
    R = 4.0
    while R <= 1024.0:
        edges = np.array([-R, R])[:, None]
        if all(np.all(ck.evaluate(edges, x, m) > ht.evaluate(edges, x, m))
               for m, x in probes
               for ck in family.checks for ht in family.hats):
            return (-R, R)
        R *= 2.0
    raise BoxTooSmallError("could not find a gradient box with dominant checks")


class ContactConstants:
    """Per-level contact fields on the medium sample plus their extrema.

    m_fields/M_fields: list over realizations of (ell, n_x) arrays.
    m_bar[k-1] = max over samples of m_k; M_lower[k-1] = min of M_k.
    """

    def __init__(self, m_fields, M_fields, seeds, witnesses):
        self.m_fields = m_fields
        self.M_fields = M_fields
        self.seeds = seeds
        self.witnesses = witnesses
        stacked_m = np.concatenate(m_fields, axis=1)
        stacked_M = np.concatenate(M_fields, axis=1)
        self.m_bar = stacked_m.max(axis=1)
        self.M_lower = stacked_M.min(axis=1)

    @property
    def all_pairs_stable(self):
        return not self.witnesses

    def to_dict(self):
        return {"m_bar": self.m_bar.tolist(),
                "M_lower": self.M_lower.tolist(),
                "seeds": list(self.seeds),
                "all_pairs_stable": self.all_pairs_stable,
                "n_x": int(sum(f.shape[1] for f in self.m_fields)),
                "witnesses": self.witnesses[:8]}


def _piece_peak(piece, x, medium):
    """Exact max over p of a quasiconcave piece at fixed x; None for a
    combined piece, whose peak is found by grid scan."""
    if isinstance(piece, CombinedPiece):
        return None
    peak = piece.profile.extreme_value()
    if piece.coupling is None:
        val = peak + 0.0 * np.asarray(x, dtype=float)
    else:
        coeff = piece.scale * medium.evaluate_channel(piece.channel, x)
        val = peak + coeff if piece.coupling == "additive" else coeff * peak
    return val + piece.extra_const


def contact_fields(family, media, x_nodes, p_box=None, n_p=2049):
    """Contact fields and constants for a family.

    ``media`` is one realization or a list (the extrema then run over
    all of them). Unstable pairs are recorded as witnesses, not raised;
    ``all_pairs_stable`` on the result is the verdict.
    """
    if not isinstance(media, (list, tuple)):
        media = [media]
    if p_box is None:
        p_box = expand_p_box(family, media)
    x_nodes = np.asarray(x_nodes, dtype=float)
    ell = family.ell

    m_fields, M_fields, witnesses = [], [], []
    for medium in media:
        m_arr = np.empty((ell, x_nodes.size))
        M_arr = np.empty((ell, x_nodes.size))
        peak = _piece_peak(family.hats[0], x_nodes, medium)
        if peak is not None:
            M_arr[0] = peak
        for j, xj in enumerate(x_nodes):
            for k in range(ell):
                rep = analyze_pair(
                    lambda P: family.checks[k].evaluate(P, xj, medium),
                    lambda P: family.hats[k].evaluate(P, xj, medium),
                    p_box, n_p)
                m_arr[k, j] = rep.contact_value_V
                if not rep.stable:
                    witnesses.append(_witness(k + 1, "level pair", xj, rep,
                                              medium.seed))
                if k > 0:
                    rep2 = analyze_pair(
                        lambda P: family.checks[k - 1].evaluate(P, xj, medium),
                        lambda P: family.hats[k].evaluate(P, xj, medium),
                        p_box, n_p)
                    M_arr[k, j] = rep2.contact_value_Lambda
                    if not rep2.stable:
                        witnesses.append(_witness(k + 1, "cross pair", xj, rep2,
                                                  medium.seed))
            if peak is None:
                # grid peak fallback for combined hats
                P = _grid_1d(p_box, n_p)
                M_arr[0, j] = float(np.max(family.hats[0].evaluate(P, xj, medium)))
        m_fields.append(m_arr)
        M_fields.append(M_arr)
    seeds = [m.seed for m in media]
    return ContactConstants(m_fields, M_fields, seeds, witnesses)


def _witness(level, kind, x, rep, seed):
    return {"level": level, "kind": kind, "x": float(x), "seed": seed,
            "variation": rep.boundary_variation, "tau_b": rep.tau_b,
            "contact_value_V": rep.contact_value_V,
            "outside_gap": rep.outside_gap}


def check_monotonicity(constants, strict=False):
    """Verdicts for the two contact chains: m_bar non-increasing,
    M_lower non-decreasing (strictly, when asked)."""
    m, M = constants.m_bar, constants.M_lower
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


def check_condition_e(family, medium, x_nodes, m_1, p_box, n_p=2049):
    """Thin-level-set check at level 1.

    m_1 holds the level-1 V-contact values at x_nodes in this medium,
    as ``contact_fields`` computed them on the same p_box and n_p (row 0
    of its m_fields). For each sampled x, the set
    {p : |piece(p, x) - m_1(x)| <= 1e-9 * max(1, |m_1(x)|)} must have no
    grid-interior point for either level-1 piece. The catalogue is
    exactly evaluable, so the tolerance is an arithmetic one, not a
    grid-scale one: genuine flats produce exact runs, sharp minima do
    not.
    """
    P = _grid_1d(p_box, n_p)
    x_nodes = np.asarray(x_nodes, dtype=float)
    witnesses = []
    for xj, m1 in zip(x_nodes, m_1):
        scale = max(1.0, abs(m1))
        for name, piece in (("check", family.checks[0]),
                            ("hat", family.hats[0])):
            vals = piece.evaluate(P, xj, medium)
            hit = np.abs(vals - m1) <= 1e-9 * scale
            interior = hit[1:-1] & hit[:-2] & hit[2:]
            if interior.any():
                i = int(np.flatnonzero(interior)[0]) + 1
                witnesses.append({"x": float(xj), "piece": name,
                                  "p": float(P[i]), "value": float(vals[i]),
                                  "contact": float(m1)})
                break
    return {"holds": not witnesses, "witnesses": witnesses[:8]}
