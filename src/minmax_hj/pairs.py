"""Stable pairs and contact values.

For a coercive quasiconvex V and an anticoercive quasiconcave L (both
functions of the gradient at a frozen medium point), the comparison
region is D = {L >= V}. The pair is stable when D is empty, or when V
is constant on the boundary of D and no lower anywhere outside.
The V-contact value is min V (empty D) or the shared boundary value; the
L-contact value is max L (empty D) or the boundary value of L.

Per-level contact fields m_k (V-contact of the k-th pair) and M_k
(L-contact of hat_k against check_{k-1}, with the convention that an
absent check_0 means +infinity, so M_1 is the peak of hat_1) feed the
effective-Hamiltonian formula; their extrema over the medium table are
the constants whose monotone chains the main gate checks.
``check_condition_e`` reports level-1 pieces that are flat at their
contact value.

The analysis is exact. Each piece is a * profile + b at a node, with
a > 0, and every profile is piecewise linear with linear tails and
kinks at fixed gradients (``kinks``). So for a pair, L - V is affine
on each segment between the union K of the two profiles' kinks and on
each tail: a segment holds one crossing, solved in closed form, or lies
on one side of D. Everything is read off the values at K, on one
(medium state, |K|) table per pair, whose rows are the distinct states
of a ``PieceTable``'s whole sample; the fields expand back to every
node of every realization.
Stability is decided to rounding: boundary values agree, and V outside
D stays above them, within STABILITY_RTOL times the scale of the pair's
values there.
"""

import numpy as np

# the stability tolerance, relative to the largest |value| of V and L
# at the kinks and of V on the boundary (about 4500 rounding units)
STABILITY_RTOL = 1e-12


def analyze_pair(V, L):
    """Stability of a (V, L) pair on every row of its coefficients.

    V and L are pieces as (profile, a, b), H = a * profile + b, with a
    and b arrays over the rows (or scalars). Returns a dict of per-row
    arrays: contact_value_V, contact_value_Lambda, boundary_variation,
    the lowest and highest value of V on the boundary of D (V_low,
    V_high, infinite where D is empty), outside_gap (min of V outside D,
    its boundary included, minus contact_value_V; NaN where D is empty),
    tolerance and stable."""
    (fV, aV, bV), (fL, aL, bL) = V, L
    (kV, (vl, vr)), (kL, (ll, lr)) = fV.kinks(), fL.kinks()
    K = np.union1d(kV, kL)
    # one column per row, so that every reduction runs across rows
    aV, bV, aL, bL = (np.reshape(c, (1, -1)) for c in (aV, bV, aL, bL))
    phV, phL = fV(K)[:, None], fL(K)[:, None]
    # a medium shift both pieces share cancels before any division
    vV, vL, d = np.broadcast_arrays(aV * phV + bV, aL * phL + bL,
                                    (aL * phL - aV * phV) + (bL - bV))
    inside = d >= 0.0
    # one crossing per segment at most: the left tail (where L - V rises
    # at sl > 0), the segments between kinks, the right tail (sr < 0)
    cross = np.concatenate((inside[:1], inside[:-1] != inside[1:],
                            inside[-1:]))
    sl, sr = aL * ll - aV * vl, aL * lr - aV * vr
    d0, d1 = d[:-1], d[1:]
    step = np.where(cross[1:-1], d0 - d1, 1.0)
    p = np.concatenate((K[0] - d[:1] / sl,
                        K[:-1, None] + d0 * np.diff(K)[:, None] / step,
                        K[-1] - d[-1:] / sr))
    p[~cross] = K[0]
    bVp = aV * fV(p) + bV
    n = cross.sum(axis=0)
    empty = n == 0
    hi = np.where(cross, bVp, -np.inf).max(axis=0)
    lo = np.where(cross, bVp, np.inf).min(axis=0)
    count = np.maximum(n, 1)
    c_V = np.where(cross, bVp, 0.0).sum(axis=0) / count
    c_L = np.where(cross, aL * fL(p) + bL, 0.0).sum(axis=0) / count
    variation = np.where(empty, 0.0, hi - lo)
    outside = np.minimum(lo, np.where(inside, np.inf, vV).min(axis=0))
    gap = np.where(empty, np.nan, outside - c_V)
    scale = np.maximum(np.abs(vV).max(axis=0), np.abs(vL).max(axis=0))
    scale = np.maximum(scale, np.where(cross, np.abs(bVp), 0.0).max(axis=0))
    tol = STABILITY_RTOL * scale
    return {
        "contact_value_V": np.where(empty, vV.min(axis=0), c_V),
        "contact_value_Lambda": np.where(empty, vL.max(axis=0), c_L),
        "boundary_variation": variation, "V_low": lo, "V_high": hi,
        "outside_gap": gap, "tolerance": tol,
        "stable": empty | ((variation <= tol) & (gap >= -tol))}


def contact_fields(table):
    """Contact fields and constants of a ``PieceTable``'s sample.

    The pairs are analyzed once on the table's rows, and the extrema
    run over every node of every realization. The dict holds the fields
    ``m_fields`` and ``M_fields``, (n_seeds, ell, n_nodes) arrays; their
    extrema ``m_bar`` (max of m_k over the sample) and ``M_lower`` (min
    of M_k), one entry per level; the realizations' ``seeds`` and the
    number of medium states analyzed in each (``n_states``); the largest
    stability tolerance applied (``tolerance``); the count of unstable
    (node, level, pair) entries over all realizations (``n_unstable``)
    and ``witnesses``, the first 8 of them, ordered by realization,
    node, level, then level pair before cross pair. ``all_pairs_stable``
    is the verdict. A realization that draws the medium of an earlier
    one shares its fields and entries, under its own seed.
    """
    ell, n_rows = len(table.checks), table.x.size
    f = np.empty((2, ell, n_rows))     # m, M per row
    profile, a, b = table.hats[0]
    f[1, 0] = a * profile.extreme_value() + b
    bad = np.zeros((ell, 2, n_rows), dtype=bool)
    reps, tolerance = {}, 0.0
    for k in range(ell):
        # the level pair, then hat_k against check_{k-1}
        for c in range(min(k + 1, 2)):
            rep = analyze_pair(table.checks[k - c], table.hats[k])
            f[c, k] = rep[("contact_value_V", "contact_value_Lambda")[c]]
            bad[k, c] = ~rep["stable"]
            tolerance = max(tolerance, float(rep["tolerance"].max()))
            reps[k, c] = rep
    # unstable entries per (distinct medium, node)
    failing = bad.sum(axis=(0, 1))[table.inverse]
    witnesses = []
    for seed, d in zip(table.seeds, table.medium_of.tolist()):
        if len(witnesses) >= 8:
            break
        for j in np.flatnonzero(failing[d])[:8 - len(witnesses)].tolist():
            r = table.inverse[d, j]
            for k, c in zip(*np.nonzero(bad[:, :, r])):
                rep = reps[k, c]
                witnesses.append({
                    "level": int(k) + 1,
                    "kind": ("level pair", "cross pair")[c],
                    "x": float(table.nodes[j]), "seed": seed,
                    "variation": float(rep["boundary_variation"][r]),
                    "boundary_values_V": [float(rep["V_low"][r]),
                                          float(rep["V_high"][r])],
                    "contact_value_V": float(rep["contact_value_V"][r]),
                    "outside_gap": float(rep["outside_gap"][r])})
    n_unstable = int(failing.sum(axis=1)[table.medium_of].sum())
    m_fields, M_fields = np.moveaxis(f[:, :, table.inverse[table.medium_of]],
                                     2, 1)
    return {"m_fields": m_fields, "M_fields": M_fields,
            "m_bar": m_fields.max(axis=(0, 2)),
            "M_lower": M_fields.min(axis=(0, 2)),
            "seeds": table.seeds,
            "n_states": [int(np.count_nonzero(np.bincount(table.inverse[d])))
                         for d in table.medium_of],
            "tolerance": tolerance, "n_unstable": n_unstable,
            "witnesses": witnesses[:8], "all_pairs_stable": n_unstable == 0}


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


def check_condition_e(table, m_1):
    """Thin-level-set check at level 1.

    m_1 holds the level-1 V-contact values of each realization of the
    ``PieceTable`` ``table`` at its nodes (``m_fields[:, 0]`` of
    ``contact_fields``). Neither level-1 piece may be flat at its
    contact value: a piece is flat only on a segment between two of its
    kinks where its profile takes one value, and it fails where a *
    value + b is within 1e-9 * max(1, |m_1|) of m_1 (an arithmetic
    tolerance; the catalogue is exactly evaluable). Witnesses come from
    the first medium that fails: one per node, the check's before the
    hat's, at the middle of the first such segment, for 8 nodes.
    """
    m_1 = np.asarray(m_1, dtype=float)[table.first_draw]
    m1 = m_1.ravel()[table.first][:, None]
    tol = 1e-9 * np.maximum(1.0, np.abs(m1))
    hits = []
    for name, (profile, a, b) in (("check", table.checks[0]),
                                  ("hat", table.hats[0])):
        k = profile.kinks()[0]
        v = profile(k)
        flat = np.flatnonzero(v[:-1] == v[1:])
        vals = a[:, None] * v[flat] + b[:, None]
        hits.append((name, k, flat, vals, np.abs(vals - m1) <= tol))
    for d, inverse in enumerate(table.inverse):
        witnesses, found = [], np.zeros(inverse.size, dtype=bool)
        for name, k, flat, vals, hit in hits:
            new = hit.any(axis=1)[inverse] & ~found
            for j in np.flatnonzero(new)[:8].tolist():
                r = inverse[j]
                i = int(np.argmax(hit[r]))
                witnesses.append((j, {
                    "x": float(table.nodes[j]), "piece": name,
                    "p": float(0.5 * (k[flat[i]] + k[flat[i] + 1])),
                    "value": float(vals[r, i]),
                    "contact": float(m_1[d, j])}))
            found |= new
        if witnesses:
            return {"holds": False, "witnesses": [
                w for _, w in sorted(witnesses, key=lambda t: t[0])][:8]}
    return {"holds": True, "witnesses": []}
