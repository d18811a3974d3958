"""Independent reference computations used by the test suite.

Everything here follows the displayed definitions literally (recursion,
window minima, brute-force scans) so implementation shortcuts are tested
against a separate code path.
"""

import numpy as np

from minmax_hj.errors import HypothesisError
from minmax_hj.family import (CombinedPiece, PieceTable, minmax_scalar,
                              validate_ordering)
from minmax_hj.pairs import check_condition_e, contact_fields
from minmax_hj.solver import _newton_direction


def nested_scalar(a, b):
    """Literal recursion, first entries outermost."""
    if len(a) == 1:
        return max(a[0], b[0])
    return max(a[0], min(b[0], nested_scalar(a[1:], b[1:])))


def nested_family_values(check_vals, hat_vals, s):
    """Nested value from per-level piece values; level 1 innermost.

    check_vals/hat_vals are sequences of arrays (one per level).
    s is a whole level.
    """
    v = np.maximum(check_vals[0], hat_vals[0])
    for k in range(1, s):
        v = np.maximum(check_vals[k], np.minimum(hat_vals[k], v))
    return v


def hopf_lax_abs(u0_fn, x, t, box):
    """Solution at (x, t) for H = |p| and periodic initial data:
    window minimum of u0 over [x - t, x + t].

    u0_fn must accept arrays and be box-periodic. Evaluated by dense
    sampling plus exact window endpoints.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    n_dense = 8192
    for i, xi in enumerate(x):
        ys = np.linspace(xi - t, xi + t, n_dense)
        out[i] = np.min(u0_fn(ys))
    return out


def running_extrema_nested(a, b):
    """Reference for the monotone form: running max/min then literal nesting."""
    alphas = [max(a[:k + 1]) for k in range(len(a))]
    betas = [min(b[:k + 1]) for k in range(len(b))]
    return nested_scalar(alphas, betas)


def lf_march(h, u0, grid, theta, T, n_steps):
    """Forward-Euler march of one field under the Lax-Friedrichs
    Hamiltonian of the gradient-only h, written out with np.roll."""
    u = np.array(u0, dtype=float)
    dt = T / n_steps
    for _ in range(n_steps):
        dp = (np.roll(u, -1) - u) / grid.h
        dm = (u - np.roll(u, 1)) / grid.h
        u = u - dt * (h(0.5 * (dp + dm)) - 0.5 * theta * (dp - dm))
    return u


def power_fit(lams, ys):
    """Least squares for y = H + C * lam^alpha with alpha scanned on
    [0.4, 1.1] and refined; one closed-form 2x2 solve per alpha."""
    lams = np.asarray(lams, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = lams.size

    def solve_for(alpha):
        g = lams ** alpha
        sg, sgg, sy, sgy = g.sum(), (g * g).sum(), ys.sum(), (g * ys).sum()
        det = n * sgg - sg * sg
        if abs(det) < 1e-300:
            return ys.mean(), 0.0, float(np.max(np.abs(ys - ys.mean())))
        c = (n * sgy - sg * sy) / det
        hbar = (sy - c * sg) / n
        resid = float(np.max(np.abs(ys - hbar - c * g)))
        return hbar, c, resid

    lo, hi = 0.4, 1.1
    best = None
    for _ in range(3):
        alphas = np.linspace(lo, hi, 15)
        tries = [(solve_for(a), a) for a in alphas]
        (hbar, c, resid), alpha = min(tries, key=lambda t: t[0][2])
        best = (hbar, c, resid, alpha)
        step = alphas[1] - alphas[0]
        lo, hi = max(0.4, alpha - step), min(1.1, alpha + step)
    return best


def bisection_oracle(profile, v_table, p_samples, a_table=None):
    """Oracle for H(p, x) = a(x) phi(p) + V(x), a > 0 (a = 1 by
    default), by its definition: each p's level solves
    avg phi_inv((mu - V) / a) = p on the monotone branch, found by
    bisection to a level width of 1e-10. Returns (values, critical
    level, flat interval)."""
    V = np.asarray(v_table, dtype=float)
    a = np.ones_like(V) if a_table is None else np.asarray(a_table, float)
    assert np.all(a > 0)
    p_samples = np.asarray(p_samples, dtype=float)
    bottoms = a * profile.extreme_value() + V
    if np.all(V == V[0]) and np.all(a == a[0]):
        # one map at every node: no averaging, the curve is the map
        values = a[0] * profile(p_samples) + V[0]
        lo, hi = profile.branch_inverses(profile.extreme_value())
        return values, float(bottoms[0]), (float(lo), float(hi))
    mu_star = float(bottoms.max())

    def ends(mu):
        left, right = profile.branch_inverses((mu - V) / a)
        return float(left.mean()), float(right.mean())

    pl_star, pr_star = ends(mu_star)

    def level_for(p):
        if pl_star <= p <= pr_star:
            return mu_star
        side = 1 if p > pr_star else 0
        lo = mu_star
        hi = mu_star + 1.0
        while (ends(hi)[side] < p if side else ends(hi)[side] > p):
            hi = mu_star + 2.0 * (hi - mu_star)
            if hi - mu_star > 1e12:
                raise ValueError("level search diverged; profile not coercive?")
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            at = ends(mid)[side]
            if (at < p) if side else (at > p):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    values = np.array([level_for(float(pi)) for pi in p_samples])
    return values, mu_star, (pl_star, pr_star)


def pair_report(V_fn, L_fn, p_box, n_p):
    """Stability of one (V, L) pair at one x, as a dict of scalars; the
    per-x form of ``pairs.analyze_pair`` (outside_gap None where the
    region is empty). Raises ValueError where the box is too small."""
    p = np.linspace(float(p_box[0]), float(p_box[1]), int(n_p))
    h = p[1] - p[0]
    vV = np.asarray(V_fn(p), dtype=float)
    vL = np.asarray(L_fn(p), dtype=float)
    lip = max(np.max(np.abs(np.diff(vV))), np.max(np.abs(np.diff(vL)))) / h
    tau_b = 10.0 * lip * h
    g = vL - vV
    mask = g >= 0.0
    if mask[0] or mask[-1]:
        raise ValueError("comparison region touches the gradient box")
    if not mask.any():
        imin = int(np.argmin(vV))
        if imin in (0, vV.size - 1):
            raise ValueError("V attains its grid minimum on the box boundary")
        return {"contact_value_V": float(vV[imin]),
                "contact_value_Lambda": float(np.max(vL)),
                "boundary_variation": 0.0, "stable": True, "tau_b": tau_b,
                "outside_gap": None}
    idx = np.flatnonzero(mask[:-1] != mask[1:])
    p_star = p[idx] + g[idx] * h / (g[idx] - g[idx + 1])
    bV = np.asarray(V_fn(p_star), dtype=float)
    bL = np.asarray(L_fn(p_star), dtype=float)
    variation = float(np.max(bV) - np.min(bV))
    c_V = float(np.mean(bV))
    outside_gap = float(np.min(vV[~mask]) - c_V)
    return {"contact_value_V": c_V, "contact_value_Lambda": float(np.mean(bL)),
            "boundary_variation": variation,
            "stable": variation <= tau_b and outside_gap > -tau_b,
            "tau_b": tau_b, "outside_gap": outside_gap}


def hat_peak(piece, x, medium):
    """Exact max over p of a quasiconcave piece at the points x; None
    for a combined piece."""
    if isinstance(piece, CombinedPiece):
        return None
    peak = piece.profile.extreme_value()
    if piece.coupling is None:
        val = peak + 0.0 * np.asarray(x, dtype=float)
    else:
        coeff = piece.scale * medium.evaluate_channel(piece.channel, x)
        val = peak + coeff if piece.coupling == "additive" else coeff * peak
    return val + piece.extra_const


def contact_fields_per_x(family, media, x_nodes, p_box, n_p):
    """(m_fields, M_fields, witnesses) by one ``pair_report`` per x-node
    and pair: x outermost, then level, the level pair before the cross
    pair. M_1 is ``hat_peak``, or for a combined hat its grid peak. A
    box too small for a pair raises ValueError naming the pair, x and
    seed."""
    x_nodes = np.asarray(x_nodes, dtype=float)
    ell = family.ell
    P = np.linspace(float(p_box[0]), float(p_box[1]), int(n_p))
    m_fields, M_fields, witnesses = [], [], []
    for medium in media:
        m_arr = np.empty((ell, x_nodes.size))
        M_arr = np.empty((ell, x_nodes.size))
        peak = hat_peak(family.hats[0], x_nodes, medium)
        if peak is not None:
            M_arr[0] = peak
        for j, xj in enumerate(x_nodes):
            def piece(pc):
                return lambda p: pc.evaluate(p, xj, medium)
            for k in range(ell):
                pairs = [("level pair", family.checks[k])]
                if k > 0:
                    pairs.append(("cross pair", family.checks[k - 1]))
                for kind, check in pairs:
                    try:
                        rep = pair_report(piece(check), piece(family.hats[k]),
                                          p_box, n_p)
                    except ValueError as err:
                        raise ValueError(
                            f"level {k + 1} {kind} at x={float(xj)}, "
                            f"seed {medium.seed}: {err}") from None
                    if kind == "level pair":
                        m_arr[k, j] = rep["contact_value_V"]
                    else:
                        M_arr[k, j] = rep["contact_value_Lambda"]
                    if not rep["stable"]:
                        witnesses.append({
                            "level": k + 1, "kind": kind, "x": float(xj),
                            "seed": medium.seed,
                            "variation": rep["boundary_variation"],
                            "tau_b": rep["tau_b"],
                            "contact_value_V": rep["contact_value_V"],
                            "outside_gap": rep["outside_gap"]})
            if peak is None:
                M_arr[0, j] = float(np.max(family.hats[0].evaluate(P, xj,
                                                                   medium)))
        m_fields.append(m_arr)
        M_fields.append(M_arr)
    return m_fields, M_fields, witnesses


def condition_e_per_x(family, medium, x_nodes, m_1, p_box, n_p):
    """Thin-level-set check at level 1, one x-node at a time: at most
    one witness per x, the check's before the hat's."""
    P = np.linspace(float(p_box[0]), float(p_box[1]), int(n_p))
    witnesses = []
    for xj, m1 in zip(np.asarray(x_nodes, dtype=float), m_1):
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


def ordering_witness_per_x(family, medium, p_samples, x_samples):
    """The ordering witness one probe at a time, or None: the first
    probe where consecutive pieces are out of order, checks before hats,
    the lower level first, then the first gradient."""
    p_samples = np.asarray(p_samples, dtype=float)
    for xs in np.asarray(x_samples, dtype=float):
        values = {"check": [pc.evaluate(p_samples, xs, medium)
                            for pc in family.checks],
                  "hat": [pc.evaluate(p_samples, xs, medium)
                          for pc in family.hats]}
        for kind, vals in values.items():
            for k in range(len(vals) - 1):
                lhs, rhs = vals[k], vals[k + 1]
                bad = lhs < rhs if kind == "check" else lhs > rhs
                if np.any(bad):
                    i = int(np.argmax(bad))
                    return {"kind": kind, "level": k + 1,
                            "p": float(p_samples[i]), "x": float(xs),
                            "lhs": float(lhs[i]), "rhs": float(rhs[i])}
    return None


def states_per_entry(columns):
    """(first, inverse) of the entries of the 1-D arrays ``columns``,
    one entry at a time: an entry's state is the tuple of its values'
    bit patterns, and states are numbered in order of first
    appearance."""
    bits = np.column_stack(columns).view(np.uint64)
    seen, first, inverse = {}, [], []
    for i, key in enumerate(map(tuple, bits.tolist())):
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        inverse.append(seen[key])
    return np.array(first), np.array(inverse)


def per_seed_hypotheses(family, realizations):
    """The sample-wide hypothesis stage one ``PieceTable`` per seed: the
    ordering witness of the first seed that breaks the ordering, the
    contact witnesses of the seeds in order (each under its own seed,
    the first 8 kept), ``n_unstable`` summed over the seeds, ``n_states``
    per seed, the contact extrema over all seeds, and the thin-level-set
    report of the first seed that fails it. A seed's ProfileShapeError
    is raised as its table meets it, the first seed's first."""
    tables = [PieceTable(family, [r]) for r in realizations]
    out = {"ordering": None, "witnesses": [], "n_unstable": 0,
           "n_states": [], "level_set_thin": {"holds": True,
                                              "witnesses": []}}
    m_bar, M_lower = [], []
    for table in tables:
        if out["ordering"] is None:
            try:
                validate_ordering(table)
            except HypothesisError as err:
                out["ordering"] = err.witness
        consts = contact_fields(table)
        out["witnesses"] += consts["witnesses"]
        out["n_unstable"] += consts["n_unstable"]
        out["n_states"] += consts["n_states"]
        m_bar.append(consts["m_bar"])
        M_lower.append(consts["M_lower"])
        cond_e = check_condition_e(table, consts["m_fields"][:, 0])
        if out["level_set_thin"]["holds"]:
            out["level_set_thin"] = cond_e
    out["witnesses"] = out["witnesses"][:8]
    out["m_bar"] = np.max(m_bar, axis=0)
    out["M_lower"] = np.min(M_lower, axis=0)
    return out


def level_fold(family, x, medium):
    """The level Hamiltonian of ``family`` bound on x as the fold of its
    pieces' own bindings by ``minmax_scalar``, level ell outermost."""
    fc = [pc.bind(x, medium) for pc in reversed(family.checks)]
    fh = [pc.bind(x, medium) for pc in reversed(family.hats)]
    return lambda p: minmax_scalar([f(p) for f in fc], [f(p) for f in fh])


def sequential_newton(cell, rows, v, tol):
    """The damped Newton iteration of ``solver._newton`` with a line
    search that halves one step at a time: each row tries 1, 1/2, ...
    in turn, one residual evaluation per try, keeps the first step whose
    residual meets res_new <= (1 - step/4) res, and declines once its
    step drops below 1/1024. The trial fields are fresh arrays and the
    residual sup is max |r|. Returns the fields, iteration counts, final
    residuals, the mask of converged rows, and the shortest step any row
    kept."""
    v = np.array(v, dtype=float)
    its = np.zeros(rows.size, dtype=int)
    ok = np.zeros(rows.size, dtype=bool)
    r = cell.residual(rows, v).copy()
    res = np.max(np.abs(r), axis=1)
    act = np.arange(rows.size)
    shortest = 1.0
    for it in range(80):
        done = res[act] <= tol[act]
        ok[act[done]] = True
        its[act[done]] = it
        act = act[~done]
        if not act.size:
            break
        sub = rows[act]
        dv = _newton_direction(cell, sub, v[act], r[act])
        step = np.ones(act.size)
        pend = np.arange(act.size)
        keep = np.ones(act.size, dtype=bool)
        while pend.size:
            vn = step[pend, None] * dv[pend] + v[act[pend]]
            rn = cell.residual(sub[pend], vn)
            resn = np.max(np.abs(rn), axis=1)
            good = resn <= (1.0 - 0.25 * step[pend]) * res[act[pend]]
            sel = act[pend[good]]
            v[sel], r[sel], res[sel] = vn[good], rn[good], resn[good]
            shortest = min([shortest, *step[pend[good]]])
            pend = pend[~good]
            step[pend] *= 0.5
            keep[pend[step[pend] < 1.0 / 1024.0]] = False
            pend = pend[step[pend] >= 1.0 / 1024.0]
        act = act[keep]
    return v, its, res, ok, shortest
