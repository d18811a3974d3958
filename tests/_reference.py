"""Independent reference computations used by the test suite.

Everything here follows the displayed definitions literally (recursion,
window minima, brute-force scans) so implementation shortcuts are tested
against a separate code path.
"""

import numpy as np


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


def bisection_oracle(profile, v_table, p_samples):
    """Separable oracle for H(p, x) = phi(p) + V(x) by its definition:
    each p's level solves avg phi_inv(mu - V) = p on the monotone
    branch, found by bisection to a level width of 1e-10. Returns
    (values, critical level, flat interval)."""
    V = np.asarray(v_table, dtype=float)
    p_samples = np.asarray(p_samples, dtype=float)
    v_max = float(V.max())
    if v_max == float(V.min()):
        # constant potential: no averaging, the curve is the profile
        values = profile(p_samples) + v_max
        lo, hi = profile.branch_inverses(profile.extreme_value())
        return values, v_max + profile.extreme_value(), (float(lo),
                                                         float(hi))
    mu_star = v_max + profile.extreme_value()

    def ends(mu):
        left, right = profile.branch_inverses(mu - V)
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
