"""Effective Hamiltonians: numeric estimation, exact separable oracle,
the nested min-max formula, and the duality report for a piece.

The estimator solves the discounted problem along a decreasing discount
schedule and extrapolates -lam * v_lam(0) by fitting value + C*lam^alpha
with the exponent fitted rather than assumed. The oracle handles
H(p, x) = a(x) phi(p) + b(x), a > 0, exactly (a = 1 for additive
coupling, b constant for amplitude coupling): below the critical level
the mean gradient of the corrector sweeps an interval whose endpoints
are the averaged branch inverses, and outside it the level is read off
their exact piecewise-linear inverse.
"""

import numpy as np

from .errors import ConfigError, ProfileShapeError, SchemeParameterError
from .profiles import QUASICONVEX, piecewise_linear
from .solver import CellProblem, solve_discounted


class EffectiveCurve:
    """Sampled effective Hamiltonian with error bars and provenance.

    kind tags the expected tail behavior: curves of coercive pieces and
    of full families rise at both ends, quasiconcave piece curves fall.
    """

    def __init__(self, p, values, error_bars=None, provenance="numeric",
                 kind="coercive"):
        self.p = np.asarray(p, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.p.ndim != 1 or self.p.size < 2:
            raise ValueError("need at least two gradient samples")
        if np.any(np.diff(self.p) <= 0):
            raise ValueError("gradient samples must increase")
        if self.values.shape != self.p.shape:
            raise ValueError("values do not match the gradient samples")
        if error_bars is None:
            error_bars = np.zeros_like(self.values)
        self.error_bars = np.asarray(error_bars, dtype=float)
        # slopes of the end segments, which the tails extend
        v, p = self.values, self.p
        self.tail_slopes = ((v[1] - v[0]) / (p[1] - p[0]),
                            (v[-1] - v[-2]) / (p[-1] - p[-2]))
        self.provenance = provenance
        self.kind = kind
        self.intermediates = {}

    def validate(self, lipschitz=None):
        """Raise ProfileShapeError unless the curve is finite, its tails
        point the way its kind says, and (given a Lipschitz bound) no
        jump between samples exceeds it."""
        if not np.all(np.isfinite(self.values)):
            raise ProfileShapeError("curve has non-finite values")
        slack = np.max(self.error_bars) + 1e-9
        rate = slack / min(np.diff(self.p))
        # tails may be flat (plateau at the window edge) but must not
        # point the wrong way, by more than the rate the error bars allow
        if self.kind in ("coercive", "anticoercive"):
            rise = 1.0 if self.kind == "coercive" else -1.0
            for end, sl, way, (a, b) in (
                    ("left", self.tail_slopes[0], -rise, self.p[:2]),
                    ("right", self.tail_slopes[1], rise, self.p[-2:])):
                if way * sl < -rate:
                    allowed = f">= {-rate:.3g}" if way > 0 \
                        else f"<= {rate:.3g}"
                    raise ProfileShapeError(
                        f"{self.kind} curve does not "
                        f"{'rise' if rise > 0 else 'fall'} at the ends: "
                        f"the {self.provenance} curve's {end} end slope is "
                        f"{sl:.6g} between p={a:.6g} and p={b:.6g}, and the "
                        f"allowed slope there is {allowed}")
        if lipschitz is not None:
            jumps = np.abs(np.diff(self.values))
            bounds = lipschitz * np.diff(self.p) + 2e-2 + 2 * slack
            if np.any(jumps > bounds):
                i = int(np.argmax(jumps - bounds))
                raise ProfileShapeError(
                    f"jump {jumps[i]:.4g} between p={self.p[i]:.4g} and "
                    f"p={self.p[i + 1]:.4g} exceeds the continuity bound")
        return self

    def evaluate(self, q):
        """Piecewise-linear interpolation with linear tail extension."""
        return piecewise_linear(q, self.p, self.values, self.tail_slopes)

    def lipschitz(self):
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.p))))


# the exponents the schedule fit scans; a fit at either end is clamped,
# its best power law lies outside
ALPHA_WINDOW = (0.4, 1.1)


def _power_fit(lams, Y):
    """Least squares for y = H + C * lam^alpha on every row of the
    (n_rows, n_lam) data Y, with alpha scanned on ALPHA_WINDOW and
    refined around each row's best; closed-form 2x2 solve per alpha, all
    rows and alphas of a round as one (n_rows, 15, n_lam) array. Returns
    per-row arrays (hbar, c, resid, alpha)."""
    lams = np.asarray(lams, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = lams.size
    sy = Y.sum(axis=1)[:, None]
    rows = np.arange(len(Y))

    lo = np.full(len(Y), ALPHA_WINDOW[0])
    hi = np.full(len(Y), ALPHA_WINDOW[1])
    for _ in range(3):
        alphas = np.linspace(lo, hi, 15, axis=1)
        # one scalar-exponent power per distinct exponent: a power with
        # an array of exponents may take a vector path that rounds
        # differently
        u, inv = np.unique(alphas, return_inverse=True)
        g = np.array([lams ** a for a in u])[inv.reshape(alphas.shape)]
        sg, sgg = g.sum(axis=2), (g * g).sum(axis=2)
        sgy = (g * Y[:, None]).sum(axis=2)
        det = n * sgg - sg * sg
        flat = np.abs(det) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(flat, 0.0, (n * sgy - sg * sy) / det)
        hbar = np.where(flat, Y.mean(axis=1)[:, None], (sy - c * sg) / n)
        resid = np.max(np.abs(Y[:, None] - hbar[:, :, None]
                              - c[:, :, None] * g), axis=2)
        i = np.argmin(resid, axis=1)
        best = (hbar[rows, i], c[rows, i], resid[rows, i], alphas[rows, i])
        step = alphas[:, 1] - alphas[:, 0]
        lo = np.maximum(ALPHA_WINDOW[0], best[3] - step)
        hi = np.minimum(ALPHA_WINDOW[1], best[3] + step)
    return best


def estimate_effective(hamiltonian, p, medium, lam_schedule, grid,
                       theta=None):
    """Extrapolate -lam * v_lam(0) along the discount schedule, with
    dissipation theta (see ``solve_discounted``), for every gradient of
    the 1-D array p.

    All gradients are solved in one batch per discount rate, each row
    warm-started from its own solution at the previous rate, and the
    whole (n_p, n_lam) table is fitted at once (``fit_schedule_data``).
    The rates share one ``solver.CellProblem``: one binding of the cell
    grid, one probe of H at v = 0 and one Newton workspace.
    Returns that fit's per-gradient arrays "value", "error_bar", "alpha"
    and "reliable", the rates "lams", and per gradient and rate the
    solver's "method", "iterations" and "residual" as (n_p, n_lam)
    arrays.
    """
    lams = [float(l) for l in lam_schedule]
    if len(lams) < 3 or any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("need a strictly decreasing schedule of >= 3 rates")
    if lams[-1] * grid.n < 10.0:
        raise SchemeParameterError(
            f"smallest rate {lams[-1]:.3g} under-resolves the grid; "
            f"need rate * n >= 10")

    # one cell problem for the schedule, whose rates are solved on its
    # cell grid: the solution on the whole grid is that one tiled, and
    # only its first node is read
    cell = CellProblem(hamiltonian, p, grid, medium, theta)
    runs, data = [], []
    v = None
    for lam in lams:
        v, info = solve_discounted(hamiltonian, p, lam, cell.grid, medium,
                                   theta=theta, v0=v, cell=cell)
        runs.append(info)
        # an exactly constant problem reports its value without the
        # lossy -lam * (value / lam) round trip
        data.append(np.where(info["method"] == "constant", info["constant"],
                             -lam * v[:, 0]))
    out = fit_schedule_data(lams, np.stack(data, axis=1), runs[-1]["tol"])
    out["lams"] = np.array(lams)
    for key in ("method", "iterations", "residual"):
        out[key] = np.stack([run[key] for run in runs], axis=1)
    return out


def fit_schedule_data(lams, Y, tol):
    """Extrapolate every row of the (n_rows, n_lam) schedule data
    y(lam) = H + C * lam^alpha to lam=0; tol is the solver tolerance,
    one per row or one for all.

    A discount-independent row short-circuits to its exact value, with
    alpha NaN. The error bar stacks the worst fit residual, a fraction of
    the applied correction, and the solver tolerance; a fit that leaves
    residuals comparable to the data spread marks its row unreliable.
    Returns per-row arrays "value", "error_bar", "alpha", "reliable".
    """
    Y = np.asarray(Y, dtype=float)
    spread = Y.max(axis=1) - Y.min(axis=1)
    scale = np.maximum(1.0, np.abs(Y).max(axis=1))
    const = spread <= 1e-13 * scale
    hbar, c, resid, alpha = _power_fit(lams, Y)
    # one scalar power per row: an array power may take a vector path
    # that rounds differently
    last = float(lams[-1])
    correction = np.abs(c) * np.array([last ** a for a in alpha])
    error_bar = 3.0 * resid + 0.2 * correction + tol
    # a power law is monotone in lam, so monotone data extrapolates
    # honestly even when the best exponent sits at the window edge;
    # non-monotone data must fit tightly or be flagged
    diffs = np.diff(Y, axis=1)
    monotone = np.all(diffs >= 0.0, axis=1) | np.all(diffs <= 0.0, axis=1)
    tight = resid <= np.maximum(np.maximum(0.05 * spread, 10 * tol),
                                1e-12 * scale)
    return {"value": np.where(const, Y[:, -1], hbar),
            "error_bar": np.where(const, tol, error_bar),
            "alpha": np.where(const, np.nan, alpha),
            "reliable": const | monotone | tight}


def exact_effective_1d_separable(profile, b_table, p_samples, a_table=None):
    """Exact effective curve for H(p, x_j) = a_j * phi(p) + b_j, a_j > 0.

    The tables run over one period (their means realize the spatial
    averages); a_table None means a = 1. Above the critical level
    mu* = max_j (a_j min phi + b_j) the mean gradients a level mu admits
    are the averaged branch inverses g(mu) = mean_j phi_inv((mu - b_j) /
    a_j), one per branch; at mu* they bound the flat interval
    [g_left(mu*), g_right(mu*)], and outside it the level of p solves
    g(mu) = p on the branch facing p.

    Each branch inverse is linear between the profile's kink levels
    L_0 = min phi < L_1 < ..., so it is a sum of ramps,
    phi_inv(t) = phi_inv(L_0) + sum_k c_k max(t - L_k, 0), and
    g(mu) = phi_inv(L_0) + sum_k c_k F_k(mu). With a0 = min a, node j's
    ramp is max((mu - b_j) / a_j - L_k, 0) = w_j max(s_k - key_jk, 0)
    for w_j = 1 / a_j, s_k = mu - a0 L_k and key_jk = b_j + (a_j - a0) L_k,
    so F_k = mean_j w_j max(s_k - key_jk, 0) is exact from the prefix
    sums of w and w * key over level k's sorted keys (``mean_ramp``;
    a = 1 makes the keys b and the weights 1). g is then linear between
    its knots mu* and a_j L_k + b_j > mu*, so every p's level is read off
    the tabulated inverse at once, and past the last knot off the last
    inverse slope times mean w.
    """
    if profile.tag != QUASICONVEX:
        raise ValueError("oracle profiles must be quasiconvex")
    b = np.asarray(b_table, dtype=float)
    a = np.ones_like(b) if a_table is None else np.asarray(a_table, float)
    a0 = a.min()
    if not a0 > 0:
        raise ValueError("amplitudes must be positive")
    p_samples = np.asarray(p_samples, dtype=float)
    levels, w = profile.kink_levels(), 1.0 / a
    keys = b + (a - a0) * levels[:, None]             # (K levels, nodes)
    # a medium table is a few monotone runs, which a stable sort merges
    order = np.argsort(keys, axis=1, kind="stable")
    keys, ws = np.take_along_axis(keys, order, axis=1), w[order]
    # per level, the prefix sums of w and w * key from an empty prefix
    wsum, wksum = np.concatenate((np.zeros((2, len(levels), 1)),
                                  np.cumsum([ws, ws * keys], axis=2)), axis=2)

    def mean_ramp(k, s):
        m = np.searchsorted(keys[k], s)
        return (wsum[k, m] * s - wksum[k, m]) / b.size

    probe = np.append(levels, levels[-1] + 1.0)
    at = np.array(profile.branch_inverses(probe))    # (2 branches, K + 1)
    slopes = np.diff(at, axis=1) / np.diff(probe)     # between the levels
    ramps = np.diff(slopes, axis=1, prepend=0.0)
    mu_star = np.max(a * levels[0] + b)
    knots = b[:, None] + a[:, None] * levels[1:]
    knots = np.unique(np.append(knots[knots > mu_star], mu_star))
    s = knots - a0 * levels[:, None]
    g = at[:, :1] + ramps @ [mean_ramp(k, s[k]) for k in range(len(s))]
    tail = slopes[:, -1] * np.mean(w)

    def level(q, h, slope):
        # h rises along the knots; rounding must not make it dip, or
        # the interpolation would pick a wrong interval
        h = np.maximum.accumulate(h)
        return np.interp(q, h, knots) + np.maximum(q - h[-1], 0.0) / slope

    # each side's level is mu* on the flat interval and on the far side
    values = np.maximum(level(-p_samples, -g[0], -tail[0]),
                        level(p_samples, g[1], tail[1]))
    curve = EffectiveCurve(p_samples, values, None, "oracle", "coercive")
    curve.intermediates["critical_level"] = mu_star
    curve.intermediates["flat_interval"] = (float(g[0, 0]), float(g[1, 0]))
    return curve.validate()


def piece_effective_curve(profile, a, b, p_samples):
    """Exact effective curve of the single piece a * profile + b, with a
    and b arrays over the nodes of one period (a ``PieceTable`` row
    expanded through its ``inverse``): the oracle's. A quasiconcave
    profile goes through the negation duality, as (profile.negate_dual(),
    a, -b), and its curve is the reflected negative of the dual's."""
    if profile.tag != QUASICONVEX:
        q = -np.asarray(p_samples, dtype=float)[::-1]
        rev = piece_effective_curve(profile.negate_dual(), a, -b, q)
        return EffectiveCurve(p_samples, -rev.values[::-1], None, "oracle",
                              "anticoercive").validate()
    return exact_effective_1d_separable(profile, b, p_samples, a)


def theorem_formula_values(check_vals, hat_vals, m_bar, m_lower):
    """Nested effective formula on aligned value arrays; level 1
    innermost. Returns (top values, intermediates by level label)."""
    ell = len(check_vals)
    if len(hat_vals) != ell or len(m_bar) != ell or len(m_lower) != ell:
        raise ValueError("level counts do not match")
    inter = {}
    f = np.maximum(np.maximum(check_vals[0], m_bar[0]), hat_vals[0])
    inter["1"] = f
    for k in range(1, ell):
        half = np.minimum(np.minimum(hat_vals[k], m_lower[k]), f)
        inter[f"{k}.5"] = half
        f = np.maximum(np.maximum(check_vals[k], m_bar[k]), half)
        inter[f"{k + 1}"] = f
    return f, inter


def theorem_formula(bar_checks, bar_hats, constants):
    """Assemble the nested effective curve from piece curves and the
    contact constants m_bar and M_lower of ``constants`` (a
    ``contact_fields`` record); intermediate half/full-step curves ride
    along."""
    p = bar_checks[0].p
    for c in list(bar_checks) + list(bar_hats):
        if not np.array_equal(c.p, p):
            raise ValueError("piece curves live on different gradient grids")
    m_bar = np.asarray(constants["m_bar"], dtype=float)
    m_lower = np.asarray(constants["M_lower"], dtype=float)
    values, inter = theorem_formula_values(
        [c.values for c in bar_checks], [c.values for c in bar_hats],
        m_bar, m_lower)
    bars = np.max([c.error_bars for c in bar_checks]
                  + [c.error_bars for c in bar_hats], axis=0)
    curve = EffectiveCurve(p, values, bars, "formula", "coercive")
    curve.intermediates = inter
    return curve.validate()


def verify_symmetries(piece, p_samples, medium, lam_schedule, grid):
    """Duality report for a piece: negation (every piece) and evenness
    (quasiconvex pieces). Discrepancies come with their error bars."""
    p_samples = [float(p) for p in p_samples]
    axis = np.array(p_samples)
    reflected = estimate_effective(piece, -axis, medium, lam_schedule, grid)

    def compare(dual, sign):
        duals = estimate_effective(dual, axis, medium, lam_schedule, grid)
        disc = np.abs(duals["value"] + sign * reflected["value"])
        bars = duals["error_bar"] + reflected["error_bar"]
        return {"discrepancy": disc.tolist(), "bars": bars.tolist(),
                "max": float(disc.max())}

    evenness = compare(piece.even_dual(), -1.0) \
        if piece.tag == QUASICONVEX else None
    return {"p": p_samples, "negation": compare(piece.negate_dual(), 1.0),
            "evenness": evenness}
