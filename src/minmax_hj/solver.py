"""Monotone grid solvers on the torus.

The numerical Hamiltonian is global Lax-Friedrichs: evaluate at the
centered difference and subtract theta/2 times the second difference per
axis. With theta at least the certified gradient-Lipschitz bound of the
Hamiltonian the update is monotone, which is what every probe and
comparison argument here leans on.

Two drivers share it: a pseudo-time relaxation for the discounted
problem lam*v + H(p0 + Dv, x) = 0, and a forward-Euler march for
u_t + H(Du, x/eps) = 0. The discounted driver iterates on the
mean-projected residual (the constant mode carries no information and
would otherwise force step counts to scale like 1/lam), then removes
the mean with a single exact shift of the constant mode at the end.

Hamiltonian objects enter through a small protocol: bind_base(pbase,
x, medium) -> f(dv) with dv a tuple of difference arrays, plus
lipschitz(medium). Families, single pieces and interpolated curves all
provide it.
"""

import numpy as np
from scipy.linalg import solve_banded

from .errors import NonConvergenceError, SchemeParameterError

# metadata["method"] of a solve whose Newton iteration declined
FALLBACK = "relax (newton declined)"


class Grid:
    """Uniform periodic grid, d in {1, 2}."""

    def __init__(self, n, length=1.0, dim=1):
        if dim not in (1, 2):
            raise SchemeParameterError("grid dimension must be 1 or 2")
        n = (int(n),) * dim if np.ndim(n) == 0 else tuple(int(k) for k in n)
        if len(n) != dim:
            raise SchemeParameterError("need one cell count per axis")
        if any(k < 16 for k in n):
            raise SchemeParameterError("need at least 16 cells per axis")
        L = (float(length),) * dim if np.ndim(length) == 0 \
            else tuple(float(v) for v in length)
        self.dim = dim
        self.n = n
        self.length = L
        self.h = tuple(Li / ki for Li, ki in zip(L, n))
        self.axes = tuple(np.arange(k) * hi for k, hi in zip(n, self.h))

    @property
    def shape(self):
        return self.n

    def mesh(self):
        if self.dim == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def zeros(self):
        return np.zeros(self.shape)


class SchemeParams:
    def __init__(self, theta=None, tau=None, tol_fp=None, max_iter=1_000_000):
        self.theta = theta
        self.tau = tau
        self.tol_fp = tol_fp
        self.max_iter = int(max_iter)

    def theta_tuple(self, dim, hamiltonian=None, medium=None):
        th = self.theta
        if th is None:
            if hamiltonian is None:
                raise SchemeParameterError("no dissipation bound available")
            th = hamiltonian.lipschitz(medium)
        th = (float(th),) * dim if np.ndim(th) == 0 \
            else tuple(float(t) for t in th)
        if len(th) != dim or any(t <= 0 for t in th):
            raise SchemeParameterError("dissipation must be positive per axis")
        return th


class GridField:
    """Values on a grid plus how they were produced."""

    def __init__(self, grid, values, metadata=None):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.shape:
            raise ValueError("field shape does not match the grid")
        self.metadata = dict(metadata or {})

    def to_csv(self, path):
        cols = [m.ravel() for m in self.grid.mesh()] + [self.values.ravel()]
        header = ["x", "y"][: self.grid.dim] + ["value"]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join("%.17g" % c for c in row) + "\n")


class TimeSeries:
    """Snapshots of an evolution at sampled times."""

    def __init__(self, grid, times, fields, metadata=None):
        self.grid = grid
        self.times = list(times)
        self.fields = fields
        self.metadata = dict(metadata or {})

    def at(self, t):
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if abs(self.times[i] - t) > 1e-12 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot at t={t}")
        return self.fields[i]

    @property
    def final(self):
        return self.fields[-1]


def upwind_diffs(v, grid):
    """One-sided periodic differences per axis: (forward, backward)."""
    dp, dm = [], []
    for ax, h in enumerate(grid.h):
        dp.append((np.roll(v, -1, axis=ax) - v) / h)
        dm.append((v - np.roll(v, 1, axis=ax)) / h)
    return dp, dm


def lf_update(h_bound, v, grid, theta):
    """Lax-Friedrichs numerical Hamiltonian applied to a field."""
    dp, dm = upwind_diffs(v, grid)
    davg = tuple(0.5 * (a + b) for a, b in zip(dp, dm))
    out = np.asarray(h_bound(davg), dtype=float)
    for th, a, b in zip(theta, dp, dm):
        out = out - 0.5 * th * (a - b)
    return out


def prolong_periodic(values):
    """Double the resolution per axis by periodic linear interpolation.

    Even fine nodes coincide with coarse nodes exactly.
    """
    v = np.asarray(values, dtype=float)
    for ax in range(v.ndim):
        shape = list(v.shape)
        shape[ax] *= 2
        out = np.empty(shape)
        even = [slice(None)] * v.ndim
        odd = [slice(None)] * v.ndim
        even[ax] = slice(0, None, 2)
        odd[ax] = slice(1, None, 2)
        out[tuple(even)] = v
        out[tuple(odd)] = 0.5 * (v + np.roll(v, -1, axis=ax))
        v = out
    return v


def _bind(hamiltonian, pbase, grid, medium):
    pbase = np.atleast_1d(np.asarray(pbase, dtype=float))
    if pbase.shape != (grid.dim,):
        raise SchemeParameterError(
            f"base gradient must have {grid.dim} components")
    x = grid.mesh()
    x_arg = x[0] if grid.dim == 1 else x
    return hamiltonian.bind_base(pbase, x_arg, medium)


def _solve_periodic_tridiag(lower, diag, upper, rhs):
    """Solve the cyclic tridiagonal system where row i couples
    (i-1, i, i+1) mod n, via one banded factorization plus a rank-one
    correction."""
    n = diag.size
    alpha = lower[0]    # row 0, column n-1
    beta = upper[-1]    # row n-1, column 0
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1] = d
    ab[2, :-1] = lower[1:]
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = beta
    sol = solve_banded((1, 1), ab, np.column_stack([rhs, u]))
    y, z = sol[:, 0], sol[:, 1]
    w_y = y[0] + alpha / gamma * y[-1]
    w_z = z[0] + alpha / gamma * z[-1]
    return y - z * (w_y / (1.0 + w_z))


def _residual(h_bound, v, grid, theta, lam):
    return lam * v + lf_update(h_bound, v, grid, theta)


def _newton_1d(h_bound, grid, lam, theta, tol, v, history, max_newton=80):
    """Damped semismooth Newton for the stationary problem (1-D).

    The Jacobian of the Lax-Friedrichs residual is periodic tridiagonal
    and strictly diagonally dominant whenever |dH/dp| <= theta, so each
    step is one O(n) banded solve. Piecewise-linear Hamiltonians give
    exact slopes away from kinks; damping enforces residual decrease.
    Returns None if progress stalls (caller falls back to relaxation).
    """
    h = grid.h[0]
    th = theta[0]
    r = _residual(h_bound, v, grid, theta, lam)
    res = float(np.max(np.abs(r)))
    for it in range(max_newton):
        history.append(res)
        if res <= tol:
            return v, it, res
        dp = (np.roll(v, -1) - v) / h
        dm = (v - np.roll(v, 1)) / h
        davg = 0.5 * (dp + dm)
        delta = 1e-6
        slope = (np.asarray(h_bound((davg + delta,)))
                 - np.asarray(h_bound((davg - delta,)))) / (2 * delta)
        slope = np.clip(slope, -th, th)
        upper = (slope - th) / (2 * h)
        lower = -(slope + th) / (2 * h)
        diag = np.full(grid.n[0], lam + th / h)
        dv = _solve_periodic_tridiag(lower, diag, upper, -r)
        step = 1.0
        while True:
            vn = v + step * dv
            rn = _residual(h_bound, vn, grid, theta, lam)
            resn = float(np.max(np.abs(rn)))
            if resn <= (1.0 - 0.25 * step) * res:
                break
            step *= 0.5
            if step < 1.0 / 1024.0:
                return None
        v, r, res = vn, rn, resn
    return None


def _nested_start(hamiltonian, p0, grid, medium, lam, theta, tol):
    """Cold start for the 1-D Newton path by nested iteration.

    Newton from zero stalls where the corrector switches between the
    min and max branches, so the same problem (same lam, theta and
    tolerance) is first solved on a ladder of grids of the same length,
    halving the node count while it stays even and at least 64, and
    each level's result is prolonged to the next. A level whose Newton
    declines passes its own start up unchanged.
    """
    sizes = [grid.n[0]]
    while sizes[-1] % 2 == 0 and sizes[-1] // 2 >= 64:
        sizes.append(sizes[-1] // 2)
    v = np.zeros(sizes[-1])
    for m in reversed(sizes[1:]):
        coarse = Grid(m, grid.length[0])
        h_bound = _bind(hamiltonian, p0, coarse, medium)
        out = _newton_1d(h_bound, coarse, lam, theta, tol, v, [])
        v = prolong_periodic(v if out is None else out[0])
    return v


def _relax_projected(h_bound, grid, lam, theta, tol, v, params, history):
    """Monotone pseudo-time relaxation on the mean-projected residual.

    Projecting out the constant mode keeps the step count independent
    of lam; the constant mode is restored by one exact shift at the
    end. Dissipation-limited, so cost grows like n^2 per axis; used
    where the Newton path does not apply or declines.
    """
    rate = lam + sum(t / h for t, h in zip(theta, grid.h))
    tau = params.tau if params.tau is not None else 0.95 / rate
    check_every = 16
    stall_window = max(8 * max(grid.n), 8000)
    it = 0
    while True:
        r = lam * v + lf_update(h_bound, v, grid, theta)
        rbar = float(r.mean())
        dev = float(np.max(np.abs(r - rbar)))
        if it % check_every == 0:
            history.append(dev)
            back = stall_window // check_every
            if dev > tol and len(history) > back \
                    and dev > 0.9995 * history[-1 - back]:
                raise NonConvergenceError(
                    f"residual stalled near {dev:.3g} after {it} iterations",
                    residual_history=history)
        if dev <= 0.5 * tol:
            shifted = v - rbar / lam
            r_full = lam * shifted + lf_update(h_bound, shifted, grid, theta)
            res = float(np.max(np.abs(r_full)))
            if res <= tol:
                return shifted, it, res
        if it >= params.max_iter:
            raise NonConvergenceError(
                f"no convergence in {it} iterations (residual {dev:.3g})",
                residual_history=history)
        v = v - tau * (r - rbar)
        it += 1


def solve_discounted(hamiltonian, p0, lam, grid, medium=None, params=None,
                     v0=None, method="auto"):
    """Solve lam*v + H_LF(p0 + Dv, x) = 0 on the torus to a certified
    residual.

    In one dimension a damped Newton iteration on the Lax-Friedrichs
    residual does the work (each step one periodic banded solve),
    starting from v0 or, without one, from the nested-iteration start
    on coarser grids; it falls back to monotone pseudo-time relaxation
    if it stalls, and the relaxation is also what runs in 2-D or on
    request. Whatever the path, the returned field satisfies the
    residual tolerance and the comparison bound |lam*v| <= sup|H(p0,.)|,
    or an error carries the residual history out. metadata["method"]
    names the path: "constant", "newton", or "relax (<reason>)".
    """
    if not lam > 0:
        raise SchemeParameterError("discount rate must be positive")
    if method not in ("auto", "newton", "relax"):
        raise SchemeParameterError(f"unknown method {method!r}")
    params = params or SchemeParams()
    theta = params.theta_tuple(grid.dim, hamiltonian, medium)
    rate = lam + sum(t / h for t, h in zip(theta, grid.h))
    if params.tau is not None and params.tau * rate > 1.0:
        raise SchemeParameterError(
            f"step {params.tau:.3g} violates the monotonicity bound "
            f"1/{rate:.3g}")

    h_bound = _bind(hamiltonian, p0, grid, medium)
    zero = tuple(np.zeros(grid.shape) for _ in range(grid.dim))
    h0 = np.asarray(h_bound(zero)) + np.zeros(grid.shape)
    sup_h0 = float(np.max(np.abs(h0)))
    tol = params.tol_fp
    if tol is None:
        tol = 1e-8 * max(1.0, sup_h0)

    constant_value = None
    if float(h0.min()) == float(h0.max()):
        # x-independent problem: the constant solution is exact
        constant_value = float(h0.flat[0])
        v = np.full(grid.shape, -constant_value / lam)
        meta = {"equation": "discounted", "lam": float(lam),
                "p0": np.atleast_1d(np.asarray(p0, dtype=float)).tolist(),
                "iterations": 0,
                "residual": float(np.max(np.abs(lam * v + h0))),
                "tol_fp": tol, "theta": theta, "method": "constant",
                "constant_value": constant_value}
        return GridField(grid, v, meta)

    v = grid.zeros() if v0 is None else np.array(v0, dtype=float)
    history = []
    out = None
    if grid.dim != 1:
        used = "relax (2-d grid)"
    elif method == "relax":
        used = "relax (requested)"
    else:
        if v0 is None:
            v = _nested_start(hamiltonian, p0, grid, medium, lam, theta, tol)
        out = _newton_1d(h_bound, grid, lam, theta, tol, v, history)
        used = "newton"
        if out is None:
            if method == "newton":
                raise NonConvergenceError("Newton iteration stalled",
                                          residual_history=history)
            used = FALLBACK
    if out is None:
        out = _relax_projected(h_bound, grid, lam, theta, tol, v, params,
                               history)
    v, it, res = out

    if not np.all(np.isfinite(v)):
        raise NonConvergenceError("solution field is not finite",
                                  residual_history=history)
    bound = sup_h0 + tol
    sup_lv = float(np.max(np.abs(lam * v)))
    if sup_lv > bound + 1e-12 * max(1.0, bound):
        raise NonConvergenceError(
            f"|lam*v| = {sup_lv:.6g} exceeds the comparison bound {bound:.6g}",
            residual_history=history)
    meta = {"equation": "discounted", "lam": float(lam),
            "p0": np.atleast_1d(np.asarray(p0, dtype=float)).tolist(),
            "iterations": it, "residual": res, "tol_fp": tol,
            "theta": theta, "method": used}
    return GridField(grid, v, meta)


def _fit_steps(T, n0, t_samples):
    """Smallest step count >= n0 whose uniform step resolves every sample
    time to 1e-9; going finer never violates CFL."""
    if not t_samples:
        return n0
    tol = 1e-9 * max(1.0, T)
    for m in range(n0, 64 * n0 + 65):
        dt = T / m
        if all(abs(round(t / dt) * dt - t) <= tol for t in t_samples):
            return m
    raise SchemeParameterError(
        f"sample times {tuple(t_samples)} are not commensurate with the "
        f"horizon {T}")


def _march(h_bound, grid, theta, u0_values, T, params, t_samples, eps_label):
    cfl_rate = sum(t / h for t, h in zip(theta, grid.h))
    if params.tau is not None:
        if params.tau * cfl_rate > 0.9 + 1e-12:
            raise SchemeParameterError(
                f"time step {params.tau:.3g} violates the CFL bound "
                f"{0.9 / cfl_rate:.3g}")
        n_steps = max(1, int(np.ceil(T / params.tau - 1e-12)))
    elif cfl_rate > 0:
        n_steps = max(1, int(np.ceil(T * cfl_rate / 0.9 - 1e-12)))
    else:
        n_steps = 1
    n_steps = _fit_steps(T, n_steps, t_samples)
    dt = T / n_steps

    u = np.array(u0_values, dtype=float)
    if u.shape != grid.shape:
        raise ValueError("initial data shape does not match the grid")
    k0 = float(np.max(np.abs(lf_update(h_bound, u, grid, theta))))
    u_min0, u_max0 = float(u.min()), float(u.max())

    want = {int(round(t / dt)): float(t) for t in t_samples}
    times, fields = [], []
    meta = {"dt": dt, "n_steps": n_steps, "theta": theta, "k_bound": k0}
    meta.update(eps_label)
    if 0 in want:
        times.append(0.0)
        fields.append(GridField(grid, u.copy(), dict(meta, t=0.0)))
    for k in range(1, n_steps + 1):
        u = u - dt * lf_update(h_bound, u, grid, theta)
        if k in want:
            times.append(want[k])
            fields.append(GridField(grid, u.copy(), dict(meta, t=want[k])))
    if not np.all(np.isfinite(u)):
        raise NonConvergenceError("evolution blew up")
    slack = 1e-10 * max(1.0, k0 * T)
    if u.max() > u_max0 + k0 * T + slack or u.min() < u_min0 - k0 * T - slack:
        raise NonConvergenceError(
            "evolution left the comparison band |u - u0| <= K*t")
    if n_steps not in want:
        times.append(T)
        fields.append(GridField(grid, u, dict(meta, t=T)))
    return TimeSeries(grid, times, fields, meta)


def solve_time_dependent(hamiltonian, u0, eps, grid, medium=None, T=1.0,
                         params=None, t_samples=()):
    """March u_t + H(Du, x/eps) = 0 by forward Euler under CFL 0.9.

    u0 is a callable on grid nodes or a value array. Snapshot times must
    be integer multiples of the step.
    """
    if not eps > 0:
        raise SchemeParameterError("eps must be positive")
    if eps < 2 * max(grid.h):
        raise SchemeParameterError(
            f"eps = {eps:.4g} is under-resolved on spacing {max(grid.h):.4g}")
    params = params or SchemeParams()
    theta = params.theta_tuple(grid.dim, hamiltonian, medium)
    x = grid.mesh()
    x_arg = x[0] / eps if grid.dim == 1 else tuple(c / eps for c in x)
    h_bound = hamiltonian.bind_base(np.zeros(grid.dim), x_arg, medium)
    u0_values = u0(*grid.mesh()) if callable(u0) else u0
    return _march(h_bound, grid, theta, u0_values, T, params, t_samples,
                  {"equation": "evolution", "eps": float(eps)})


def solve_homogenized(curve, u0, grid, T=1.0, params=None, t_samples=()):
    """Same march with the gradient-only Hamiltonian given by a curve
    object (evaluate(p) plus lipschitz())."""
    params = params or SchemeParams()
    th = params.theta
    theta = (float(th if th is not None else curve.lipschitz()),) * grid.dim
    if any(t < 0 for t in theta):
        raise SchemeParameterError("dissipation must be nonnegative per axis")

    if grid.dim == 1:
        h_bound = lambda dv: curve.evaluate(dv[0])
    else:
        h_bound = lambda dv: curve.evaluate(np.hypot(dv[0], dv[1]))
    u0_values = u0(*grid.mesh()) if callable(u0) else u0
    return _march(h_bound, grid, theta, u0_values, T, params, t_samples,
                  {"equation": "homogenized"})
