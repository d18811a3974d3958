"""Monotone grid solvers on a periodic interval.

The numerical Hamiltonian is global Lax-Friedrichs: evaluate at the
centered difference and subtract theta/2 times the second difference.
With theta at least the certified gradient-Lipschitz bound of the
Hamiltonian the update is monotone, which is what every probe and
comparison argument here leans on.

Two drivers share its one kernel, ``lf_update``: a damped Newton
iteration (with a pseudo-time relaxation on the mean-projected residual
as its fallback) for the discounted problem lam*v + H(p0 + Dv, x) = 0,
and a forward-Euler march for u_t + H(Du, x/eps) = 0, which makes the
kernel's work arrays once and steps in place. The relaxation iterates
on the mean-projected residual (the constant mode carries no
information and would otherwise force step counts to scale like 1/lam),
then removes the mean with a single exact shift of the constant mode.

Both solve a 1-D array of problems, a cell problem's base gradients or
a march's eps, as a stack of fields, one row per problem; every row is
bit-identical to solving its problem alone, and one problem is a stack
of one. The eps do not change theta or the spacing, so every row of the
march takes the same steps. Results are plain arrays.

Hamiltonian objects enter through a small protocol: bind_base(pbase,
x, medium) -> f(dv, rows=None) = H(dv[0] + pbase[rows], x) with dv a
one-tuple holding the difference array, plus lipschitz(medium). The
cell problem binds once per grid of a schedule, on a column of all its
base gradients, shape (n_rows, 1); an evaluation passes the indices
``rows`` of the column's rows that the rows of dv take (all of them, in
order, when it passes none). The march binds the scalar base 0.0, which adds
nothing, on an (n_eps, n) stack of node arrays (the nodes over each
eps) whose row i applies to row i of dv, which is how it takes a whole
eps schedule. Pieces derive bind_base from their one formula,
bind(x, medium); a level binds one in-place fold of its pieces, which
evaluates them bit for bit as their own bindings do.

A ``CellProblem``, the discounted solve's one description of its
problem, holds what every discount rate of a schedule shares: the
binding on the cell grid, one probe of H at v = 0 (its sup, the
tolerance, the x-independent rows) and one workspace. The cell grid is
one medium period where the grid holds whole periods, and the solve
returns the solution there: tiled, it solves the whole grid. The
workspace is sized at the full row count on the cell grid; the
residual, the Newton step and the coarser grids of the nested start all
work in it, and the banded solve is LAPACK gtsv on its buffers.

Each Newton step's line search takes two rounds. Round 1 tries the full
step for every row. Round 2 tries every halving 1/2, ..., 1/1024 for
the rows round 1 did not serve, in one residual evaluation, split into
groups of consecutive halvings, longest first, when the trials would
overflow the workspace; each row keeps the longest that passes. A
row's residual depends on that row alone, so every row keeps the step,
and the bits, that halving one step at a time would give.

Where the spacing h is a power of two, differences are scaled by its
exact reciprocal, whose products have the quotients' bits.
"""

import copy
import math
from collections import deque

import numpy as np

from .errors import NonConvergenceError, SchemeParameterError

# the "method" of a discounted row whose Newton iteration declined
FALLBACK = "relax (newton declined)"
# ... and of one whose Newton from the warm start declined but converged
# when retried from the nested start
RETRY = "newton (retried from nested start)"
# sweeps after which a relaxation that has not converged gives up
MAX_SWEEPS = 1_000_000


def solve_banded(dl, d, du, b):
    """Solve the tridiagonal system with sub-, main and super-diagonal
    dl, d and du for the Fortran-ordered right-hand sides b, in place:
    LAPACK gtsv, the routine scipy.linalg.solve_banded calls for (1, 1)
    bands, given leave to overwrite all four arrays. Returns the
    solution, in b's memory, and gtsv's info (i > 0: the i-th pivot is
    exactly zero). scipy is imported on the first call: only the
    Newton step needs it, so the commands that never reach it do not
    pay for importing it."""
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    return x, info


class Grid:
    """Uniform periodic grid of n nodes x on [0, length)."""

    def __init__(self, n, length=1.0):
        self.n = int(n)
        self.length = float(length)
        self.h = self.length / self.n
        self.x = np.arange(self.n) * self.h


def _dissipation(theta, hamiltonian, medium):
    """theta: the given value, else the Hamiltonian's Lipschitz bound."""
    th = float(hamiltonian.lipschitz(medium) if theta is None else theta)
    if not th > 0:
        raise SchemeParameterError("dissipation must be positive")
    return th


def upwind_diffs(v, h, out=None):
    """One-sided periodic differences at spacing h along the last axis of
    v, which is the grid (a stack of fields is differenced field by
    field): (forward, backward).

    The backward difference at node i is the forward one at node i-1,
    so both are views of one array: the n forward differences with the
    last one repeated in front. ``out``, if given, is that array, of
    v's shape with one more node; else it is made.
    """
    d = np.empty(v.shape[:-1] + (v.shape[-1] + 1,)) if out is None else out
    np.subtract(v[..., 1:], v[..., :-1], out=d[..., 1:-1])
    np.subtract(v[..., :1], v[..., -1:], out=d[..., -1:])
    _divide(d[..., 1:], h)
    d[..., 0] = d[..., -1]
    return d[..., 1:], d[..., :-1]


def _divide(a, h):
    """a /= h in place. When h is a power of two its reciprocal is exact
    (finite, possibly subnormal), and a product by it rounds the same
    real number as the quotient, so it has the same bits, at the cost
    of a multiplication."""
    r = 1.0 / h
    if math.frexp(h)[0] == 0.5 and math.isfinite(r):
        np.multiply(a, r, out=a)
    else:
        np.divide(a, h, out=a)


def _work_arrays(v):
    """The work tuple of ``lf_update`` for fields of v's shape: the
    difference, average and jump arrays."""
    return (np.empty(v.shape[:-1] + (v.shape[-1] + 1,)), np.empty(v.shape),
            np.empty(v.shape))


def lf_update(h_bound, v, grid, theta, work=None):
    """Lax-Friedrichs numerical Hamiltonian of a field or a stack of
    fields: H(avg, x) - theta/2 * jump, with avg and jump the mean and
    the difference of the one-sided differences. ``work``, if given, is
    a tuple from ``_work_arrays(v)`` that the update is computed in, and
    its jump array is the result; without it the result is a fresh
    array, with the same bits."""
    d, davg, jump = _work_arrays(v) if work is None else work
    dp, dm = upwind_diffs(v, grid.h, d)
    np.add(dp, dm, out=davg)
    davg *= 0.5
    np.subtract(dp, dm, out=jump)
    del d, dp, dm   # a fresh difference array is freed while h_bound runs
    out = np.asarray(h_bound((davg,)), dtype=float)
    jump *= 0.5 * theta
    return np.subtract(out, jump, out=jump)


def prolong_periodic(values):
    """Double the resolution of the last axis by periodic linear
    interpolation (a stack of fields is refined field by field).

    Even fine nodes coincide with coarse nodes exactly.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., ::2] = v
    out[..., 1::2] = 0.5 * (v + np.roll(v, -1, axis=-1))
    return out


def _cell_grid(grid, medium):
    """One medium period at the grid's spacing when the grid holds a
    whole number (at least two) of periods and of nodes per period, else
    the grid itself.

    The discrete solution on the whole grid is unique and its equations
    repeat with the medium, so it repeats too, and one period carries the
    same set of equations.
    """
    period = getattr(medium, "period", None)
    if period is None:
        return grid
    length, n = grid.length, grid.n
    copies = int(round(length / period))
    if copies < 2 or abs(length - copies * period) > 1e-12 * length \
            or n % copies or n // copies < 16:
        return grid
    return Grid(n // copies, period)


class CellProblem:
    """H_LF(p + Dv, x) for the base gradients of the 1-D array p0, one
    row per gradient, on the cell grid of ``grid`` (``_cell_grid``), with
    the Lax-Friedrichs dissipation theta, by default the Hamiltonian's
    Lipschitz bound: what every discount rate of a schedule shares, and
    all that ``solve_discounted`` is told of its problem. ``at(lam)`` is
    the problem lam*v + H_LF(p + Dv, x) = 0 at one rate, and ``on(grid)``
    the same on a coarser grid of the nested start.

    The Hamiltonian is bound once per grid, for all rows: ``bound(dv,
    rows)`` evaluates it for the rows ``rows`` of the column P. H is
    probed at v = 0 once: ``sup_h0`` (its sup over x), ``tol`` (the
    residual tolerance), ``const`` (whether it is x-independent) and
    ``h0_first`` (its value at the first node), per row. The residual
    and the Newton step of every rate and grid work in one workspace
    (``work``), sized at the full row count on the cell grid; a coarser
    grid holds more rows in it (``capacity``)."""

    def __init__(self, hamiltonian, p0, grid, medium=None, theta=None):
        self.hamiltonian = hamiltonian
        self.medium = medium
        self.theta = _dissipation(theta, hamiltonian, medium)
        self.P = np.asarray(p0, dtype=float)[:, None]
        self.lam = None
        self._bind(_cell_grid(grid, medium))
        self.sup_h0, self.const, self.h0_first = _at_zero(self)
        self.tol = 1e-8 * np.maximum(1.0, self.sup_h0)
        self._size = len(self.P), self.grid.n
        self._block = []        # shared by every rate and grid

    def _bind(self, grid):
        self.grid = grid
        # each row's gradient, shape (1,), broadcasts over its row
        self.bound = self.hamiltonian.bind_base(self.P, grid.x, self.medium)
        self._views = {}

    def at(self, lam):
        """The problem at the discount rate lam, sharing all the rest."""
        out = copy.copy(self)
        out.lam = lam
        return out

    def on(self, grid):
        """The problem on a coarser grid, bound anew, sharing the
        workspace."""
        out = copy.copy(self)
        out._bind(grid)
        return out

    def _regions(self):
        """The workspace's one block, made on first use, as four regions
        (a difference array and two tables, then the band) that fit the
        full row count on the cell grid. (Made up front, before the
        solve's own arrays, it took three times the page faults over
        warm-started solves.)"""
        if not self._block:
            rows, n = self._size
            self._block += np.split(np.empty(rows * (5 * n + 1)),
                                    np.cumsum([rows * (n + 1), rows * n,
                                               rows * n]))
        return self._block

    @property
    def capacity(self):
        """How many rows the workspace holds on this grid."""
        return self._regions()[0].size // (self.grid.n + 1)

    def work(self, k):
        """The workspace of k rows, each role the leading k rows of its
        region: a difference array (k, n + 1); two tables (k, n); the
        difference array's first k * n entries as a (k, n) table; and
        the band (2, k, n), whose two tables are the columns of one
        Fortran-ordered (k * n, 2) array. Made once per row count."""
        if k not in self._views:
            n = self.grid.n
            d, avg, jump, band = self._regions()
            self._views[k] = (
                d[:k * (n + 1)].reshape(k, n + 1), avg[:k * n].reshape(k, n),
                jump[:k * n].reshape(k, n), d[:k * n].reshape(k, n),
                band[:2 * k * n].reshape(2, k, n))
        return self._views[k]

    def trials(self, k, m):
        """Room for m trial fields in the band region, past the Newton
        step of k rows that its leading table holds; m up to
        ``capacity``."""
        n = self.grid.n
        return self._regions()[3][k * n:(k + m) * n].reshape(m, n)

    def residual(self, rows, v):
        """The residual of the rows ``rows`` at the fields v, in the
        workspace: it holds until the next residual or Newton step."""
        d, avg, jump, _, _ = self.work(len(v))
        lf = lf_update(lambda dv: self.bound(dv, rows), v, self.grid,
                       self.theta, (d, avg, jump))
        np.multiply(v, self.lam, out=avg)
        return np.add(avg, lf, out=lf)


def _row_sup(a):
    """max |a| per row, without an |a| table: the larger of the row max
    and minus the row min, plus 0.0, which turns a -0.0 into 0.0 as the
    absolute value would. NaN propagates."""
    out = np.negative(a.min(axis=1))
    np.maximum(out, a.max(axis=1), out=out)
    out += 0.0
    return out


def _at_zero(cell):
    """H(p, x) on the nodes, per row: its sup over x, whether it is
    x-independent, and its value at the first node."""
    shape = (len(cell.P), cell.grid.n)
    h0 = np.asarray(cell.bound((np.zeros(shape),))) + np.zeros(shape)
    return _row_sup(h0), h0.min(axis=1) == h0.max(axis=1), h0[:, 0].copy()


def _newton_direction(cell, rows, v, r):
    """Newton step of the Lax-Friedrichs residual r at the fields v,
    one row per base gradient in ``rows``, computed in the cell's
    workspace: the step is the leading table of the band, and holds
    until the next Newton step.

    The Jacobian is periodic tridiagonal and strictly diagonally dominant
    whenever |dH/dp| <= theta; piecewise-linear Hamiltonians give exact
    slopes away from kinks. The rows' cyclic systems go to one banded
    solve as the blocks of a block-diagonal system (couplings between
    blocks are zero, so no row sees another), with the Sherman-Morrison
    column stacked the same way; the rank-one correction is then applied
    per row. A system that is not finite (its matrix is finite iff the
    clipped slopes are, its right-hand side iff r is), or whose solve
    meets a zero pivot, raises NonConvergenceError naming the row's
    base gradient.
    """
    k, n = v.shape
    h, th, lam = cell.grid.h, cell.theta, cell.lam
    d, avg, shifted, up, band = cell.work(k)
    dp, dm = upwind_diffs(v, h, d)
    np.add(dp, dm, out=avg)
    avg *= 0.5
    del dp, dm
    delta = 1e-6
    slope = band[1]
    hp = cell.bound((np.add(avg, delta, out=shifted),), rows)
    hm = cell.bound((np.subtract(avg, delta, out=shifted),), rows)
    np.subtract(hp, hm, out=slope)
    del hp, hm
    slope /= 2 * delta
    np.clip(slope, -th, th, out=slope)
    finite = np.isfinite(slope).all(axis=1) & np.isfinite(r).all(axis=1)
    if not finite.all():
        _fail_row(cell, rows, int(np.argmin(finite)),
                  "Newton system is not finite")
    diag = lam + th / h
    alpha = -(slope[:, 0] + th) / (2 * h)       # row 0, column n-1
    beta = (slope[:, -1] - th) / (2 * h)        # row n-1, column 0
    gamma = -diag
    # the three diagonals, each a (k, n) table read flat: the super-
    # diagonal from its second entry, the sub-diagonal to its last but
    # one; the entries coupling two blocks are zero
    mid, low = avg, shifted
    up[:, 0] = 0.0
    np.subtract(slope[:, :-1], th, out=up[:, 1:])
    _divide(up[:, 1:], 2 * h)
    mid.fill(diag)
    mid[:, 0] -= gamma
    mid[:, -1] -= alpha * beta / gamma
    np.add(slope[:, 1:], th, out=low[:, :-1])
    np.negative(low[:, :-1], out=low[:, :-1])
    _divide(low[:, :-1], 2 * h)
    low[:, -1] = 0.0
    # right-hand side and Sherman-Morrison column
    np.negative(r, out=band[0])
    band[1] = 0.0
    band[1, :, 0] = gamma
    band[1, :, -1] = beta
    sol, info = solve_banded(low.reshape(-1)[:-1], mid.reshape(-1),
                             up.reshape(-1)[1:],
                             band.reshape(2, -1).T)
    if info > 0:
        _fail_row(cell, rows, (info - 1) // n, "Newton system is singular")
    y, z = sol.T.reshape(2, k, n)
    w_y = y[:, 0] + alpha / gamma * y[:, -1]
    w_z = z[:, 0] + alpha / gamma * z[:, -1]
    np.multiply(z, (w_y / (1.0 + w_z))[:, None], out=z)
    return np.subtract(y, z, out=y)


def _fail_row(cell, rows, i, why):
    raise NonConvergenceError(f"p0={cell.P[rows[i]].tolist()}: {why}")


def _newton(cell, rows, v, tol):
    """Damped semismooth Newton for the cell problem, one row per
    base gradient in ``rows`` (indices into cell.P), from the fields v.

    A step is one banded solve for all rows at once (_newton_direction)
    and a line search in two rounds (_line_search). Every row keeps its
    own iteration: it stops once its residual is within its tolerance,
    takes the longest of the steps 1, 1/2, ..., 1/1024 that lowers its
    residual enough, and declines when none does or after 80 steps.

    Returns the fields, iteration counts, final residuals and a mask of
    the rows that converged.
    """
    v = np.array(v, dtype=float)
    its = np.zeros(rows.size, dtype=int)
    ok = np.zeros(rows.size, dtype=bool)
    r = cell.residual(rows, v).copy()
    res = _row_sup(r)
    act = np.arange(rows.size)
    for it in range(80):
        done = res[act] <= tol[act]
        ok[act[done]] = True
        its[act[done]] = it
        act = act[~done]
        if not act.size:
            break
        dv = _newton_direction(cell, rows[act], _take(v, act), _take(r, act))
        act = np.delete(act, _line_search(cell, rows, act, dv, v, r, res))
    return v, its, res, ok


# the line search's steps, longest first
STEPS = 0.5 ** np.arange(11)


def _line_search(cell, rows, act, dv, v, r, res):
    """Move each row of act (indices into rows, v, r and res) by the
    longest step s of STEPS whose trial v + s dv meets
    res_new <= (1 - s/4) res, updating v, r and res in place; return the
    indices into act of the rows that no step serves.

    Round 1 tries the full step for every row; round 2 tries all the
    halvings for the rows it did not serve in one residual evaluation,
    split into groups of consecutive halvings, longest first, when the
    trials would not fit the workspace. A trial's residual depends on
    its row alone, so each row keeps the step that halving one step at a
    time would keep, with the same bits.
    """
    k, n = dv.shape
    pend = np.arange(k)
    j = 0
    while pend.size and j < STEPS.size:
        m = pend.size
        g = 1 if j == 0 else min(STEPS.size - j, cell.capacity // m)
        steps = STEPS[j:j + g]
        j += g
        trial = cell.trials(k, g * m)
        stack = trial.reshape(g, m, n)
        np.multiply(steps[:, None, None], _take(dv, pend), out=stack)
        np.add(_take(v, act[pend]), stack, out=stack)
        rn = cell.residual(np.tile(rows[act[pend]], g), trial)
        resn = _row_sup(rn).reshape(g, m)
        good = resn <= (1.0 - 0.25 * steps)[:, None] * res[act[pend]]
        first = np.argmax(good, axis=0)         # the longest that passes
        served = good[first, np.arange(m)]
        i = np.flatnonzero(served)
        at = first[i] * m + i
        sel = act[pend[i]]
        _put(v, sel, _take(trial, at))
        _put(r, sel, _take(rn, at))
        res[sel] = resn[first[i], i]
        pend = pend[~served]
    return pend


def _take(a, idx):
    """The rows idx of a, without a copy when idx is every row: the row
    indices here are increasing, so one that keeps the row count is
    every row in order."""
    return a if len(idx) == len(a) else a[idx]


def _put(a, idx, values):
    """a[idx] = values, as one plain copy when idx is every row."""
    if len(idx) == len(a):
        a[...] = values
    else:
        a[idx] = values


def _nested_start(cell, rows, tol):
    """Cold start for the Newton path by nested iteration.

    Newton from zero stalls where the corrector switches between the
    min and max branches, so the same problem (same lam, theta and
    tolerance) is first solved on a ladder of grids of the same length,
    halving the node count while it stays even and the level keeps at
    least 16 nodes, and each level's result is prolonged to the next. A
    row whose Newton declines on a level passes its start up unchanged.
    """
    sizes = [cell.grid.n]
    while sizes[-1] % 2 == 0 and sizes[-1] // 2 >= 16:
        sizes.append(sizes[-1] // 2)
    v = np.zeros((rows.size, sizes[-1]))
    for m in reversed(sizes[1:]):
        coarse = cell.on(Grid(m, cell.grid.length))
        out, _, _, ok = _newton(coarse, rows, v, tol)
        v = prolong_periodic(np.where(ok[:, None], out, v))
    return v


def _relax_projected(cell, rows, v, tol):
    """Monotone pseudo-time relaxation on the mean-projected residual,
    one row per base gradient in ``rows``, each stopping on its own.

    Projecting out the constant mode keeps the step count independent
    of lam; the constant mode is restored by one exact shift at the
    end. Dissipation-limited, so cost grows like n^2; used where Newton
    declines. The pseudo-time step is 0.95 times the monotonicity bound.
    """
    grid, lam = cell.grid, cell.lam
    tau = 0.95 / (lam + cell.theta / grid.h)
    check_every = 16
    back = max(8 * grid.n, 8000) // check_every
    v = np.array(v, dtype=float)
    out = np.empty_like(v)
    its = np.zeros(rows.size, dtype=int)
    res = np.zeros(rows.size)
    act = np.arange(rows.size)
    # each row's residual at the last back + 1 checks: a row stalls
    # when its residual has not fallen since the oldest
    history = deque(maxlen=back + 1)
    it = 0
    while act.size:
        va = v[act]
        r = cell.residual(rows[act], va)
        rbar = r.mean(axis=1, keepdims=True)
        r = r - rbar
        dev = _row_sup(r)
        if it % check_every == 0:
            history.append(np.full(rows.size, np.nan))
            history[-1][act] = dev
            if len(history) > back:
                stalled = (dev > tol[act]) \
                    & (dev > 0.9995 * history[0][act])
                if np.any(stalled):
                    j = int(np.argmax(stalled))
                    _fail_row(cell, rows, act[j],
                              f"residual stalled near {dev[j]:.3g} "
                              f"after {it} iterations")
        done = np.zeros(act.size, dtype=bool)
        near = np.flatnonzero(dev <= 0.5 * tol[act])
        if near.size:
            shifted = va[near] - rbar[near] / lam
            r_full = cell.residual(rows[act[near]], shifted)
            res_full = _row_sup(r_full)
            fin = res_full <= tol[act[near]]
            sel = act[near[fin]]
            out[sel], its[sel], res[sel] = shifted[fin], it, res_full[fin]
            done[near[fin]] = True
        if it >= MAX_SWEEPS and not np.all(done):
            j = int(np.argmin(done))
            _fail_row(cell, rows, act[j],
                      f"no convergence in {it} iterations "
                      f"(residual {dev[j]:.3g})")
        v[act[~done]] = va[~done] - tau * r[~done]
        act = act[~done]
        it += 1
    return out, its, res


def solve_discounted(cell, lam, v0=None):
    """Solve lam*v + H_LF(p + Dv, x) = 0 on the cell grid of the
    ``CellProblem`` cell, its one description of the problem, to a
    certified residual, for all its base gradients as one batch. Made
    once for a schedule, the cell problem lends every rate its binding,
    its probe of H at v = 0 and its workspace.

    v0, if given, is a start of shape (n_p, cell.grid.n). Every row is
    solved as it would be alone. A damped Newton iteration on the
    Lax-Friedrichs residual does the work (each step one banded solve
    for all rows), starting from v0 or, without one, from the
    nested-iteration start on coarser grids. A row whose Newton from v0
    declines is retried once from the nested start; a row that still
    declines falls back to monotone pseudo-time relaxation. Whatever the
    path, every returned row satisfies its residual tolerance
    1e-8 * max(1, sup|H(p,.)|) and the comparison bound
    |lam*v| <= sup|H(p,.)| + tol, or an error names the base gradient.

    Returns the (n_p, cell.grid.n) solutions and a dict of per-row
    arrays: "method" (the path: "constant", "newton", RETRY or
    FALLBACK), "iterations", "residual", "tol", and "constant" (the
    exact value H(p) of an x-independent row, NaN on the others).
    """
    cell = cell.at(lam)
    P, tol, const, h0_first = cell.P, cell.tol, cell.const, cell.h0_first

    v = np.zeros((len(P), cell.grid.n)) if v0 is None \
        else np.array(v0, dtype=float)
    its = np.zeros(len(P), dtype=int)
    res = np.zeros(len(P))
    used = np.empty(len(P), dtype=object)

    # x-independent problems: the constant solution is exact, and so is
    # its residual, the same at every node
    value = -h0_first[const] / lam
    v[const] = value[:, None]
    res[const] = np.abs(lam * value + h0_first[const])
    used[const] = "constant"

    work = np.flatnonzero(~const)
    if work.size:
        if v0 is None:
            v[work] = _nested_start(cell, work, tol[work])
        out, n_it, n_res, ok = _newton(cell, work, _take(v, work), tol[work])
        used[work] = "newton"
        again = np.flatnonzero(~ok)
        if v0 is not None and again.size:
            rows = work[again]
            out2, it2, res2, ok2 = _newton(
                cell, rows, _nested_start(cell, rows, tol[rows]), tol[rows])
            out[again], n_it[again], n_res[again] = out2, it2, res2
            ok[again] = ok2
            used[rows[ok2]] = RETRY
        solved = work[ok]
        v[solved], its[solved], res[solved] = out[ok], n_it[ok], n_res[ok]
        relax = work[~ok]
        if relax.size:
            v[relax], its[relax], res[relax] = _relax_projected(
                cell, relax, v[relax], tol[relax])
            used[relax] = FALLBACK

    bound = cell.sup_h0 + tol
    sup_lv = _row_sup(lam * v)
    if not np.all(np.isfinite(sup_lv)):
        i = int(np.argmin(np.isfinite(sup_lv)))
        raise NonConvergenceError(
            f"p0={P[i].tolist()}: solution field is not finite")
    over = sup_lv > bound + 1e-12 * np.maximum(1.0, bound)
    if np.any(over):
        i = int(np.argmax(over))
        raise NonConvergenceError(
            f"p0={P[i].tolist()}: |lam*v| = {sup_lv[i]:.6g} exceeds the "
            f"comparison bound {bound[i]:.6g}")
    return v, {"method": used, "iterations": its, "residual": res,
               "tol": tol, "constant": np.where(const, h0_first, np.nan)}


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


def _march(h_bound, grid, theta, u0_values, T, t_samples, names):
    """Forward-Euler march of a stack of fields, one row per entry of
    ``names`` (what a failure calls the row), all from the same initial
    data.

    The step count depends only on theta, the spacing and the sample
    times, so every row takes the same steps. Every row keeps its own
    bound K (the sup of its first update), its own finiteness check and
    its own comparison band |u - u0| <= K*t; a failure names the row.
    Returns the snapshots at the sample times (at T alone when there are
    none), shape (n_t, n_rows, n) in sample-time order, and a dict of
    "dt", "n_steps", "theta" and the per-row "k_bound".
    """
    cfl_rate = theta / grid.h
    if cfl_rate > 0:
        n_steps = max(1, int(np.ceil(T * cfl_rate / 0.9 - 1e-12)))
    else:
        n_steps = 1
    n_steps = _fit_steps(T, n_steps, t_samples)
    dt = T / n_steps
    at = [int(round(t / dt)) for t in (t_samples or (T,))]

    u0 = np.asarray(u0_values, dtype=float)
    u = np.tile(u0, (len(names), 1))
    work = _work_arrays(u)
    k0 = _row_sup(lf_update(h_bound, u, grid, theta, work))
    u_min0, u_max0 = float(u0.min()), float(u0.max())

    # snapshot j is the stack at step at[j]; u is updated in place
    snaps = np.empty((len(at),) + u.shape)
    snaps[np.equal(at, 0)] = u
    for k in range(1, n_steps + 1):
        step = lf_update(h_bound, u, grid, theta, work)
        step *= dt
        u -= step
        if k in at:
            snaps[np.equal(at, k)] = u

    finite = np.all(np.isfinite(u), axis=1)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise NonConvergenceError(f"{names[i]}: evolution blew up")
    slack = 1e-10 * np.maximum(1.0, k0 * T)
    out = (u.max(axis=1) > u_max0 + k0 * T + slack) \
        | (u.min(axis=1) < u_min0 - k0 * T - slack)
    if np.any(out):
        i = int(np.argmax(out))
        raise NonConvergenceError(
            f"{names[i]}: evolution left the comparison band "
            f"|u - u0| <= K*t")
    return snaps, {"dt": dt, "n_steps": n_steps, "theta": theta,
                   "k_bound": k0}


def solve_time_dependent(hamiltonian, u0, eps, grid, medium=None, T=1.0,
                         theta=None, t_samples=()):
    """March u_t + H(Du, x/eps) = 0 by forward Euler under CFL 0.9 for
    every scale of the 1-D array eps, as one (n_eps, n) stack; every row
    is bit-identical to marching its scale alone.

    u0 is a callable on grid nodes or a value array. theta is the
    dissipation, by default the Hamiltonian's Lipschitz bound. Snapshot
    times must be integer multiples of the step. Returns the march's
    snapshots and dict (see ``_march``), one row per scale.
    """
    scales = np.asarray(eps, dtype=float)
    theta = _dissipation(theta, hamiltonian, medium)
    h_bound = hamiltonian.bind_base(0.0, grid.x[None, :] / scales[:, None],
                                    medium)
    u0_values = u0(grid.x) if callable(u0) else u0
    return _march(h_bound, grid, theta, u0_values, T, t_samples,
                  [f"eps={e:g}" for e in scales])


def solve_homogenized(curve, u0, grid, T=1.0, theta=None, t_samples=()):
    """Same march, a stack of one, with the gradient-only Hamiltonian
    given by a curve object (evaluate(p) plus lipschitz()); theta
    defaults to the curve's Lipschitz constant."""
    theta = float(theta if theta is not None else curve.lipschitz())
    h_bound = lambda dv: curve.evaluate(dv[0])
    u0_values = u0(grid.x) if callable(u0) else u0
    return _march(h_bound, grid, theta, u0_values, T, t_samples,
                  ["homogenized"])
