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
