"""Gradient profiles: the p-dependent part of every Hamiltonian piece.

Three shapes cover everything the rest of the package builds:

* ``AbsShift``     -- offset + slope * |p - center|   (quasiconvex, coercive)
* ``NegatedAbs``   -- offset - slope * |p - center|   (quasiconcave, -> -inf)
* ``PiecewiseMonotone`` -- piecewise-linear valley or hill on the line,
  extended past the end breakpoints with the terminal slopes. Valleys may
  have a flat bottom; branches must otherwise be strictly monotone.

All three are exactly evaluable (piecewise linear in the scalar argument,
with kinks at fixed gradients that ``kinks`` lists, and linear tails)
and closed under the negation duality ``negate_dual`` (phi -> -phi(-p)),
through which the separable oracle reads a quasiconcave piece. Valleys
also give their branch inverses exactly, and the levels where those
change slope, which the oracle relies on.

Gradients are numbers. A profile is a plain callable, phi(p), on an
array of them of any shape; the pieces of ``family`` build every
Hamiltonian formula on it.

A profile takes its values as given: ``config`` holds every rule on
them (a positive slope, a valley's or a hill's slope pattern), and this
module checks none.
"""

import numpy as np

QUASICONVEX = "quasiconvex"
QUASICONCAVE = "quasiconcave"


def piecewise_linear(q, knots, values, tail_slopes):
    """Interpolate ``values`` at the increasing ``knots`` and extend past
    the end knots linearly, with ``tail_slopes`` (left, right)."""
    q = np.asarray(q, dtype=float)
    out = np.interp(q, knots, values)
    # the tails are rarely reached: a mask and a test cost less than
    # tail terms computed over the whole array
    left, right = q < knots[0], q > knots[-1]
    if left.any():
        out = np.where(left, values[0] + tail_slopes[0] * (q - knots[0]),
                       out)
    if right.any():
        out = np.where(right, values[-1] + tail_slopes[1] * (q - knots[-1]),
                       out)
    return out


def _distance(p, center, slope):
    """slope * |p - center|, leaving a zero center and a unit slope out
    on a float array, where p - 0.0 and 1.0 * d change no bit; other
    inputs (np.abs of an int array stays int) take the formula as is."""
    if not (isinstance(p, np.ndarray) and p.dtype.kind == "f"):
        return slope * np.abs(p - center)
    d = np.abs(p - center) if center else np.abs(p)
    return d if slope == 1.0 else slope * d


class AbsShift:
    """offset + slope * |p - center|."""

    tag = QUASICONVEX

    def __init__(self, center, slope, offset=0.0):
        self.center = float(center)
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, p):
        return self.offset + _distance(p, self.center, self.slope)

    def kinks(self):
        """The gradients where the slope changes, ascending, and the
        slopes of the two linear tails beyond them, (left, right)."""
        return np.array([self.center]), (-self.slope, self.slope)

    def lipschitz(self):
        return self.slope

    def extreme_value(self):
        return self.offset

    def kink_levels(self):
        """Levels where a branch inverse changes slope, ascending from
        the minimum; both are linear past the last."""
        return np.array([self.offset])

    def branch_inverses(self, t):
        """Leftmost/rightmost solutions of phi = t, vectorized."""
        t = np.asarray(t, dtype=float)
        r = np.maximum(t - self.offset, 0.0) / self.slope
        return self.center - r, self.center + r

    def negate_dual(self):
        return NegatedAbs(-self.center, self.slope, -self.offset)


class NegatedAbs:
    """offset - slope * |p - center|."""

    tag = QUASICONCAVE

    def __init__(self, center, slope, offset=0.0):
        self.center = float(center)
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, p):
        return self.offset - _distance(p, self.center, self.slope)

    def kinks(self):
        return np.array([self.center]), (self.slope, -self.slope)

    def lipschitz(self):
        return self.slope

    def extreme_value(self):
        return self.offset

    def negate_dual(self):
        return AbsShift(-self.center, self.slope, -self.offset)


class PiecewiseMonotone:
    """Piecewise-linear valley or hill on the line.

    ``direction`` is "valley" (quasiconvex, coercive) or "hill"
    (quasiconcave, anticoercive). A valley's slopes fall strictly, then
    may stay flat (the bottom), then rise strictly -- mirrored for
    hills. Terminal slopes extend the profile linearly, so coercivity is
    genuine.
    """

    def __init__(self, breaks, values, direction="valley"):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        self.breaks = breaks
        self.values = values
        self.direction = direction
        self._slopes = np.diff(values) / np.diff(breaks)
        # indices bracketing the extremum plateau
        ext = values.argmin() if direction == "valley" else values.argmax()
        vext = values[ext]
        att = np.flatnonzero(values == vext)
        self._ext_lo = int(att[0])
        self._ext_hi = int(att[-1])

    @property
    def tag(self):
        return QUASICONVEX if self.direction == "valley" else QUASICONCAVE

    def __call__(self, p):
        return piecewise_linear(p, self.breaks, self.values,
                                (self._slopes[0], self._slopes[-1]))

    def kinks(self):
        return self.breaks, (self._slopes[0], self._slopes[-1])

    def lipschitz(self):
        return float(np.max(np.abs(self._slopes)))

    def extreme_value(self):
        return float(self.values[self._ext_lo])

    def kink_levels(self):
        """Levels where a valley's branch inverses change slope (its
        break values), ascending from the minimum; both are linear past
        the last."""
        return np.unique(self.values)

    def branch_inverses(self, t):
        """Leftmost/rightmost solutions of phi = t for a valley, vectorized."""
        t = np.maximum(np.asarray(t, dtype=float), self.extreme_value())
        i0, i1 = self._ext_lo, self._ext_hi
        # falling branch, reversed so values ascend
        vb, bb = self.values[:i0 + 1][::-1], self.breaks[:i0 + 1][::-1]
        left = np.interp(t, vb, bb)
        over = t > self.values[0]
        if np.any(over):
            left = np.where(over, self.breaks[0] + (t - self.values[0]) / self._slopes[0], left)
        vb2, bb2 = self.values[i1:], self.breaks[i1:]
        right = np.interp(t, vb2, bb2)
        over2 = t > self.values[-1]
        if np.any(over2):
            right = np.where(over2, self.breaks[-1] + (t - self.values[-1]) / self._slopes[-1], right)
        return left, right

    def negate_dual(self):
        d = "hill" if self.direction == "valley" else "valley"
        return PiecewiseMonotone(-self.breaks[::-1], -self.values[::-1], d)

