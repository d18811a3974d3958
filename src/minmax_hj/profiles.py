"""Gradient profiles: the p-dependent part of every Hamiltonian piece.

Three shapes cover everything the rest of the package builds:

* ``AbsShift``     -- offset + slope * |p - center|   (quasiconvex, coercive)
* ``NegatedAbs``   -- offset - slope * |p - center|   (quasiconcave, -> -inf)
* ``PiecewiseMonotone`` -- piecewise-linear valley or hill on the line,
  extended past the end breakpoints with the terminal slopes. Valleys may
  have a flat bottom; branches must otherwise be strictly monotone.

All three are exactly evaluable (piecewise linear in the scalar argument)
and closed under the two dualities ``negate_dual`` (phi -> -phi(-p)) and
``even_dual`` (phi -> phi(-p)). Valleys also give their branch inverses
exactly, and the levels where those change slope, which the separable
oracle relies on.

Gradients are numbers. A profile is a plain callable, phi(p), on an
array of them of any shape; the pieces of ``family`` build every
Hamiltonian formula on it.
"""

import numpy as np

from .errors import ProfileShapeError

QUASICONVEX = "quasiconvex"
QUASICONCAVE = "quasiconcave"


def _scalar(center):
    if np.ndim(center) != 0:
        raise ProfileShapeError("center must be a scalar")
    return float(center)


class AbsShift:
    """offset + slope * |p - center|."""

    tag = QUASICONVEX

    def __init__(self, center, slope, offset=0.0):
        center = _scalar(center)
        if not slope > 0:
            raise ProfileShapeError("slope must be positive for a coercive profile")
        self.center = center
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, p):
        return self.offset + self.slope * np.abs(p - self.center)

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
        if np.any(t < self.offset - 1e-12):
            raise ValueError("level below the profile minimum")
        r = np.maximum(t - self.offset, 0.0) / self.slope
        return self.center - r, self.center + r

    def negate_dual(self):
        return NegatedAbs(-self.center, self.slope, -self.offset)

    def even_dual(self):
        return AbsShift(-self.center, self.slope, self.offset)


class NegatedAbs:
    """offset - slope * |p - center|."""

    tag = QUASICONCAVE

    def __init__(self, center, slope, offset=0.0):
        center = _scalar(center)
        if not slope > 0:
            raise ProfileShapeError("slope must be positive")
        self.center = center
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, p):
        return self.offset - self.slope * np.abs(p - self.center)

    def lipschitz(self):
        return self.slope

    def extreme_value(self):
        return self.offset

    def negate_dual(self):
        return AbsShift(-self.center, self.slope, -self.offset)

    def even_dual(self):
        return NegatedAbs(-self.center, self.slope, self.offset)


class PiecewiseMonotone:
    """Piecewise-linear valley or hill on the line.

    ``direction`` is "valley" (quasiconvex, coercive) or "hill"
    (quasiconcave, anticoercive). The slope pattern is validated:
    strictly falling, then an optional flat run (the bottom/top), then
    strictly rising -- mirrored for hills. Terminal slopes extend the
    profile linearly, so coercivity is genuine.
    """

    def __init__(self, breaks, values, direction="valley"):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2 or breaks.shape != values.shape:
            raise ProfileShapeError("need matching 1-D breaks/values, at least two")
        if not np.all(np.diff(breaks) > 0):
            raise ProfileShapeError("breaks must be strictly increasing")
        slopes = np.diff(values) / np.diff(breaks)
        sgn = np.sign(slopes)
        if direction == "valley":
            pattern_ok = self._valley_pattern(sgn)
        elif direction == "hill":
            pattern_ok = self._valley_pattern(-sgn)
        else:
            raise ProfileShapeError(f"unknown direction {direction!r}")
        if not pattern_ok:
            raise ProfileShapeError(
                f"values do not form a {direction}: slope signs {sgn.tolist()}")
        self.breaks = breaks
        self.values = values
        self.direction = direction
        self._slopes = slopes
        # indices bracketing the extremum plateau
        ext = values.argmin() if direction == "valley" else values.argmax()
        vext = values[ext]
        att = np.flatnonzero(values == vext)
        self._ext_lo = int(att[0])
        self._ext_hi = int(att[-1])

    @staticmethod
    def _valley_pattern(sgn):
        # strictly -1 run, optional 0 run, strictly +1 run; both strict runs required
        n = sgn.size
        i = 0
        while i < n and sgn[i] < 0:
            i += 1
        if i == 0:
            return False
        j = i
        while j < n and sgn[j] == 0:
            j += 1
        if j == n or np.any(sgn[j:] <= 0):
            return False
        return True

    @property
    def tag(self):
        return QUASICONVEX if self.direction == "valley" else QUASICONCAVE

    def __call__(self, p):
        b, v = self.breaks, self.values
        out = np.interp(p, b, v)
        out = np.where(p < b[0], v[0] + self._slopes[0] * (p - b[0]), out)
        return np.where(p > b[-1], v[-1] + self._slopes[-1] * (p - b[-1]),
                        out)

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
        if self.direction != "valley":
            raise ValueError("branch inverses apply to valleys")
        t = np.asarray(t, dtype=float)
        vmin = self.extreme_value()
        if np.any(t < vmin - 1e-12):
            raise ValueError("level below the profile minimum")
        t = np.maximum(t, vmin)
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

    def even_dual(self):
        return PiecewiseMonotone(-self.breaks[::-1], self.values[::-1], self.direction)


_KINDS = {"abs_shift": AbsShift, "negated_abs": NegatedAbs,
          "piecewise_monotone": PiecewiseMonotone}


def profile_from_dict(data):
    """Build a profile from its config mapping: ``kind`` plus the
    constructor's arguments."""
    data = dict(data)
    kind = data.pop("kind", None)
    if kind not in _KINDS:
        raise ProfileShapeError(f"unknown profile kind {kind!r}")
    return _KINDS[kind](**data)
