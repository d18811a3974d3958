"""Coefficient fields on a circle: periodic formulas, seeded
checkerboards, periodized quasiperiodic sums.

A medium spec declares numbered coefficient channels; a realization is
the spec plus a seed (random kinds draw their cell tables from it).
Evaluation wraps the argument into the fundamental cell, so
evaluate(x + period) == evaluate(x) holds exactly. Quasiperiodic sums
are wrapped at the seam (they are surrogates, not true quasiperiodic
fields).
"""

import numpy as np

from .errors import ConfigError

_PERIODIC_FORMULAS = ("sin_sq", "cos_sq", "cos", "constant")
# most cells a checkerboard channel may have per period
_MAX_CELLS = 10**6


class MediumSpec:
    """A medium kind, its period and its coefficient channels; an error
    names the field of the config's ``medium`` section at fault."""

    def __init__(self, kind, period=1.0, channels=None):
        if not period > 0:
            raise ConfigError(f"medium.period: {period!r} is not positive")
        self.kind = kind
        self.period = float(period)
        self.channels = [dict(c) for c in (channels or [])]
        if not self.channels:
            raise ConfigError("medium.channels: need at least one channel")
        for i, ch in enumerate(self.channels):
            self._validate_channel(f"medium.channels[{i}]", ch)

    def _validate_channel(self, at, ch):
        if self.kind == "periodic":
            f = ch.get("formula")
            if f not in _PERIODIC_FORMULAS:
                raise ConfigError(f"{at}.formula: unknown formula {f!r}")
            if f == "constant" and "value" not in ch:
                raise ConfigError(
                    f"{at}.value: missing, {at}.formula 'constant' needs it")
        elif self.kind == "checkerboard":
            cell = ch.get("cell")
            if not cell or cell <= 0:
                raise ConfigError(f"{at}.cell: need a positive cell")
            n = self.period / cell
            if not n <= _MAX_CELLS or abs(n - round(n)) > 1e-12:
                raise ConfigError(
                    f"{at}.cell: {cell:g} does not divide medium.period "
                    f"{self.period:g} into at most {_MAX_CELLS} cells")
            lo, hi = ch.get("low"), ch.get("high")
            if lo is None or hi is None or not lo < hi:
                raise ConfigError(f"{at}: need {at}.low < {at}.high")
        else:
            freqs = ch.get("freqs")
            amps = ch.get("amps")
            phases = ch.get("phases", amps)
            if not freqs or not amps or not \
                    len(freqs) == len(amps) == len(phases):
                raise ConfigError(
                    f"{at}: need {at}.freqs, {at}.amps and {at}.phases "
                    f"of one nonzero length")

    def channel_bounds(self, idx):
        """Certified (low, high) bounds for a channel's values."""
        ch = self.channels[idx]
        if self.kind == "periodic":
            f = ch["formula"]
            if f == "constant":
                v = float(ch["value"])
                return (v, v)
            amp = ch.get("amplitude", 1.0)
            off = ch.get("offset", 0.0)
            if f in ("sin_sq", "cos_sq"):
                lo, hi = sorted((off, off + amp))
            else:
                lo, hi = off - abs(amp), off + abs(amp)
            return (float(lo), float(hi))
        if self.kind == "checkerboard":
            return (float(ch["low"]), float(ch["high"]))
        off = ch.get("offset", 0.0)
        spread = sum(abs(a) for a in ch["amps"])
        return (float(off - spread), float(off + spread))


def distinct(keys):
    """(reps, inverse) of a sequence of hashable keys: ``reps`` indexes
    the first occurrence of each distinct key, in order, and
    ``inverse[i]`` is the position in ``reps`` of key i's."""
    first, reps, inverse = {}, [], []
    for i, key in enumerate(keys):
        if key not in first:
            first[key] = len(reps)
            reps.append(i)
        inverse.append(first[key])
    return np.array(reps, dtype=np.intp), np.array(inverse, dtype=np.intp)


def medium_table(medium):
    """The nodes on which the hypotheses and the exact oracle read a
    medium: 4096 on one period."""
    return np.arange(4096) * (medium.period / 4096)


def sample_realization(spec, seed=0):
    """Draw the realization for (spec, seed); deterministic."""
    tables = []
    if spec.kind == "checkerboard":
        for i, ch in enumerate(spec.channels):
            rng = np.random.default_rng([int(seed), i])
            ncell = int(round(spec.period / ch["cell"]))
            tables.append(rng.uniform(ch["low"], ch["high"], size=ncell))
    return MediumRealization(spec, int(seed), tables)


class MediumRealization:
    def __init__(self, spec, seed, tables):
        self.spec = spec
        self.seed = seed
        self.tables = tables

    @property
    def period(self):
        return self.spec.period

    @property
    def key(self):
        """Equal for realizations that draw the same medium: the spec and
        the bytes of the drawn tables (none but a checkerboard's)."""
        return (self.spec, *(t.tobytes() for t in self.tables))

    def evaluate_channel(self, idx, x):
        """Channel value at x (any array shape); exact wrap semantics."""
        ch = self.spec.channels[idx]
        y = np.mod(np.asarray(x, dtype=float), self.period)
        if self.spec.kind == "periodic":
            return self._periodic_value(ch, y)
        if self.spec.kind == "checkerboard":
            table = self.tables[idx]
            cell = ch["cell"]
            return table[np.floor(y / cell).astype(np.int64) % table.size]
        return self._quasi_value(ch, y)

    def _periodic_value(self, ch, y):
        f = ch["formula"]
        if f == "constant":
            return float(ch["value"]) + 0.0 * y
        amp = ch.get("amplitude", 1.0)
        off = ch.get("offset", 0.0)
        u = (y - ch.get("shift", 0.0)) / self.period
        if f == "sin_sq":
            wave = np.sin(np.pi * u) ** 2
        elif f == "cos_sq":
            wave = np.cos(np.pi * u) ** 2
        else:
            wave = np.cos(2 * np.pi * u)
        return off + amp * wave

    def _quasi_value(self, ch, y):
        off = ch.get("offset", 0.0)
        phases = ch.get("phases", [0.0] * len(ch["freqs"]))
        acc = 0.0
        for fr, am, phz in zip(ch["freqs"], ch["amps"], phases):
            acc = acc + am * np.cos(2 * np.pi * (float(fr) * y) + phz)
        return off + acc
