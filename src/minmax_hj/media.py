"""Coefficient fields on a circle: periodic formulas, seeded
checkerboards, periodized quasiperiodic sums.

A medium spec declares numbered coefficient channels; a realization is
the spec plus a seed (random kinds draw their cell tables from it).
Evaluation wraps the argument into the fundamental cell, so
evaluate(x + period) == evaluate(x) holds exactly. Quasiperiodic sums
are wrapped at the seam (they are surrogates, not true quasiperiodic
fields).

A spec's values are taken as given: ``config`` holds every rule on
them, and this module checks none.
"""

import numpy as np


class MediumSpec:
    """A medium kind, its period and its coefficient channels, as
    ``config`` has checked them: taken as given."""

    def __init__(self, kind, period, channels):
        self.kind = kind
        self.period = float(period)
        self.channels = [dict(c) for c in channels]

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
