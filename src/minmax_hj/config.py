"""Experiment configuration: YAML in, validated objects out.

A config names everything a run needs: the piece family, the medium,
the solver and gradient grids, the discount and oscillation schedules,
the initial condition (from a fixed catalogue of bounded Lipschitz
functions), seeds, and the output directory. Validation happens at load
time so commands can assume a consistent config, and every failure
carries the offending field path.
"""

import copy
import os

import numpy as np
import yaml

from .errors import ConfigError
from .family import MinMaxFamily, piece_from_dict
from .media import MediumSpec


def _wrap_dist(x, length):
    """Distance to 0 on the circle of circumference ``length``."""
    y = np.mod(x, length)
    return np.minimum(y, length - y)


U0_CATALOGUE = {
    "clipped_abs": lambda x, L: np.minimum(_wrap_dist(x, L), 1.0),
    "cosine": lambda x, L: np.cos(2.0 * np.pi * x / L),
    "constant": lambda x, L: np.full_like(np.asarray(x, dtype=float), 0.75),
    "plateau_bump": lambda x, L: np.clip(2.0 - _wrap_dist(x, L), 0.0, 1.0),
}


def _need(data, key, where):
    if key not in data:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return data[key]


# Keys each section may hold; anything else is a typo or a leftover
# field and is rejected rather than silently ignored.
_KEYS = {
    None: {"family", "medium", "solver", "p_axis", "lambda_schedule",
           "eps_schedule", "evolution", "seeds", "pairs", "output"},
    "solver": {"n", "length", "theta"},
    "p_axis": {"min", "max", "count"},
    "evolution": {"T", "u0", "t_samples"},
    "pairs": {"x_nodes", "p_box", "n_p"},
}


def _reject_unknown(data, section, source):
    block = data if section is None else data.get(section)
    if not isinstance(block, dict):
        return
    for key in sorted(set(block) - _KEYS[section], key=str):
        path = key if section is None else f"{section}.{key}"
        raise ConfigError(f"{source}: {path}: unknown key")


def _is_whole(ratio):
    k = round(ratio)
    return k >= 1 and abs(ratio - k) <= 1e-9 * ratio


def _pieces(fam, role, source):
    """Build the pieces of family.checks or family.hats; a bad piece
    names its index."""
    entries = _need(fam, role, f"{source}: family")
    if not isinstance(entries, list):
        raise ConfigError(f"{source}: family.{role}: need a list of pieces")
    pieces = []
    for i, data in enumerate(entries):
        try:
            pieces.append(piece_from_dict(data))
        except Exception as err:
            raise ConfigError(f"{source}: family.{role}[{i}]: {err}") from err
    return pieces


def _decreasing(values, where):
    vals = [float(v) for v in values]
    if len(vals) < 1 or any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{where}: schedule must be strictly decreasing")
    if any(v <= 0 for v in vals):
        raise ConfigError(f"{where}: schedule entries must be positive")
    return vals


class ExperimentConfig:
    """Validated experiment description; see configs/ for examples."""

    def __init__(self, data, source="<config>"):
        if not isinstance(data, dict):
            raise ConfigError(f"{source}: top level must be a mapping")
        self.raw = copy.deepcopy(data)
        self.source = source
        for section in _KEYS:
            _reject_unknown(data, section, source)

        med = _need(data, "medium", source)
        # the key stays for configs that state it; the medium is a line
        if med.get("dim", 1) != 1:
            raise ConfigError(
                f"{source}: medium.dim: {med['dim']!r}, but the medium is "
                f"one-dimensional (dim: 1)")
        try:
            self.medium_spec = MediumSpec(
                med.get("kind", "periodic"), med.get("period", 1.0),
                med.get("channels"))
        except ConfigError as err:
            raise ConfigError(f"{source}: medium: {err}") from err

        fam = _need(data, "family", source)
        checks = _pieces(fam, "checks", source)
        hats = _pieces(fam, "hats", source)
        try:
            self.family = MinMaxFamily(
                checks, hats,
                orientation=fam.get("orientation", "max_first"),
                normalized=bool(fam.get("normalized", True)))
        except Exception as err:
            raise ConfigError(f"{source}: family: {err}") from err
        n_channels = len(self.medium_spec.channels)
        for role, pieces in (("checks", self.family.checks),
                             ("hats", self.family.hats)):
            for i, pc in enumerate(pieces):
                if pc.channel is not None and not pc.channel < n_channels:
                    raise ConfigError(
                        f"{source}: family.{role}[{i}]: channel {pc.channel} "
                        f"not in medium (has {n_channels})")

        sol = _need(data, "solver", source)
        self.solver_n = int(_need(sol, "n", f"{source}: solver"))
        self.solver_length = float(sol.get("length", 1.0))
        self.theta = sol.get("theta")
        if self.solver_n < 16 or self.solver_length <= 0:
            raise ConfigError(f"{source}: solver: need n >= 16 and length > 0")
        if self.theta is not None and not (
                isinstance(self.theta, (int, float)) and self.theta > 0):
            raise ConfigError(
                f"{source}: solver.theta: {self.theta!r} is not a positive "
                f"number")
        period = self.medium_spec.period
        # a partial period puts a seam in the medium: another equation
        if not _is_whole(self.solver_length / period):
            raise ConfigError(
                f"{source}: solver.length: {self.solver_length:g} is not a "
                f"whole multiple of medium.period {period:g}")

        pax = _need(data, "p_axis", source)
        lo, hi = float(_need(pax, "min", f"{source}: p_axis")), \
            float(_need(pax, "max", f"{source}: p_axis"))
        count = int(_need(pax, "count", f"{source}: p_axis"))
        if not (lo < hi and count >= 2):
            raise ConfigError(f"{source}: p_axis: need min < max, count >= 2")
        self.p_axis = np.linspace(lo, hi, count)

        self.lambda_schedule = _decreasing(
            _need(data, "lambda_schedule", source),
            f"{source}: lambda_schedule")
        if len(self.lambda_schedule) < 3:
            raise ConfigError(f"{source}: lambda_schedule: need >= 3 entries")

        h = self.solver_length / self.solver_n
        self.eps_schedule = _decreasing(data.get("eps_schedule", [0.25]),
                                        f"{source}: eps_schedule")
        for eps in self.eps_schedule:
            if eps < 2.0 * h:
                raise ConfigError(
                    f"{source}: eps_schedule: eps={eps:g} under-resolved, "
                    f"need eps >= 2h = {2 * h:g}")
            if not _is_whole(self.solver_length / (eps * period)):
                raise ConfigError(
                    f"{source}: eps_schedule: eps={eps:g} does not fit the "
                    f"domain: solver.length / (eps * medium.period) = "
                    f"{self.solver_length / (eps * period):g} is not whole")

        evo = data.get("evolution", {})
        self.T = float(evo.get("T", 0.5))
        self.u0_name = evo.get("u0", "clipped_abs")
        if self.u0_name not in U0_CATALOGUE:
            raise ConfigError(
                f"{source}: evolution.u0: unknown '{self.u0_name}', "
                f"catalogue: {sorted(U0_CATALOGUE)}")
        self.t_samples = [float(t) for t in
                          evo.get("t_samples", [self.T / 2, self.T])]
        if self.T <= 0 or any(t <= 0 or t > self.T for t in self.t_samples) \
                or any(b <= a for a, b in
                       zip(self.t_samples, self.t_samples[1:])):
            raise ConfigError(
                f"{source}: evolution: t_samples must increase within (0, T]")

        self.seeds = [int(s) for s in data.get("seeds", [0])]
        if not self.seeds:
            raise ConfigError(f"{source}: seeds: need at least one")

        pairs = data.get("pairs", {})
        self.x_nodes_count = int(pairs.get("x_nodes", 32))
        box = pairs.get("p_box")
        self.p_box = None if box is None else (float(box[0]), float(box[1]))
        self.n_p = int(pairs.get("n_p", 2049))
        if self.x_nodes_count < 4 or self.n_p < 65:
            raise ConfigError(f"{source}: pairs: x_nodes >= 4, n_p >= 65")

        self.output = data.get("output", "runs/out")

    @classmethod
    def from_yaml(cls, path):
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh)
        except FileNotFoundError as err:
            raise ConfigError(f"{path}: {err.strerror}") from err
        except yaml.YAMLError as err:
            mark = getattr(err, "problem_mark", None)
            at = f" (line {mark.line + 1})" if mark else ""
            raise ConfigError(f"{path}{at}: {err}") from err
        return cls(data, source=os.path.basename(path))

    def u0_values(self, x):
        return U0_CATALOGUE[self.u0_name](x, self.solver_length)

    def x_nodes(self):
        """Medium sampling nodes for the pair analysis, one period."""
        return np.linspace(0.0, self.medium_spec.period,
                           self.x_nodes_count + 1)[:-1]
