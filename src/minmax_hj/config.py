"""Experiment configuration: YAML in, validated objects out.

A config names everything a run needs: the piece family, the medium,
the solver and gradient grids, the discount and oscillation schedules,
the initial condition (from a fixed catalogue of bounded Lipschitz
functions), seeds, and the output directory. Validation happens at load
time, and only there: the package's constructors and solvers take a
loaded config as given. An unknown key, a value of the wrong type or an
inconsistent value is rejected, and every failure carries the offending
field path.
"""

import copy
import math
import os
import sys

import numpy as np
import yaml

from .errors import ConfigError
from .family import LevelHamiltonian, MinMaxFamily, Piece
from .media import MediumSpec
from .profiles import QUASICONCAVE, QUASICONVEX, profile_from_dict


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

# libyaml's parser, several times faster than the pure-Python one; the
# latter only where PyYAML was built without libyaml
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# most gradient samples a p-axis may hold; the axis is built at load
_MAX_P_COUNT = 10001

# what a converter or a constructor raises for a value of the wrong kind
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError
    v = float(v)
    if not math.isfinite(v):
        raise ValueError
    return v


def _whole(v):
    if not _number(v).is_integer():
        raise ValueError
    return int(v)


def _of_type(cls):
    def convert(v):
        if not isinstance(v, cls):
            raise TypeError
        return v
    return convert


def _list_of(item):
    def convert(v):
        return [item(x) for x in _of_type(list)(v)]
    return convert


# the value kinds a field can have: (what it must be, converter)
NUMBER = ("a finite number", _number)
WHOLE = ("a whole number", _whole)
TEXT = ("a string", _of_type(str))
MAPPING = ("a mapping", _of_type(dict))
LIST = ("a list", _of_type(list))
NUMBERS = ("a list of finite numbers", _list_of(_number))
WHOLES = ("a list of whole numbers", _list_of(_whole))

_REQUIRED = object()


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _as(value, field, kind):
    """``value`` converted to ``kind``; a mismatch names ``field``."""
    what, convert = kind
    try:
        return convert(value)
    except _BAD_VALUE:
        raise ConfigError(f"{field}: {value!r} is not {what}") from None


def _read(block, key, path, kind, default=_REQUIRED):
    """``block[key]`` converted to ``kind``, or ``default`` when the key
    is absent; an explicit null reads as a default of None. ``path``
    names the block in errors ("" at the top level)."""
    field = _join(path, key)
    if key not in block or (block[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"{field}: missing required field")
        return default
    return _as(block[key], field, kind)


# Keys each mapping may hold; anything else is a typo or a leftover
# field and is rejected rather than silently ignored.
_KEYS = {
    "": {"family", "medium", "solver", "p_axis", "lambda_schedule",
         "eps_schedule", "evolution", "seeds", "pairs", "output"},
    "family": {"checks", "hats"},
    "medium": {"kind", "period", "dim", "channels"},
    "solver": {"n", "length", "theta"},
    "p_axis": {"min", "max", "count"},
    "evolution": {"T", "u0", "t_samples"},
    "pairs": {"x_nodes", "p_box", "n_p"},
}
_PIECE_KEYS = {"profile", "coupling", "channel", "scale"}
_ABS_FIELDS = {"center": NUMBER, "slope": NUMBER, "offset": NUMBER}
_PROFILE_FIELDS = {
    "abs_shift": _ABS_FIELDS,
    "negated_abs": _ABS_FIELDS,
    "piecewise_monotone": {"breaks": NUMBERS, "values": NUMBERS,
                           "direction": TEXT},
}
# profile fields without a default (offset is 0, direction "valley")
_PROFILE_REQUIRED = {"center", "slope", "breaks", "values"}
_CHANNEL_FIELDS = {
    "periodic": {"formula": TEXT, "value": NUMBER, "amplitude": NUMBER,
                 "offset": NUMBER, "shift": NUMBER},
    "checkerboard": {"cell": NUMBER, "low": NUMBER, "high": NUMBER},
    "quasiperiodic": {"freqs": NUMBERS, "amps": NUMBERS, "phases": NUMBERS,
                      "offset": NUMBER},
}


def _reject_unknown(block, path, allowed, why=""):
    for key in sorted(set(block) - set(allowed), key=str):
        raise ConfigError(f"{_join(path, key)}: unknown key{why}")


def _section(data, name, default=_REQUIRED):
    """A top-level mapping, its keys checked against ``_KEYS``."""
    block = _read(data, name, "", MAPPING, default)
    _reject_unknown(block, name, _KEYS[name])
    return block


def _is_whole(ratio):
    if not math.isfinite(ratio):
        return False
    k = round(ratio)
    return k >= 1 and abs(ratio - k) <= 1e-9 * ratio


def _medium(data):
    med = _section(data, "medium")
    # the key stays for configs that state it; the medium is a line
    if med.get("dim", 1) != 1:
        raise ConfigError(f"medium.dim: {med['dim']!r}, but the medium is "
                          f"one-dimensional (dim: 1)")
    kind = _read(med, "kind", "medium", TEXT, "periodic")
    if kind not in _CHANNEL_FIELDS:
        raise ConfigError(f"medium.kind: unknown kind {kind!r}")
    period = _read(med, "period", "medium", NUMBER, 1.0)
    channels = _read(med, "channels", "medium", LIST)
    for i, ch in enumerate(channels):
        at = f"medium.channels[{i}]"
        _as(ch, at, MAPPING)
        _reject_unknown(ch, at, _CHANNEL_FIELDS[kind],
                        f" for medium.kind {kind!r}")
        for key in ch:
            _read(ch, key, at, _CHANNEL_FIELDS[kind][key])
    # MediumSpec names the field of a bad value itself
    return MediumSpec(kind, period, channels)


def _profile(block, at, role):
    """The profile mapping ``block`` at ``at`` as a profile object; its
    convexity must be the one family.<role> needs."""
    kind = _read(block, "kind", at, TEXT)
    if kind not in _PROFILE_FIELDS:
        raise ConfigError(f"{at}.kind: unknown kind {kind!r}")
    fields = _PROFILE_FIELDS[kind]
    _reject_unknown(block, at, {"kind", *fields}, f" for {at}.kind {kind!r}")
    args = {key: _read(block, key, at, what)
            for key, what in fields.items()
            if key in block or key in _PROFILE_REQUIRED}
    if kind != "piecewise_monotone":
        if not args["slope"] > 0:
            raise ConfigError(f"{at}.slope: {args['slope']!r} is not positive")
        shape = f"{at}.kind"
    else:
        breaks, values = args["breaks"], args["values"]
        if len(breaks) < 2 or len(breaks) != len(values):
            raise ConfigError(f"{at}: need {at}.breaks and {at}.values of "
                              f"one length, at least two")
        if any(b <= a for a, b in zip(breaks, breaks[1:])):
            raise ConfigError(f"{at}.breaks: {breaks!r} do not increase "
                              f"strictly")
        if args.get("direction", "valley") not in ("valley", "hill"):
            raise ConfigError(f"{at}.direction: {args['direction']!r} is "
                              f"not 'valley' or 'hill'")
        shape = f"{at}.direction"
    try:
        profile = profile_from_dict(dict(args, kind=kind))
    except _BAD_VALUE as err:
        # left to fail: the slope pattern of the values for the direction
        raise ConfigError(f"{at}.values: {err} (see {shape})") from err
    want = QUASICONVEX if role == "checks" else QUASICONCAVE
    if profile.tag != want:
        raise ConfigError(f"{shape}: makes a {profile.tag} profile, but "
                          f"family.{role} must be {want}")
    return profile


def _pieces(fam, role, spec):
    """Build the pieces of family.checks or family.hats on the medium
    ``spec``; a bad value names its field."""
    n_channels = len(spec.channels)
    pieces = []
    for i, entry in enumerate(_read(fam, role, "family", LIST)):
        at = f"family.{role}[{i}]"
        _as(entry, at, MAPPING)
        _reject_unknown(entry, at, _PIECE_KEYS)
        profile = _profile(_read(entry, "profile", at, MAPPING),
                           f"{at}.profile", role)
        coupling = _read(entry, "coupling", at, TEXT, None)
        channel = _read(entry, "channel", at, WHOLE, None)
        scale = _read(entry, "scale", at, NUMBER, 1.0)
        if coupling not in (None, "additive", "amplitude"):
            raise ConfigError(f"{at}.coupling: unknown coupling {coupling!r}")
        if coupling is not None and channel is None:
            raise ConfigError(f"{at}.channel: missing, {at}.coupling "
                              f"{coupling!r} needs a medium channel")
        if channel is not None and not 0 <= channel < n_channels:
            raise ConfigError(f"{at}.channel: channel {channel} not in "
                              f"medium (has {n_channels})")
        if coupling == "amplitude" and not scale > 0:
            raise ConfigError(f"{at}.scale: {scale!r} is not positive, as "
                              f"{at}.coupling 'amplitude' needs")
        if coupling == "amplitude" and spec.kind == "periodic":
            # a periodic channel attains its bounds, so every run meets a
            # coefficient <= 0; a drawn medium is checked where it is bound
            low = spec.channel_bounds(channel)[0]
            if low <= 0:
                raise ConfigError(
                    f"{at}.channel: medium.channels[{channel}] reaches "
                    f"{low:g} <= 0, but {at}.coupling 'amplitude' needs a "
                    f"positive coefficient")
        pieces.append(Piece(profile, coupling, channel, scale))
    return pieces


def _decreasing(vals, field):
    if len(vals) < 1 or any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{field}: schedule must be strictly decreasing")
    if any(v <= 0 for v in vals):
        raise ConfigError(f"{field}: schedule entries must be positive")
    return vals


class ExperimentConfig:
    """Validated experiment description; see configs/ for examples."""

    def __init__(self, data, source="<config>"):
        self.raw = copy.deepcopy(data)
        try:
            self._load(data)
        except ConfigError as err:
            raise ConfigError(f"{source}: {err}") from err

    def _load(self, data):
        if not isinstance(data, dict):
            raise ConfigError("top level must be a mapping")
        _reject_unknown(data, "", _KEYS[""])

        self.medium_spec = _medium(data)

        fam = _section(data, "family")
        checks = _pieces(fam, "checks", self.medium_spec)
        hats = _pieces(fam, "hats", self.medium_spec)
        if len(checks) != len(hats) or not checks:
            raise ConfigError(f"family: need as many family.checks as "
                              f"family.hats, at least one")
        self.family = MinMaxFamily(checks, hats)

        sol = _section(data, "solver")
        self.solver_n = _read(sol, "n", "solver", WHOLE)
        self.solver_length = _read(sol, "length", "solver", NUMBER, 1.0)
        self.theta = _read(sol, "theta", "solver", NUMBER, None)
        if self.solver_n < 16:
            raise ConfigError(f"solver.n: {self.solver_n} is below 16")
        if self.solver_length <= 0:
            raise ConfigError(
                f"solver.length: {self.solver_length:g} is not positive")
        if self.theta is not None and self.theta <= 0:
            raise ConfigError(
                f"solver.theta: {self.theta!r} is not a positive number")
        if self.theta is not None:
            # the default theta; below it the scheme is not monotone
            bound = LevelHamiltonian(self.family).lipschitz(self.medium_spec)
            if self.theta < bound:
                raise ConfigError(
                    f"solver.theta: {self.theta:g} is below {bound:g}, the "
                    f"family's Lipschitz bound in p; the Lax-Friedrichs "
                    f"scheme is monotone only for theta >= that bound")
        period = self.medium_spec.period
        # a partial period puts a seam in the medium: another equation
        if not _is_whole(self.solver_length / period):
            raise ConfigError(
                f"solver.length: {self.solver_length:g} is not a whole "
                f"multiple of medium.period {period:g}")

        pax = _section(data, "p_axis")
        lo = _read(pax, "min", "p_axis", NUMBER)
        hi = _read(pax, "max", "p_axis", NUMBER)
        count = _read(pax, "count", "p_axis", WHOLE)
        if not lo < hi:
            raise ConfigError(
                f"p_axis: need p_axis.min < p_axis.max, got {lo:g}, {hi:g}")
        if not 2 <= count <= _MAX_P_COUNT:
            raise ConfigError(
                f"p_axis.count: {count} is not in [2, {_MAX_P_COUNT}]")
        self.p_axis = np.linspace(lo, hi, count)
        # min < max can still round to a repeated sample
        if np.any(np.diff(self.p_axis) <= 0):
            raise ConfigError(
                f"p_axis: p_axis.count {count} samples from p_axis.min "
                f"{lo!r} to p_axis.max {hi!r} do not increase strictly")

        self.lambda_schedule = _decreasing(
            _read(data, "lambda_schedule", "", NUMBERS), "lambda_schedule")
        if len(self.lambda_schedule) < 3:
            raise ConfigError("lambda_schedule: need >= 3 entries")

        h = self.solver_length / self.solver_n
        self.eps_schedule = _decreasing(
            _read(data, "eps_schedule", "", NUMBERS, [0.25]), "eps_schedule")
        for eps in self.eps_schedule:
            if eps < 2.0 * h:
                raise ConfigError(
                    f"eps_schedule: eps={eps:g} under-resolved, need eps >= "
                    f"2h = 2 * solver.length / solver.n = {2 * h:g}")
            if not _is_whole(self.solver_length / (eps * period)):
                raise ConfigError(
                    f"eps_schedule: eps={eps:g} does not fit the domain: "
                    f"solver.length / (eps * medium.period) = "
                    f"{self.solver_length / (eps * period):g} is not whole")

        evo = _section(data, "evolution", {})
        self.T = _read(evo, "T", "evolution", NUMBER, 0.5)
        self.u0_name = _read(evo, "u0", "evolution", TEXT, "clipped_abs")
        if self.u0_name not in U0_CATALOGUE:
            raise ConfigError(
                f"evolution.u0: unknown '{self.u0_name}', "
                f"catalogue: {sorted(U0_CATALOGUE)}")
        if self.T <= 0:
            raise ConfigError(f"evolution.T: {self.T:g} is not positive")
        self.t_samples = _read(evo, "t_samples", "evolution", NUMBERS,
                               [self.T / 2, self.T])
        ts = self.t_samples
        if not ts or any(t <= 0 or t > self.T for t in ts) \
                or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigError(
                f"evolution.t_samples: must increase within (0, T], "
                f"T = evolution.T = {self.T:g}")

        self.seeds = _read(data, "seeds", "", WHOLES, [0])
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds: need at least one, none negative")

        # the contact analysis is exact and reads no value of this
        # section; configs written for the gradient-grid scan still load
        for key in _section(data, "pairs", {}):
            print(f"config note: pairs.{key} is ignored; the contact "
                  f"analysis is exact", file=sys.stderr)

        self.output = _read(data, "output", "", TEXT, "runs/out")
        if not self.output:
            raise ConfigError("output: need a directory path")

    @classmethod
    def from_yaml(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = yaml.load(fh, Loader=YAML_LOADER)
        except OSError as err:      # missing, a directory, unreadable
            raise ConfigError(f"{path}: {err.strerror}") from err
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text ({err.reason})") \
                from err
        except yaml.YAMLError as err:
            mark = getattr(err, "problem_mark", None)
            at = f" (line {mark.line + 1})" if mark else ""
            raise ConfigError(f"{path}{at}: {err}") from err
        return cls(data, source=os.path.basename(path))

    def u0_values(self, x):
        return U0_CATALOGUE[self.u0_name](x, self.solver_length)
