import collections
import contextlib
import io

import numpy as np
import pytest

from minmax_hj.cli import main
from minmax_hj.effective import piece_effective_curve
from minmax_hj.family import MinMaxFamily, Piece
from minmax_hj.media import MediumSpec, medium_table, sample_realization
from minmax_hj.profiles import AbsShift, NegatedAbs


@pytest.fixture
def sin_sq_medium():
    spec = MediumSpec("periodic", period=1.0,
                      channels=[{"formula": "sin_sq"}])
    return sample_realization(spec, 0)


@pytest.fixture
def two_channel_medium():
    spec = MediumSpec("periodic", period=1.0, channels=[
        {"formula": "sin_sq"},
        {"formula": "cos_sq", "amplitude": 0.5},
        {"formula": "sin_sq", "amplitude": 1.0, "offset": 0.5},
    ])
    return sample_realization(spec, 0)


@pytest.fixture
def base_family():
    """One level: check |p| - 1 + V(x), hat 1 - |p| + V(x), V = sin^2(pi x)."""
    check = Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0)
    hat = Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0)
    return MinMaxFamily([check], [hat])


@pytest.fixture
def two_level_family():
    """Two levels over channels V0 = sin^2, V1 = cos^2 / 2.

    check_1 = |p| - 1 + V0   hat_1 = 1 - |p| + V0
    check_2 = |p| - 3 + V1   hat_2 = 3 - |p| + V1
    Ordered, all pairs stable, contact chains strictly monotone.
    """
    checks = [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
              Piece(AbsShift(0.0, 1.0, -3.0), "additive", 1)]
    hats = [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
            Piece(NegatedAbs(0.0, 1.0, 3.0), "additive", 1)]
    return MinMaxFamily(checks, hats)


def random_piece(rng, medium, tag):
    center = rng.uniform(-1.5, 1.5, size=1)[0]
    slope = rng.uniform(0.3, 2.0)
    offset = rng.uniform(-2.0, 2.0)
    cls = AbsShift if tag == "quasiconvex" else NegatedAbs
    profile = cls(center, slope, offset)
    mode = rng.integers(0, 4)
    if mode == 0:
        return Piece(profile)
    if mode == 1:
        return Piece(profile, "additive", 0)
    if mode == 2:
        return Piece(profile, "additive", 1, scale=float(rng.uniform(0.2, 1.5)))
    return Piece(profile, "amplitude", 2, scale=float(rng.uniform(0.5, 1.5)))


def piece_curve(piece, medium, p, provenance="oracle"):
    """The exact effective curve of one piece in ``medium``: the oracle
    on the piece's coefficients at every node of ``medium_table``."""
    x = medium_table(medium)
    a, b, _ = np.broadcast_arrays(*piece.coefficients(x, medium), x)
    return piece_effective_curve(piece.profile, a, b, p, provenance)


def random_family(rng, ell, medium):
    checks = [random_piece(rng, medium, "quasiconvex") for _ in range(ell)]
    hats = [random_piece(rng, medium, "quasiconcave") for _ in range(ell)]
    return MinMaxFamily(checks, hats)


class CountingMedium:
    """A medium realization that counts its ``evaluate_channel`` calls
    per channel in ``calls``; everything else is the realization's."""

    def __init__(self, medium):
        self._medium = medium
        self.calls = {}

    def evaluate_channel(self, idx, x):
        self.calls[idx] = self.calls.get(idx, 0) + 1
        return self._medium.evaluate_channel(idx, x)

    def __getattr__(self, name):
        return getattr(self._medium, name)


class _Tee(io.StringIO):
    """A captured stream that also copies every write into ``shared``."""

    def __init__(self, shared):
        super().__init__()
        self._shared = shared

    def write(self, text):
        self._shared.write(text)
        return super().write(text)


# one ``minmax-hj`` command run in this process: ``output`` holds its
# stdout and stderr interleaved as written, ``exception`` the SystemExit
# of a nonzero exit (else None)
CliResult = collections.namedtuple(
    "CliResult", "exit_code output stdout stderr exception")


def run_cli(args):
    """Run ``minmax_hj.cli.main`` on the argument list ``args`` with
    stdout and stderr captured; any other exception propagates."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, prog_name="minmax-hj")
        except SystemExit as stop:
            code = stop.code or 0
            exception = stop if code else None
    return CliResult(code, output.getvalue(), out.getvalue(),
                     err.getvalue(), exception)
