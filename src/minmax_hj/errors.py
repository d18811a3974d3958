"""Exception types shared across the package.

The CLI maps these onto exit codes: ``HypothesisError`` (ordering,
stability or contact-chain monotonicity fails, with its witness) exits
2; ``ConfigError`` and ``RunLockError`` (a run directory that cannot be
made, or whose lock another run holds) exit 4; every other package
error is a numerical failure and exits 3.
"""


class MinMaxHJError(Exception):
    """Base class for all package errors."""


class ProfileShapeError(MinMaxHJError, ValueError):
    """An effective curve or a piece lacks the shape it declares: a
    curve's tails or continuity, or an amplitude coefficient <= 0 that
    would make a piece's convexity tag wrong."""


class HypothesisError(MinMaxHJError):
    """A gated hypothesis fails; ``witness`` is the evidence (the failing
    sample of an ordering check, a dict of ``kind``, ``level``, ``p``,
    ``x``, ``lhs`` and ``rhs``, to which the gate adds the ``seed``; the
    unstable pairs; or the chain failures), as JSON-ready data."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NonConvergenceError(MinMaxHJError):
    """A solve failed to reach its tolerance; the message names the row."""


class SchemeParameterError(MinMaxHJError, ValueError):
    """Scheme parameters violate the monotonicity/CFL constraints."""


class ConfigError(MinMaxHJError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class RunLockError(MinMaxHJError):
    """The run directory cannot be made, or another run holds its lock."""
