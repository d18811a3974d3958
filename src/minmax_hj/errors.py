"""Exception types shared across the package.

The CLI maps these onto exit codes: hypothesis failures (ordering,
stability, monotonicity) exit 2, numerical failures exit 3, config
problems exit 4.
"""


class MinMaxHJError(Exception):
    """Base class for all package errors."""


class ProfileShapeError(MinMaxHJError, ValueError):
    """Profile data does not have the declared shape (valley/hill, coercive tails)."""


class OrderingViolationError(MinMaxHJError):
    """Family pieces violate the monotone ordering required by the nesting.

    Carries the failing level index and a witness point.
    """

    def __init__(self, kind, level, p, x, lhs, rhs):
        self.kind = kind          # "check" or "hat"
        self.level = level        # 1-based level of the violated comparison
        self.p = p
        self.x = x
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"{kind} pieces out of order at levels {level}/{level + 1}: "
            f"values {lhs:.6g} vs {rhs:.6g} at p={p}, x={x}"
        )


class StabilityError(MinMaxHJError):
    """A required pair is unstable; carries the witness report."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class MonotonicityError(MinMaxHJError):
    """Contact-constant chains are not monotone; names the failing indices."""

    def __init__(self, message, chain=None, index=None):
        self.chain = chain        # "upper" (max-type) or "lower" (min-type)
        self.index = index        # 1-based level where the chain fails
        super().__init__(message)


class BoxTooSmallError(MinMaxHJError, ValueError):
    """The gradient box does not contain the region the analysis needs."""

    def __init__(self, message, row=None):
        self.row = row    # first offending row of a batched pair analysis
        super().__init__(message)


class NonConvergenceError(MinMaxHJError):
    """Fixed-point iteration failed to reach tolerance; carries residual history."""

    def __init__(self, message, residual_history=None):
        self.residual_history = list(residual_history or [])
        super().__init__(message)


class SchemeParameterError(MinMaxHJError, ValueError):
    """Scheme parameters violate the monotonicity/CFL constraints."""


class ConfigError(MinMaxHJError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class RunLockError(MinMaxHJError):
    """Another process owns the requested run directory."""
