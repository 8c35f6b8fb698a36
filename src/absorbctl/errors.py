"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid construction argument, config key, or inconsistent parameter set."""


class CoverageError(ValueError):
    """A history lookup or integral was requested outside the recorded interval."""


class DegenerateGradientError(RuntimeError):
    """The damping direction is undefined: outside the absorbing set the
    Lyapunov gradient is numerically zero."""


class InsufficientDataError(ValueError):
    """Not enough usable rows for a fit."""


class NonFiniteError(RuntimeError):
    """A NaN or infinite number where a finite one is required: a sampled
    check's margin, or a simulated state, also where a callable overflowed."""
