"""Exception types shared across the package.

Every error is an ``AggreminError`` and also a ``ValueError`` or a
``RuntimeError``, and that second base says what went wrong: a
``ValueError`` means the input was refused (``DomainError``,
``PoleError``, ``RegimeError``, ``IllConditioned``), a ``RuntimeError``
that the computation failed (``NonConvergence``, ``StallError``,
``QuadratureFailure``).  The command line maps the first to exit code 2
and the second to exit code 3.  ``__all__`` lists the eight classes; as
in every module, it is the one list of the module's public names, and
the package re-exports it whole.
"""

__all__ = [
    "AggreminError",
    "DomainError",
    "PoleError",
    "RegimeError",
    "NonConvergence",
    "IllConditioned",
    "QuadratureFailure",
    "StallError",
]


class AggreminError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AggreminError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """A gamma-family function was evaluated at a non-positive integer."""


class RegimeError(AggreminError, ValueError):
    """Parameters do not match any supported closed-form regime."""


class NonConvergence(AggreminError, RuntimeError):
    """An iteration or series did not converge within its budget.

    ``partial`` optionally carries a best-so-far result for callers that can
    use one (see ``flow.run_to_convergence``).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class IllConditioned(AggreminError, ValueError):
    """The requested evaluation would lose most of its precision.

    Raised instead of silently returning a value destroyed by cancellation.
    The main offender is a repulsion exponent within 1e-6 of zero used
    without the logarithmic flag: 1/beta amplifies rounding by ~1e6 or
    worse, while the log mode is exact there.
    """


class QuadratureFailure(AggreminError, RuntimeError):
    """Adaptive quadrature could not reach its error target."""


class StallError(AggreminError, RuntimeError):
    """The backtracking line search underflowed the step size."""
