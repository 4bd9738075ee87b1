"""Shared parameter and result records.

The interaction kernel is W(r) = r^alpha/alpha - r^beta/beta with
-d < beta < alpha.  Either power may degenerate to a logarithm: the
convention r^gamma/gamma -> ln r as gamma -> 0 is selected explicitly
through the ``*_is_log`` flags rather than by a magic exponent value, so
that a caller who writes ``beta=0`` by accident gets an error instead of
a silently different model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_REGIME_TAGS = ("SphereTheorem1", "BallTheorem2", "Boundary", "OutOfScope")
_CANDIDATE_KINDS = ("UniformSphere", "BallProfile")


@dataclass(frozen=True)
class KernelParams:
    """Dimension and exponent pair defining the interaction kernel.

    ``alpha_is_log`` / ``beta_is_log`` must be set exactly when the
    corresponding exponent is 0.  Validation enforces -d < beta < alpha
    with the log flag standing for exponent value 0.
    """

    d: int
    alpha: float
    beta: float
    alpha_is_log: bool = False
    beta_is_log: bool = False

    def __post_init__(self):
        if not float(self.d).is_integer() or self.d < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        for name, value, flag in (
            ("alpha", self.alpha, self.alpha_is_log),
            ("beta", self.beta, self.beta_is_log),
        ):
            if flag and value != 0.0:
                raise DomainError(f"{name}_is_log requires {name} == 0, got {value}")
            if not flag and value == 0.0:
                raise DomainError(
                    f"{name} == 0 means a logarithmic kernel; set {name}_is_log=True"
                )
        if not -self.d < self.beta:
            raise DomainError(f"need beta > -d, got beta={self.beta}, d={self.d}")
        if not self.beta < self.alpha:
            raise DomainError(
                f"need beta < alpha, got beta={self.beta}, alpha={self.alpha}"
            )


@dataclass(frozen=True)
class CandidateMinimizer:
    """The closed-form minimizing measure that ``candidate_for`` picks.

    ``UniformSphere``: the normalized uniform measure on the sphere of
    radius ``radius``.  ``BallProfile``: the probability density
    proportional to (radius^2 - |x|^2)^((2-beta-d)/2) on the open ball;
    :func:`~aggremin.closed_form.ball_density` gives its values.  Both
    are centered at the origin; translates are equally valid.  The
    radius must be positive and finite.
    """

    kind: str
    radius: float

    def __post_init__(self):
        if self.kind not in _CANDIDATE_KINDS:
            raise DomainError(f"unknown candidate kind {self.kind!r}")
        if not self.radius > 0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        if self.radius == math.inf:
            raise DomainError(f"radius must be finite, got {self.radius}")


@dataclass(frozen=True)
class RegimeTag:
    """Classification of (d, alpha, beta): which closed form applies."""

    tag: str
    detail: str = ""

    def __post_init__(self):
        if self.tag not in _REGIME_TAGS:
            raise DomainError(f"unknown regime tag {self.tag!r}")
