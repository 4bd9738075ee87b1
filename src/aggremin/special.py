"""Gamma-family functions and the Gauss hypergeometric function 2F1.

Everything here is real-argument and restricted to z in [0, 1], which is
all the radial potential formulas need.  F(a,b;c;z) is evaluated by
scipy's ``hyp2f1`` ufunc for z in [0, 1); on the parameters the
potentials use (a = -gamma/2, b = (2-gamma-d)/2, c in {d/2, 2-gamma/2},
z up to 1 - 1e-12) it agrees with mpmath to better than 1e-12 relative.
A non-finite result raises NonConvergence.  z = 1 itself goes through
the Gauss summation formula, which is exact up to gamma-function
rounding whenever c-a-b > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sp

from .errors import DomainError, NonConvergence, PoleError

__all__ = [
    "Hyp2F1Input",
    "gamma_fn",
    "digamma",
    "hyp2f1",
    "hyp2f1_at_one",
]


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles excluded.

    Backed by scipy's implementation (Lanczos plus reflection), which is
    comfortably within 1e-13 relative error on |x| <= 50.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x}")
    return float(_sp.gamma(x))


def digamma(x: float) -> float:
    """Logarithmic derivative Gamma'(x)/Gamma(x)."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at {x}")
    return float(_sp.psi(x))


@dataclass(frozen=True)
class Hyp2F1Input:
    """Validated parameter/argument bundle (a, b, c, z) for F(a,b;c;z).

    c must avoid the non-positive integers and z must lie in [0, 1];
    z = 1 additionally needs c - a - b > 0 for the series to converge.
    """

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        if _is_nonpositive_integer(self.c):
            raise DomainError(f"c={self.c} is a non-positive integer")
        if not 0.0 <= self.z <= 1.0:
            raise DomainError(f"z={self.z} outside [0, 1]")
        if self.z == 1.0 and not self.c - self.a - self.b > 0:
            raise DomainError(
                "z=1 requires c-a-b > 0, got "
                f"c-a-b={self.c - self.a - self.b}"
            )



def hyp2f1(inp: Hyp2F1Input) -> float:
    """Gauss hypergeometric series F(a,b;c;z) for z in [0, 1).

    The boundary value lives in :func:`hyp2f1_at_one`; asking for z = 1
    here is an error rather than a silent detour.  A value that overflows
    (c-a-b strongly negative close to z = 1) raises NonConvergence.
    """
    if inp.z == 1.0:
        raise DomainError("use hyp2f1_at_one for the z=1 boundary value")
    a, b, c, z = inp.a, inp.b, inp.c, inp.z
    value = float(_sp.hyp2f1(a, b, c, z))
    if not math.isfinite(value):
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; {z!r}) is not finite")
    return value


def hyp2f1_at_one(a: float, b: float, c: float) -> float:
    """Boundary value F(a,b;c;1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)).

    Requires c - a - b > 0 (else the series diverges at 1).  Zeros of
    1/Gamma at non-positive integer c-a or c-b are honored exactly.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    if not c - a - b > 0:
        raise DomainError(f"need c-a-b > 0 at z=1, got {c - a - b}")
    # Gauss summation; rgamma turns denominator poles into exact zeros.
    return float(
        _sp.gamma(c) * _sp.gamma(c - a - b) * _sp.rgamma(c - a) * _sp.rgamma(c - b)
    )
