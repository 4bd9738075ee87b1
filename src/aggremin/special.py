"""Gamma-family functions and the Gauss hypergeometric function 2F1.

Everything here is real-argument and restricted to z in [0, 1], which is
all the radial potential formulas need.  ``hyp2f1`` covers that whole
interval.  For z in [0, 1) it is scipy's ``hyp2f1`` ufunc; on the
parameters the potentials use (a = -gamma/2, b = (2-gamma-d)/2, c in
{d/2, 2-gamma/2}, z up to 1 - 1e-12) it agrees with mpmath to better
than 1e-12 relative.  z = 1 itself is the Gauss summation formula
(DLMF 15.4.20), exact up to gamma-function rounding whenever c-a-b > 0.
A non-finite result raises NonConvergence.
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
    """Gauss hypergeometric function F(a,b;c;z) for z in [0, 1].

    At z = 1 this is Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)); the
    c-a-b > 0 gate lives in :class:`Hyp2F1Input`, and zeros of 1/Gamma
    at non-positive integer c-a or c-b are honored exactly.  A value
    that overflows (c-a-b strongly negative close to z = 1) raises
    NonConvergence.
    """
    a, b, c, z = inp.a, inp.b, inp.c, inp.z
    if z == 1.0:
        value = float(
            _sp.gamma(c) * _sp.gamma(c - a - b) * _sp.rgamma(c - a) * _sp.rgamma(c - b)
        )
    else:
        value = float(_sp.hyp2f1(a, b, c, z))
    if not math.isfinite(value):
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; {z!r}) is not finite")
    return value
