"""Gamma-family functions and the Gauss hypergeometric function 2F1.

Everything here is real-argument and restricted to z in [0, 1], which is
all the radial potential formulas need.  ``_hyp2f1`` evaluates F(a,b;c;z)
over an array of z in one call, behind one vector gate; ``hyp2f1`` is its
scalar face, one validated :class:`Hyp2F1Input` at a time.  For z in
[0, 1) the value is scipy's ``hyp2f1`` ufunc; on the parameters the
potentials use (a = -gamma/2, b = (2-gamma-d)/2, c in {d/2, 2-gamma/2},
z up to 1 - 1e-12) it agrees with mpmath to better than 1e-12 relative.
z = 1 itself is the Gauss summation formula (DLMF 15.4.20), exact up to
gamma-function rounding whenever c-a-b > 0.  A non-finite result raises
NonConvergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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


def _check_hyp2f1(a: float, b: float, c: float, z: np.ndarray) -> None:
    """The domain of F(a,b;c;z) here, for every node of z at once.

    c must avoid the non-positive integers and z must lie in [0, 1];
    z = 1 additionally needs c - a - b > 0 for the series to converge.
    The first bad node is named.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    outside = ~((z >= 0.0) & (z <= 1.0))
    if outside.any():
        raise DomainError(f"z={float(z[outside][0])} outside [0, 1]")
    if (z == 1.0).any() and not c - a - b > 0:
        raise DomainError(f"z=1 requires c-a-b > 0, got c-a-b={c - a - b}")


def _hyp2f1(a: float, b: float, c: float, z) -> np.ndarray:
    """F(a,b;c;z) at every node of z in [0, 1], as an array of z's shape.

    At z = 1 this is Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)), and
    zeros of 1/Gamma at non-positive integer c-a or c-b are honored
    exactly.  A value that overflows (c-a-b strongly negative close to
    z = 1) raises NonConvergence, naming the first such node.
    """
    z = np.asarray(z, dtype=float)
    _check_hyp2f1(a, b, c, z)
    at_one = z == 1.0
    value = _sp.hyp2f1(a, b, c, np.where(at_one, 0.0, z))
    if at_one.any():
        gauss = _sp.gamma(c) * _sp.gamma(c - a - b) * _sp.rgamma(c - a) * _sp.rgamma(c - b)
        value = np.where(at_one, gauss, value)
    finite = np.isfinite(value)
    if not finite.all():
        bad = float(z[~finite][0])
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; {bad!r}) is not finite")
    return value


@dataclass(frozen=True)
class Hyp2F1Input:
    """Validated parameter/argument bundle (a, b, c, z) for F(a,b;c;z).

    The gate is :func:`_hyp2f1`'s: c must avoid the non-positive
    integers, z must lie in [0, 1], and z = 1 needs c - a - b > 0.
    """

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        _check_hyp2f1(self.a, self.b, self.c, np.asarray(self.z, dtype=float))


def hyp2f1(inp: Hyp2F1Input) -> float:
    """Gauss hypergeometric function F(a,b;c;z) for one z in [0, 1]; see :func:`_hyp2f1`."""
    return float(_hyp2f1(inp.a, inp.b, inp.c, inp.z))
