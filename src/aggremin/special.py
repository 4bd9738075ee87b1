"""Gamma-family functions and the Gauss hypergeometric function 2F1.

Everything here is real-argument and restricted to z in [0, 1], which is
all the radial potential formulas need.  ``_hyp2f1`` is the package's
one 2F1 evaluator: it takes F(a,b;c;z) at one z or over an array of z in
one call, behind one gate.  For z in (0, 1) the value is scipy's
``hyp2f1`` ufunc; on the parameters the potentials use (a = -gamma/2,
b = (2-gamma-d)/2, c in {d/2, 2-gamma/2}, z up to 1 - 1e-12) it agrees
with mpmath to better than 1e-12 relative.
z = 0 is exactly 1, and z = 1 is the Gauss summation formula
(DLMF 15.4.20), exact up to gamma-function rounding whenever c-a-b > 0.
A non-finite result raises NonConvergence.

The gamma function is ``math.gamma``, and ``digamma`` is a finite sum at
the integer and half-integer arguments the closed forms use, so the
closed forms of the power-law and logarithmic kernels need no scipy.
``scipy.special`` is imported at the first call that needs it: the 2F1
ufunc on a node inside (0, 1), or ``digamma`` at any other argument.
``import aggremin`` loads no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence, PoleError

__all__ = ["gamma_fn", "digamma"]


_EULER_GAMMA = 0.5772156649015329
_EULER_GAMMA_2LN2 = 1.9635100260214235  # euler_gamma + 2 ln 2, rounded once
# Largest integer or half-integer argument that digamma sums term by term;
# the closed forms stop at d of a few hundred, where gamma overflows.
_EXACT_DIGAMMA_MAX = 1000.0


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles excluded.

    Backed by ``math.gamma`` (Lanczos plus reflection): against mpmath its
    worst relative error on (-20.5, 60) is 7.8e-16.  A value beyond float
    range (x above 171.6, or |x| below 5.6e-309) is an infinity of Gamma's
    sign, and Gamma(-inf) is nan.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)
    except ValueError:
        return math.nan


def _rgamma(x: float) -> float:
    """1/Gamma(x): exactly 0.0 at the poles x = 0, -1, -2, ..., and an
    infinity where Gamma(x) underflows to zero (x below about -178)."""
    if _is_nonpositive_integer(x):
        return 0.0
    g = gamma_fn(x)
    return 1.0 / g if g else math.copysign(math.inf, g)


def digamma(x: float) -> float:
    """Logarithmic derivative Gamma'(x)/Gamma(x).

    At a positive integer or half-integer up to 1000, the arguments the
    closed forms use, it is a finite sum, rounded once by ``math.fsum``:
    psi(n) = -euler_gamma + H_(n-1) and
    psi(n + 1/2) = -euler_gamma - 2 ln 2 + sum_(k=1..n) 2/(2k-1); against
    mpmath these read within 1.9e-15 relative on 0.5, 1, ..., 200.5.  Any
    other argument takes scipy's ``psi``.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at {x}")
    if 0.0 < x <= _EXACT_DIGAMMA_MAX and (2.0 * x).is_integer():
        n = int(x)
        if x == n:
            return math.fsum([-_EULER_GAMMA] + [1.0 / k for k in range(1, n)])
        return math.fsum([-_EULER_GAMMA_2LN2] + [2.0 / (2 * k - 1) for k in range(1, n + 1)])
    from scipy.special import psi

    return float(psi(x))


def _hyp2f1(a: float, b: float, c: float, z) -> np.ndarray:
    """F(a,b;c;z) at every node of z in [0, 1], as an array of z's shape.

    The gate: a, b and c must be finite, c must avoid the non-positive
    integers, every node must lie in [0, 1], and a node at z = 1 needs
    c - a - b > 0 for the series to converge.  A refusal raises
    DomainError naming the first bad node.
    At z = 0 this is exactly 1.  At z = 1 it is
    Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)), and zeros of 1/Gamma at
    non-positive integer c-a or c-b are honored exactly.  Only the nodes
    inside (0, 1) reach scipy's ufunc.  A value that overflows (c-a-b
    strongly negative close to z = 1) raises NonConvergence, naming the
    first such node.
    """
    z = np.asarray(z, dtype=float)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"parameters must be finite, got a={a}, b={b}, c={c}")
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    outside = ~((z >= 0.0) & (z <= 1.0))
    if outside.any():
        raise DomainError(f"z={float(z[outside][0])} outside [0, 1]")
    at_one = z == 1.0
    if at_one.any() and not c - a - b > 0:
        raise DomainError(f"z=1 requires c-a-b > 0, got c-a-b={c - a - b}")
    value = np.ones(z.shape)
    if at_one.any():
        value[at_one] = gamma_fn(c) * gamma_fn(c - a - b) * _rgamma(c - a) * _rgamma(c - b)
    inside = (z > 0.0) & ~at_one
    if inside.any():
        from scipy.special import hyp2f1 as ufunc

        value[inside] = ufunc(a, b, c, z[inside])
    finite = np.isfinite(value)
    if not finite.all():
        bad = float(z[~finite][0])
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; {bad!r}) is not finite")
    return value

