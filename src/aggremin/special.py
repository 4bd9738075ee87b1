"""Gamma-family functions and Gauss/generalized hypergeometric series.

Everything here is real-argument and restricted to z in [0, 1], which is
all the radial potential formulas need.  F(a,b;c;z) is evaluated by
scipy's ``hyp2f1`` ufunc for z in [0, 1); on the parameters the
potentials use (a = -gamma/2, b = (2-gamma-d)/2, c in {d/2, 2-gamma/2},
z up to 1 - 1e-12) it agrees with mpmath to better than 1e-12 relative.
A non-finite result raises NonConvergence.  z = 1 itself goes through
the Gauss summation formula, which is exact up to gamma-function
rounding whenever c-a-b > 0.

The series scipy lacks (3F2, and the log-kernel series of
``potentials``) share one blocked summation loop, ``_blocked_sum``;
each caller decides how to close a sum that reaches the term cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonConvergence, PoleError

__all__ = [
    "Hyp2F1Input",
    "gamma_fn",
    "digamma",
    "pochhammer",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_deriv",
    "hyp3f2",
]

_EPS = float(np.finfo(float).eps)
SERIES_CAP = 2_000_000
_INT_TOL = 1e-12


def _is_nonpositive_integer(x: float, tol: float = 0.0) -> bool:
    if tol == 0.0:
        return x <= 0 and float(x).is_integer()
    return x <= 0.5 and abs(x - round(x)) <= tol and round(x) <= 0


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


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1.

    Computed as a plain product so that integer zeros (e.g. (-2)_3) come
    out exactly zero.
    """
    if n < 0 or not float(n).is_integer():
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {n}")
    out = 1.0
    x = float(x)
    for k in range(int(n)):
        out *= x + k
    return out


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


def _blocked_sum(ratio, label: str):
    """Partial sum of t_0 + t_1 + ... with t_0 = 1, t_{k+1} = ratio(k) t_k.

    ``ratio`` must accept a float ndarray of indices k.  Summation stops
    once three consecutive terms fall below eps times the running
    partial sum, or after SERIES_CAP terms.  Returns
    ``(partial_sum, last_term, last_index, converged)``; the caller
    closes a truncated sum with its own tail rule or raises.  A
    non-finite partial sum raises NonConvergence.  Blocks keep the inner
    arithmetic in numpy, which matters for the slowly decaying series.
    """
    total = 1.0
    carry = 1.0
    k0 = 0
    block = 64
    while k0 < SERIES_CAP:
        m = min(block, SERIES_CAP - k0)
        k = np.arange(k0, k0 + m, dtype=float)
        terms = carry * np.cumprod(ratio(k))
        partial = total + np.cumsum(terms)
        small = np.abs(terms) <= _EPS * np.abs(partial)
        hits = np.nonzero(small[:-2] & small[1:-1] & small[2:])[0]
        if hits.size:
            j = hits[0] + 2
            return float(partial[j]), float(terms[j]), k0 + j + 1, True
        total = float(partial[-1])
        carry = float(terms[-1])
        k0 += m
        if carry == 0.0:
            return total, 0.0, k0, True
        if not math.isfinite(total):
            raise NonConvergence(f"{label}: series blew up (non-finite partial sum)")
        block = min(block * 2, 65536)
    return total, carry, k0, False


def _gauss_at_one(a: float, b: float, c: float) -> float:
    # Gauss summation; rgamma turns denominator poles into exact zeros.
    return float(
        _sp.gamma(c) * _sp.gamma(c - a - b) * _sp.rgamma(c - a) * _sp.rgamma(c - b)
    )


def _gauss_series(a: float, b: float, c: float, z: float) -> float:
    """Internal F(a,b;c;z) for z in [0, 1); c checked by the caller."""
    value = float(_sp.hyp2f1(a, b, c, z))
    if not math.isfinite(value):
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; {z!r}) is not finite")
    return value


def hyp2f1(inp: Hyp2F1Input) -> float:
    """Gauss hypergeometric series F(a,b;c;z) for z in [0, 1).

    The boundary value lives in :func:`hyp2f1_at_one`; asking for z = 1
    here is an error rather than a silent detour.  A value that overflows
    (c-a-b strongly negative close to z = 1) raises NonConvergence.
    """
    if inp.z == 1.0:
        raise DomainError("use hyp2f1_at_one for the z=1 boundary value")
    return _gauss_series(inp.a, inp.b, inp.c, inp.z)


def hyp2f1_at_one(a: float, b: float, c: float) -> float:
    """Boundary value F(a,b;c;1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)).

    Requires c - a - b > 0 (else the series diverges at 1).  Zeros of
    1/Gamma at non-positive integer c-a or c-b are honored exactly.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    if not c - a - b > 0:
        raise DomainError(f"need c-a-b > 0 at z=1, got {c - a - b}")
    return _gauss_at_one(a, b, c)


def hyp2f1_deriv(inp: Hyp2F1Input, order: int) -> float:
    """First or second z-derivative of F(a,b;c;z) via parameter shifts.

    d/dz F(a,b;c;z) = (ab/c) F(a+1,b+1;c+1;z), applied once or twice.
    At z = 1 the shifted boundary values are used; they only extend
    continuously when c-a-b exceeds the derivative order, so anything
    with c-a-b in (0, order] is refused.
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    a, b, c, z = inp.a, inp.b, inp.c, inp.z
    coef = a * b / c
    if order == 2:
        coef *= (a + 1) * (b + 1) / (c + 1)
    k = order
    if z == 1.0:
        if not c - a - b > order:
            raise DomainError(
                f"derivative of order {order} at z=1 needs c-a-b > {order}"
            )
        return coef * _gauss_at_one(a + k, b + k, c + k)
    return coef * _gauss_series(a + k, b + k, c + k, z)


def _hyp3f2_tail(t_last: float, n_last: float, s3: float) -> float:
    """Euler-Maclaurin estimate of sum_{n > n_last} t_n, t_n ~ C n^(-1-s3).

    ``t_last`` is the final term already accumulated.  The estimate is
    accurate to O(1/n_last) relative to the tail, far below the
    rounding floor of the truncated sum itself.
    """
    n = n_last
    return t_last * (n / s3 - 0.5 + (1.0 + s3) / (12.0 * n))


def hyp3f2(a0: float, a1: float, a2: float, b0: float, b1: float, z: float) -> float:
    """Generalized hypergeometric 3F2(a0,a1,a2; b0,b1; z) on [0, 1].

    Direct summation; a non-positive integer numerator parameter makes
    the ratio vanish exactly, so terminating series stop at their last
    term.  At z = 1 convergence needs s3 = b0+b1-a0-a1-a2 > 0 and the
    terms only decay like n^(-1-s3), so a sum still open at the term cap
    is finished with an Euler-Maclaurin tail estimate (absolute accuracy
    around 1e-11 for s3 of order one).
    """
    for b_ in (b0, b1):
        if _is_nonpositive_integer(b_, _INT_TOL):
            raise DomainError(f"denominator parameter {b_} is a non-positive integer")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z={z} outside [0, 1]")
    if z == 0.0:
        return 1.0
    s3 = b0 + b1 - a0 - a1 - a2
    if z == 1.0 and not s3 > 0:
        raise DomainError(f"3F2 at z=1 needs sum(b)-sum(a) > 0, got {s3}")

    def ratio(n):
        return (a0 + n) * (a1 + n) * (a2 + n) / ((b0 + n) * (b1 + n) * (1.0 + n)) * z

    total, last, k, converged = _blocked_sum(ratio, "hyp3f2")
    if converged:
        return total
    if z < 1.0:
        raise NonConvergence(f"hyp3f2: no convergence within {SERIES_CAP} terms")
    return total + _hyp3f2_tail(last, float(k), s3)
