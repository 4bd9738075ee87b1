"""Closed-form radial potentials of the two candidate measures.

The attractive-repulsive kernel is W(r) = r^alpha/alpha - r^beta/beta,
with r^gamma/gamma read as ln r when the exponent degenerates to 0.
Two families of candidate minimizers appear:

* the uniform probability measure on a sphere of radius R, whose
  potential is radial and expressible through the profile psi_gamma;
* a ball-supported density proportional to (R^2-|x|^2)^((2-beta-d)/2),
  whose alpha=2 potential splits into an exact quadratic part plus a
  hypergeometric remainder (ball_potential).

Each measure has one normalized profile of rho = |x/R|^2 per kernel
(power, log): sphere ``_psi_raw``, ``tilde_psi0``; ball ``_ball_raw``,
``_log_ball_lambda``.  Each has a branch point at rho = 1 (the support
boundary), which the inner branch covers through the Gauss value of
``special.hyp2f1`` at z = 1; psi_gamma's first two derivatives there
are rational multiples of that value (``_seam_curvature``).

The power-law profiles go through ``special.hyp2f1``.  The logarithmic
kernels need a series scipy lacks; ``_log_series`` sums it in numpy
blocks and closes it with a geometric tail.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence, RegimeError
from .params import CandidateMinimizer, KernelParams
from .special import Hyp2F1Input, digamma, gamma_fn, hyp2f1

__all__ = [
    "KernelParams",
    "unit_sphere_area",
    "psi_gamma",
    "psi_values_at_one",
    "sphere_potential",
    "ball_potential",
    "quadratic_ball_moment",
    "tilde_psi0",
    "total_potential",
]

# Width of the first-order patch around the rho=1 branch point of
# tilde_psi0, where the series argument degenerates and convergence stalls.
_NEAR_ONE = 1e-6
_EPS = float(np.finfo(float).eps)
SERIES_CAP = 2_000_000


def _check_dim(d, minimum: int) -> int:
    if not float(d).is_integer() or d < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {d}")
    return int(d)


def _check_rho(rho) -> None:
    if not rho >= 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")


def _pow_or_inf(base: float, p: float) -> float:
    """base ** p for base >= 0, or inf where that overflows, as at base = inf."""
    try:
        return base**p
    except OverflowError:
        return math.inf


def unit_sphere_area(d) -> float:
    """Surface measure of the unit sphere in R^d, |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)."""
    d = _check_dim(d, 1)
    return 2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0)


def _psi_raw(d: int, gamma: float, rho: float) -> float:
    """Two-branch hypergeometric profile without the public domain gate."""
    if gamma == 0.0:
        return 1.0
    a = -gamma / 2.0
    b = (2.0 - gamma - d) / 2.0
    c = d / 2.0
    if rho <= 1.0:
        return hyp2f1(Hyp2F1Input(a, b, c, rho))
    return _pow_or_inf(rho, gamma / 2.0) * hyp2f1(Hyp2F1Input(a, b, c, 1.0 / rho))


def psi_gamma(d, gamma: float, rho: float) -> float:
    """Scaled radial profile of the spherical average of r^gamma.

    For the uniform probability measure on the unit sphere in R^d,
    psi_gamma(|x|^2) is its potential under the pure power kernel, up to
    the surface-area normalization applied by :func:`sphere_potential`.
    The two branches (series in rho inside, series in 1/rho times
    rho^(gamma/2) outside) glue continuously at rho = 1 whenever the
    boundary value exists (gamma > 1 - d), and in C^1 fashion once
    d + gamma > 2.  Off the branch point every exponent is accepted.
    """
    _check_rho(rho)
    d = _check_dim(d, 2)
    return _psi_raw(d, gamma, float(rho))


def psi_values_at_one(d, gamma: float):
    """Value and first two derivatives of psi_gamma at the branch point.

    Returns the triple (psi(1), psi'(1), psi''(1)).  The derivative rule
    dF/dz = (ab/c) F(a+1, b+1; c+1; z) and the Gauss value at z = 1 make
    each derivative a rational multiple of the one before:
    psi'(1) = (gamma/4) psi(1) and
    psi''(1) = psi'(1) (2-gamma)(4-d-gamma) / (4(d+gamma-3)), which
    vanishes exactly at d + gamma = 4.  The second derivative only
    exists for d + gamma > 3; in the strip 2 < d + gamma <= 3 it is
    returned as nan so the value/derivative pair stays usable (callers
    needing psi'' must check their own precondition).
    """
    d = _check_dim(d, 2)
    if gamma == 0.0:
        return (1.0, 0.0, 0.0)
    if not d + gamma > 2:
        raise DomainError(f"need d + gamma > 2, got {d + gamma}")
    value = _psi_raw(d, gamma, 1.0)
    first = 0.25 * gamma * value
    second = first * _seam_curvature(d, gamma) if d + gamma > 3 else math.nan
    return (value, first, second)


def _seam_curvature(d: int, gamma: float) -> float:
    """k = psi_gamma''(1) / psi_gamma'(1) for d + gamma > 3 (tilde_psi0's at 0)."""
    return (2.0 - gamma) * (4.0 - d - gamma) / (4.0 * (d + gamma - 3.0))


def sphere_potential(d, gamma: float, x_norm: float) -> float:
    """Integral of |x - w|^gamma over the unit sphere {|w| = 1} in R^d.

    Equals |S^(d-1)| psi_gamma(x_norm^2).  Off the sphere the formula
    holds for every exponent; on the sphere itself the integral only
    converges for gamma > 1 - d.
    """
    d = _check_dim(d, 2)
    if not x_norm >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x_norm}")
    x = float(x_norm)
    return unit_sphere_area(d) * _psi_raw(d, gamma, x * x)


def _ball_raw(d: int, gamma: float, rho: float) -> float:
    """ball_potential / C_gamma at rho = x_norm^2, without the public gates."""
    if rho <= 1.0:
        scale = gamma_fn(2.0 - gamma / 2.0) * gamma_fn((gamma + d) / 2.0)
        return scale / gamma_fn(d / 2.0) * (1.0 + gamma * rho / d)
    f = hyp2f1(
        Hyp2F1Input(-gamma / 2.0, (2.0 - gamma - d) / 2.0, 2.0 - gamma / 2.0, 1.0 / rho)
    )
    return _pow_or_inf(rho, gamma / 2.0) * f


def ball_potential(d, gamma: float, x_norm: float) -> float:
    """Weighted ball integral of |x - y|^gamma against (1-|y|^2)^((2-gamma-d)/2).

    Defined for -d < gamma < -d + 4, where the weight is integrable.
    Equals C_gamma times a profile in rho = x_norm^2 (C_gamma from
    :func:`quadratic_ball_moment`), just as :func:`sphere_potential` is
    |S^(d-1)| times psi_gamma.  Inside the ball the profile is exactly
    affine in rho; outside it is rho^(gamma/2) times a hypergeometric
    factor in 1/rho.  At x_norm = 1 the two branches share a common
    limit and the (affine) inner value is returned.
    """
    d = _check_dim(d, 1)
    if not -d < gamma < -d + 4:
        raise DomainError(f"need -d < gamma < -d+4, got gamma={gamma} in d={d}")
    if not x_norm >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x_norm}")
    x = float(x_norm)
    c_gamma, _ = quadratic_ball_moment(d, gamma)
    return c_gamma * _ball_raw(d, gamma, x * x)


def quadratic_ball_moment(d, beta: float):
    """Normalization C_beta and second-moment coefficient of the ball profile.

    Returns (C_beta, d/(4-beta)) with
    C_beta = pi^(d/2) Gamma((4-beta-d)/2) / Gamma((4-beta)/2), so that
    the quadratic-kernel potential of the unnormalized profile equals
    C_beta (|x|^2 + d/(4-beta)) / 2.
    """
    d = _check_dim(d, 1)
    if not -d < beta < -d + 4:
        raise DomainError(f"need -d < beta < -d+4, got beta={beta} in d={d}")
    c_beta = (
        math.pi ** (d / 2.0)
        * gamma_fn((4.0 - beta - d) / 2.0)
        / gamma_fn((4.0 - beta) / 2.0)
    )
    return (c_beta, d / (4.0 - beta))


def _log_series(d: int, c0: float, z: float) -> float:
    """sum_{n>=1} ((2-d)/2)_n / ((c0)_n n) z^n for z in [0, 1].

    With c0 = d/2 this is T(z), the term-wise derivative of the psi_gamma
    Gauss series with respect to the exponent at 0: tilde_psi0 is -T/2
    inside and ln(rho)/2 - T(1/rho)/2 outside.  With c0 = 2 it is S(z)
    of the ball profile.  Identically zero in d = 2 and a single term in
    d = 4.  The normalized terms t_0 = 1, t_{k+1} = ratio(k) t_k are
    summed in numpy blocks of doubling length until three consecutive
    terms fall below eps times the running partial sum, or SERIES_CAP
    terms; a non-finite partial sum raises NonConvergence.  The terms
    decay like a fixed power of n, so the sum is always closed with the
    geometric tail estimate t r / (1 - r), also at the term cap.  The
    truncation error is largest at z = 1, where the sum is
    digamma(c0) - digamma(c0 - (2-d)/2); measured against that: 1.4e-10
    relative at (d, c0) = (1, 2), the ball log profile (the same at
    z = 1 - 4e-10), 5.3e-12 at (3, 1.5), 7.5e-13 at (3, 2), and at most
    4e-14 at d = 5.
    """
    if d == 2 or z == 0.0:
        return 0.0
    a0 = (2.0 - d) / 2.0

    def ratio(m):
        n = m + 1.0
        return (a0 + n) / (c0 + n) * (n / (n + 1.0)) * z

    total = last = 1.0
    k = 0
    block = 64
    while k < SERIES_CAP and last != 0.0:
        m = min(block, SERIES_CAP - k)
        terms = last * np.cumprod(ratio(np.arange(k, k + m, dtype=float)))
        partial = total + np.cumsum(terms)
        small = np.abs(terms) <= _EPS * np.abs(partial)
        hits = np.nonzero(small[:-2] & small[1:-1] & small[2:])[0]
        if hits.size:
            j = hits[0] + 2
            total, last, k = float(partial[j]), float(terms[j]), k + j + 1
            break
        total, last, k = float(partial[-1]), float(terms[-1]), k + m
        if not math.isfinite(total):
            raise NonConvergence(
                "log-kernel series: series blew up (non-finite partial sum)"
            )
        block = min(block * 2, 65536)
    r = ratio(float(k))
    tail = last * r / (1.0 - r) if 0.0 < r < 1.0 else 0.0
    return a0 / c0 * z * (total + tail)


def tilde_psi0(d, rho: float) -> float:
    """Logarithmic-kernel profile: the limit of (psi_gamma(rho) - 1)/gamma.

    Equals the average of ln|x - w| over the unit sphere at rho = |x|^2.
    Far afield it behaves like ln(sqrt(rho)); at the branch point it
    takes the digamma value (digamma(d-1) - digamma(d/2))/2, with slope
    exactly 1/4 from either side for d >= 3.  Within 1e-6 of rho = 1,
    where the series argument degenerates, the value is that first-order
    expansion; in d = 3 it agrees with mpmath to about 4e-12 relative
    there, and in d = 5 to about 1e-13.
    """
    _check_rho(rho)
    d = _check_dim(d, 2)
    rho = float(rho)
    if d == 2:
        # Classical circle potential: zero inside, ln|x| outside.
        return 0.0 if rho <= 1.0 else 0.5 * math.log(rho)
    if abs(rho - 1.0) < _NEAR_ONE:
        return 0.5 * (digamma(d - 1.0) - digamma(d / 2.0)) + 0.25 * (rho - 1.0)
    if rho < 1.0:
        return -0.5 * _log_series(d, d / 2.0, rho)
    return 0.5 * math.log(rho) - 0.5 * _log_series(d, d / 2.0, 1.0 / rho)


def _log_ball_lambda(d: int, rho: float) -> float:
    """Normalized log-kernel potential piece of the unit ball profile.

    Interior: (digamma(d/2) - digamma(2))/2 + rho/d, exactly affine.
    Exterior: ln(rho)/2 - S(1/rho)/2.  Continuous at rho = 1.
    """
    if rho <= 1.0:
        return 0.5 * (digamma(d / 2.0) - digamma(2.0)) + rho / d
    return 0.5 * math.log(rho) - 0.5 * _log_series(d, 2.0, 1.0 / rho)


def total_potential(
    params: KernelParams, candidate: CandidateMinimizer, x_norm: float
) -> float:
    """Potential of a candidate measure under the kernel, at radius x_norm.

    Attraction minus R^beta/beta times the candidate's beta profile at
    rho = (x_norm/R)^2, or minus ln R plus its log profile.  The sphere
    attracts with R^alpha psi_alpha(rho)/alpha; the ball profile
    (alpha = 2 only) with the exact quadratic x^2/2 + R^2 d/(2(4-beta)),
    and its beta profile is ball_potential/C_beta.  An x_norm so large
    (or infinite) that the value is not a finite float raises DomainError.
    """
    if not x_norm >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x_norm}")
    if params.alpha_is_log:
        raise RegimeError("logarithmic attraction has no candidate closed form")
    d, alpha, beta = params.d, params.alpha, params.beta
    r_cand = candidate.radius
    x = float(x_norm)
    rho = _pow_or_inf(x / r_cand, 2)
    if candidate.kind == "UniformSphere":
        if d < 2:
            raise RegimeError("sphere candidates need d >= 2")
        if not d + alpha > 2:
            raise RegimeError(f"need d + alpha > 2 for the sphere profile, d={d}")
        if not params.beta_is_log and not d + beta > 2:
            raise RegimeError(f"sphere profile needs d + beta > 2, got {d + beta}")
        attract = r_cand**alpha / alpha * _psi_raw(d, alpha, rho)
        log_profile, profile = tilde_psi0, _psi_raw
    else:  # BallProfile
        if alpha != 2.0:
            raise RegimeError("ball profile candidates exist only for alpha = 2")
        if not beta < min(2.0, -d + 4.0):
            raise RegimeError(
                f"ball profile needs beta < min(2, -d+4), got beta={beta}"
            )
        attract = 0.5 * x * x + r_cand * r_cand * d / (2.0 * (4.0 - beta))
        log_profile, profile = _log_ball_lambda, _ball_raw
    if params.beta_is_log:
        value = attract - math.log(r_cand) - log_profile(d, rho)
    else:
        value = attract - r_cand**beta / beta * profile(d, beta, rho)
    if not math.isfinite(value):
        raise DomainError(f"potential at x_norm={x_norm!r} is not finite: {value!r}")
    return value
