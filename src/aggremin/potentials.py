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
``special._hyp2f1`` at z = 1; psi_gamma's first two derivatives there
are rational multiples of that value (``_seam_curvature``).

Every profile takes an array of rho and evaluates it in one pass: the
power-law profiles through one ``special._hyp2f1`` call, the logarithmic
ones through ``_log_series``, a series scipy lacks.  It takes one
fixed-length power sum at z <= 1/2 and a closed form (logarithms and
finite power sums) beyond, within 1.6e-15 relative of mpmath up to
and at z = 1, so no profile needs a patch at its branch point.  The
public functions gate their nodes once per call and give a float for a
scalar argument, an array for an array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RegimeError
from .params import CandidateMinimizer, KernelParams
from .special import Hyp2F1Input, _hyp2f1, gamma_fn, hyp2f1

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

_EPS = float(np.finfo(float).eps)


def _check_dim(d, minimum: int) -> int:
    if not float(d).is_integer() or d < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {d}")
    return int(d)


def _check_rho(values, name: str = "rho") -> np.ndarray:
    """The nodes as a flat float array, gated once for the whole array.

    A negative or NaN node raises the scalar error, naming the first.
    """
    nodes = np.asarray(values, dtype=float).ravel()
    bad = ~(nodes >= 0.0)
    if bad.any():
        raise DomainError(f"{name} must be >= 0, got {float(nodes[bad][0])}")
    return nodes


def _shaped(like, nodes: np.ndarray):
    """A float for a scalar ``like``, else the nodes in ``like``'s shape."""
    if np.ndim(like) == 0:
        return float(nodes[0])
    return nodes.reshape(np.shape(like))


def _pow_or_inf(base: np.ndarray, p: float) -> np.ndarray:
    """base ** p for base >= 0, inf where that overflows, as at base = inf."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.power(base, p)


def unit_sphere_area(d) -> float:
    """Surface measure of the unit sphere in R^d, |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2).

    Raises DomainError from d = 344, where Gamma(d/2) overflows.
    """
    d = _check_dim(d, 1)
    g = gamma_fn(d / 2.0)
    if math.isinf(g):
        raise DomainError(f"Gamma({d / 2.0}) overflows in d={d}")
    return 2.0 * math.pi ** (d / 2.0) / g


def _psi_raw(d: int, gamma: float, rho: np.ndarray) -> np.ndarray:
    """Two-branch hypergeometric profile at rho nodes, without the public gate."""
    if gamma == 0.0:
        return np.ones_like(rho)
    z = np.where(rho <= 1.0, rho, 1.0 / np.maximum(rho, 1.0))
    value = _hyp2f1(-gamma / 2.0, (2.0 - gamma - d) / 2.0, d / 2.0, z)
    outer = rho > 1.0
    value[outer] *= _pow_or_inf(rho[outer], gamma / 2.0)
    return value


def psi_gamma(d, gamma: float, rho):
    """Scaled radial profile of the spherical average of r^gamma.

    For the uniform probability measure on the unit sphere in R^d,
    psi_gamma(|x|^2) is its potential under the pure power kernel, up to
    the surface-area normalization applied by :func:`sphere_potential`.
    The two branches (series in rho inside, series in 1/rho times
    rho^(gamma/2) outside) glue continuously at rho = 1 whenever the
    boundary value exists (gamma > 1 - d), and in C^1 fashion once
    d + gamma > 2.  Off the branch point every exponent is accepted.
    A scalar rho gives a float, an array of nodes an array.
    """
    nodes = _check_rho(rho)
    d = _check_dim(d, 2)
    return _shaped(rho, _psi_raw(d, gamma, nodes))


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
    value = hyp2f1(Hyp2F1Input(-gamma / 2.0, (2.0 - gamma - d) / 2.0, d / 2.0, 1.0))
    first = 0.25 * gamma * value
    second = first * _seam_curvature(d, gamma) if d + gamma > 3 else math.nan
    return (value, first, second)


def _seam_curvature(d: int, gamma: float) -> float:
    """k = psi_gamma''(1) / psi_gamma'(1) for d + gamma > 3 (tilde_psi0's at 0)."""
    return (2.0 - gamma) * (4.0 - d - gamma) / (4.0 * (d + gamma - 3.0))


def sphere_potential(d, gamma: float, x_norm):
    """Integral of |x - w|^gamma over the unit sphere {|w| = 1} in R^d.

    Equals |S^(d-1)| psi_gamma(x_norm^2).  Off the sphere the formula
    holds for every exponent; on the sphere itself the integral only
    converges for gamma > 1 - d.
    """
    d = _check_dim(d, 2)
    x = _check_rho(x_norm, "x_norm")
    return _shaped(x_norm, unit_sphere_area(d) * _psi_raw(d, gamma, x * x))


def _ball_raw(d: int, gamma: float, rho: np.ndarray) -> np.ndarray:
    """ball_potential / C_gamma at rho = x_norm^2 nodes, without the public gates."""
    value = np.empty_like(rho)
    inner = rho <= 1.0
    scale = gamma_fn(2.0 - gamma / 2.0) * gamma_fn((gamma + d) / 2.0)
    value[inner] = scale / gamma_fn(d / 2.0) * (1.0 + gamma * rho[inner] / d)
    r = rho[~inner]
    f = _hyp2f1(-gamma / 2.0, (2.0 - gamma - d) / 2.0, 2.0 - gamma / 2.0, 1.0 / r)
    value[~inner] = _pow_or_inf(r, gamma / 2.0) * f
    return value


def ball_potential(d, gamma: float, x_norm):
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
    x = _check_rho(x_norm, "x_norm")
    c_gamma, _ = quadratic_ball_moment(d, gamma)
    return _shaped(x_norm, c_gamma * _ball_raw(d, gamma, x * x))


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


def _coefficients(d: int, c0: float):
    """The coefficients c_1..c_N of the log series, and whether they sum it.

    c_n = (a0)_n / ((c0)_n n) with a0 = (2-d)/2, in floats.  N is 64 up
    to d = 168 and 5 sqrt(d) beyond: the sphere's coefficients fall like
    exp(-2 n^2 / d) before their power-law tail, so at large d the sum
    needs about 4.4 sqrt(d) terms.  The flag is true where the N terms
    give the series to double precision on all of [0, 1]: in d = 2,
    where every term is 0, and for the sphere (c0 = d/2, where
    |c_n| <= 1/n) once its last term times N, a bound on the tail at
    z = 1, is below eps/16: even d, where the series terminates, and odd
    d >= 13.  The ball's terms grow like binomials before they fall, so
    they cancel near z = 1 at large d.
    """
    n = np.arange(1.0, max(64, 5 * math.isqrt(d)) + 1.0)
    coef = np.cumprod(((2.0 - d) / 2.0 + n - 1.0) / (c0 + n - 1.0)) / n
    sphere_tail = abs(coef[-1]) * n.size if c0 == d / 2.0 else math.inf
    return coef, bool(sphere_tail < _EPS / 16.0 or not coef.any())


def _ball_closed(d: int, z: np.ndarray) -> np.ndarray:
    """S(z), the c0 = 2 log series, in closed form at nodes z in (1/2, 1].

    2F1(a, 1; 2; t) = (1 - (1-t)^(1-a)) / ((1-a) t) integrates to
    S(z) = 1 - f_m/(m z) + J_(m-1) with m = d/2, f_x = 1 - (1-z)^x and
    J_x the integral of ((1-t)^x - 1)/t over [0, z]: J_0 = 0,
    J_(-1/2) = 2 log1p(z/(1 + sqrt(1-z))^2) and J_x = J_(x-1) - f_x/x,
    steps of one sign.
    """
    m = d / 2.0
    with np.errstate(divide="ignore"):
        log_rest = np.log1p(-z)  # -inf at z = 1, where every f_x is 1

    def f(x: float) -> np.ndarray:
        return -np.expm1(x * log_rest)

    if d % 2:
        x, j = 0.5, 2.0 * np.log1p(z / (1.0 + np.sqrt(1.0 - z)) ** 2)
    else:
        x, j = 1.0, np.zeros_like(z)
    while x < m:
        j -= f(x) / x
        x += 1.0
    return 1.0 - f(m) / (m * z) + j


def _sphere_closed(d: int, z: np.ndarray) -> np.ndarray:
    """T(z), the c0 = d/2 log series, in closed form for odd d at z in (1/2, 1].

    With m = d/2 = k + 1/2 the coefficient is c_n = C / (n prod_l (n^2 - h_l^2))
    over h_l = l - 1/2, l = 1..k, with C = Gamma(m)/Gamma(1-m).  In
    partial fractions, c_n = sum_l w_l (n/(n^2 - h_l^2) - 1/n) with
    w_l = C / (h_l^2 prod_(j != l) (h_l^2 - h_j^2)), and each fraction
    sums to w [(1 - ch) ln(1-s) + (1 + ch) ln(1+s) - P_h(z)], with
    s = sqrt z, ch = cosh(h ln z) and P_h(z) = sum_(|i| <= h-1/2) z^i / (2h - 2|i|).
    The ln(1-s) coefficient is written -2 sinh(h ln(z)/2)^2, so it
    vanishes at z = 1, where its product is 0.  In d = 3 this is
    T = 1 - [(1+s)^2 ln(1+s) - (1-s)^2 ln(1-s)] / (2s).
    """
    h = np.arange(1, (d - 1) // 2 + 1) - 0.5
    c = gamma_fn(d / 2.0) / gamma_fn(1.0 - d / 2.0)
    log_z = np.log(z)
    log_plus = np.log1p(np.sqrt(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_minus = np.log1p(-z) - log_plus  # ln(1-s), -inf at z = 1
    total = np.zeros_like(z)
    for hl in h:
        w = c / (hl * hl * np.prod([hl * hl - hj * hj for hj in h if hj != hl]))
        half = np.sinh(0.5 * hl * log_z)
        with np.errstate(invalid="ignore"):
            edge = np.where(z < 1.0, -2.0 * half * half * log_minus, 0.0)
        power = np.full_like(z, 0.5 / hl)
        for i in range(1, int(hl + 0.5)):
            power += np.cosh(i * log_z) / (hl - i)
        total += w * (edge + (1.0 + np.cosh(hl * log_z)) * log_plus - power)
    return total


def _log_series(d: int, c0: float, z) -> np.ndarray:
    """sum_{n>=1} ((2-d)/2)_n / ((c0)_n n) z^n at every node of z in [0, 1].

    With c0 = d/2 (d >= 2) this is T(z), the term-wise derivative of the
    psi_gamma Gauss series with respect to the exponent at 0: tilde_psi0
    is -T/2 inside and ln(rho)/2 - T(1/rho)/2 outside.  With c0 = 2 it
    is S(z) of the ball profile.  At z = 1 the sum is
    digamma(c0) - digamma(c0 - (2-d)/2).

    Nodes z <= 1/2 take one fixed-length power sum by Horner's rule (64
    terms up to d = 168), which converges at least like 2^-n there; so
    do all nodes where that sum is exact on [0, 1]: the sphere's series
    at even d, where it terminates, and from d = 13 (see _coefficients).
    The other nodes take a closed form: _ball_closed for c0 = 2 and
    _sphere_closed for odd d.  Each node's value depends on that node
    alone.  Against 30-digit mpmath over z in [1e-300, 1], the largest
    relative error is 1.6e-15 for d = 1 to 9 and both c0.
    """
    z = np.asarray(z, dtype=float)
    coef, whole = _coefficients(d, c0)
    out = np.empty_like(z)
    near = np.ones(z.shape, dtype=bool) if whole else z <= 0.5
    zs = z[near]
    acc = np.full_like(zs, coef[-1])
    for c in coef[-2::-1]:
        acc *= zs
        acc += c
    out[near] = acc * zs
    far = ~near
    if far.any():
        out[far] = (_ball_closed if c0 == 2.0 else _sphere_closed)(d, z[far])
    return out


def tilde_psi0(d, rho):
    """Logarithmic-kernel profile: the limit of (psi_gamma(rho) - 1)/gamma.

    Equals the average of ln|x - w| over the unit sphere at rho = |x|^2:
    -T(rho)/2 inside, ln(rho)/2 - T(1/rho)/2 outside (T from
    _log_series).  Far afield it behaves like ln(sqrt(rho)); at the
    branch point it takes the digamma value (digamma(d-1) - digamma(d/2))/2,
    with slope exactly 1/4 from either side for d >= 3.  Evaluated
    directly up to the branch point: in d = 3 and 5 it agrees with
    mpmath to 8e-16 relative within 1e-4 of rho = 1.  In d = 2 it
    is the circle potential, zero inside and ln(rho)/2 outside.  A scalar
    rho gives a float, an array of nodes an array.
    """
    nodes = _check_rho(rho)
    d = _check_dim(d, 2)
    value = np.empty_like(nodes)
    inner = nodes <= 1.0
    value[inner] = -0.5 * _log_series(d, d / 2.0, nodes[inner])
    r = nodes[~inner]
    value[~inner] = 0.5 * np.log(r) - 0.5 * _log_series(d, d / 2.0, 1.0 / r)
    return _shaped(rho, value)


def _log_ball_lambda(d: int, rho: np.ndarray) -> np.ndarray:
    """Normalized log-kernel potential piece of the unit ball profile.

    Interior: -S(1)/2 - 1/d + rho/d, exactly affine, where
    -S(1)/2 - 1/d = (digamma(d/2) - digamma(2))/2.
    Exterior: ln(rho)/2 - S(1/rho)/2.  Continuous at rho = 1.
    """
    value = np.empty_like(rho)
    inner = rho <= 1.0
    value[inner] = (-0.5 * float(_log_series(d, 2.0, 1.0)) - 1.0 / d) + rho[inner] / d
    r = rho[~inner]
    value[~inner] = 0.5 * np.log(r) - 0.5 * _log_series(d, 2.0, 1.0 / r)
    return value


def total_potential(params: KernelParams, candidate: CandidateMinimizer, x_norm):
    """Potential of a candidate measure under the kernel, at radius x_norm.

    Attraction minus R^beta/beta times the candidate's beta profile at
    rho = (x_norm/R)^2, or minus ln R plus its log profile.  The sphere
    attracts with R^alpha psi_alpha(rho)/alpha; the ball profile
    (alpha = 2 only) with the exact quadratic x^2/2 + R^2 d/(2(4-beta)),
    and its beta profile is ball_potential/C_beta.  A scalar x_norm gives
    a float, an array of radii an array.  An x_norm so large (or
    infinite) that the value is not a finite float raises DomainError,
    naming the first such node.
    """
    x = _check_rho(x_norm, "x_norm")
    if params.alpha_is_log:
        raise RegimeError("logarithmic attraction has no candidate closed form")
    d, alpha, beta = params.d, params.alpha, params.beta
    r_cand = candidate.radius
    if candidate.kind == "UniformSphere":
        if d < 2:
            raise RegimeError("sphere candidates need d >= 2")
        if not d + alpha > 2:
            raise RegimeError(f"need d + alpha > 2 for the sphere profile, d={d}")
        if not params.beta_is_log and not d + beta > 2:
            raise RegimeError(f"sphere profile needs d + beta > 2, got {d + beta}")
    else:  # BallProfile
        if alpha != 2.0:
            raise RegimeError("ball profile candidates exist only for alpha = 2")
        if not beta < min(2.0, -d + 4.0):
            raise RegimeError(
                f"ball profile needs beta < min(2, -d+4), got beta={beta}"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.square(x / r_cand)
        if candidate.kind == "UniformSphere":
            attract = r_cand**alpha / alpha * _psi_raw(d, alpha, rho)
            log_profile, profile = tilde_psi0, _psi_raw
        else:
            attract = 0.5 * x * x + r_cand * r_cand * d / (2.0 * (4.0 - beta))
            log_profile, profile = _log_ball_lambda, _ball_raw
        if params.beta_is_log:
            value = attract - math.log(r_cand) - log_profile(d, rho)
        else:
            value = attract - r_cand**beta / beta * profile(d, beta, rho)
    finite = np.isfinite(value)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(
            f"potential at x_norm={float(x[i])!r} is not finite: {float(value[i])!r}"
        )
    return _shaped(x_norm, value)
