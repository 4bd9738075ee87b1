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
ones through ``_log_series``, a series scipy lacks, summed over
(node x term) numpy blocks and closed with a geometric tail (in closed
form for the d = 1 ball).  The public functions gate their nodes once per
call and give a float for a scalar argument, an array for an array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence, RegimeError
from .params import CandidateMinimizer, KernelParams
from .special import Hyp2F1Input, _hyp2f1, digamma, gamma_fn, hyp2f1

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
# Most elements in one (node x term) block of _log_series.
_BLOCK_ELEMENTS = 1 << 16


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
    """Surface measure of the unit sphere in R^d, |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)."""
    d = _check_dim(d, 1)
    return 2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0)


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


def _term_ratio(a0: float, c0: float, n: np.ndarray) -> np.ndarray:
    """The ratio t_n / t_(n-1) of the normalized log series, divided by z."""
    return (a0 + n) / (c0 + n) * (n / (n + 1.0))


def _series_block(q: np.ndarray, z: np.ndarray, last: np.ndarray, total: np.ndarray):
    """One block of terms t_k+1 .. t_k+m of the log series for nodes z.

    q holds the block's term ratios over z, and last and total each
    node's term and partial sum so far.  Returns the new total and last
    term, the number of terms used, and whether the node converged:
    three consecutive terms below eps times the partial sum.  The block's
    temporaries are freed on return, before the next block is built.
    """
    terms = np.cumprod(q * z[:, None], axis=1)
    terms *= last[:, None]
    partial = np.cumsum(terms, axis=1)
    partial += total[:, None]
    bound = np.abs(partial)
    bound *= _EPS
    small = np.abs(terms) <= bound
    hits = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
    hit = hits.any(axis=1)
    j = np.where(hit, np.argmax(hits, axis=1) + 2, q.size - 1)
    at = np.arange(z.size)
    return partial[at, j], terms[at, j], j + 1, hit


def _log_series(d: int, c0: float, z) -> np.ndarray:
    """sum_{n>=1} ((2-d)/2)_n / ((c0)_n n) z^n at every node of z in [0, 1].

    With c0 = d/2 this is T(z), the term-wise derivative of the psi_gamma
    Gauss series with respect to the exponent at 0: tilde_psi0 is -T/2
    inside and ln(rho)/2 - T(1/rho)/2 outside.  With c0 = 2 it is S(z)
    of the ball profile.  Identically zero in d = 2 and a single term in
    d = 4.  In d = 1, S(z) is the integral of (2F1(1/2, 1; 2; t) - 1)/t
    over [0, z], which is 2 log1p(u) - u with u = z/(1 + sqrt(1 - z))^2.

    Otherwise the normalized terms t_0 = 1, t_{k+1} = ratio(k) t_k are
    summed in (node x term) numpy blocks of doubling length, at most
    _BLOCK_ELEMENTS elements each.  Each node stops on its own, once
    three consecutive terms within a block fall below eps times its
    running partial sum, or at SERIES_CAP terms; a non-finite partial sum
    raises NonConvergence.  The terms decay like a fixed power of n, so
    each sum is closed with the geometric tail estimate t r / (1 - r),
    also at the term cap.  A node's value does not depend on the other
    nodes of the call.  The error is largest at z = 1, where the sum is
    digamma(c0) - digamma(c0 - (2-d)/2); measured against that: 4.4e-16
    relative at (d, c0) = (1, 2), the closed form, 5.3e-12 at (3, 1.5),
    7.5e-13 at (3, 2), and at most 4e-14 at d = 5.
    """
    z = np.asarray(z, dtype=float)
    if d == 2:
        return np.zeros_like(z)
    if d == 1 and c0 == 2.0:
        u = z / (1.0 + np.sqrt(1.0 - z)) ** 2
        return 2.0 * np.log1p(u) - u
    a0 = (2.0 - d) / 2.0
    flat = z.ravel()
    nonzero = flat != 0.0
    zs = flat[nonzero]
    total = np.ones_like(zs)
    last = np.ones_like(zs)
    stop = np.zeros(zs.size, dtype=int)  # terms summed by each node
    active = np.arange(zs.size)
    k, block = 0, 64
    while active.size and k < SERIES_CAP:
        m = min(block, SERIES_CAP - k)
        q = _term_ratio(a0, c0, np.arange(k, k + m, dtype=float) + 1.0)
        done = np.zeros(active.size, dtype=bool)
        step = max(1, _BLOCK_ELEMENTS // m)
        for lo in range(0, active.size, step):
            rows = active[lo : lo + step]
            total[rows], last[rows], used, hit = _series_block(
                q, zs[rows], last[rows], total[rows]
            )
            stop[rows] = k + used
            if not np.isfinite(total[rows][~hit]).all():
                raise NonConvergence(
                    "log-kernel series: series blew up (non-finite partial sum)"
                )
            done[lo : lo + step] = hit
        k += m
        block = min(block * 2, 65536)
        active = active[~done & (last[active] != 0.0)]
    r = _term_ratio(a0, c0, stop + 1.0) * zs
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where((0.0 < r) & (r < 1.0), last * r / (1.0 - r), 0.0)
    out = np.zeros_like(flat)
    out[nonzero] = a0 / c0 * zs * (total + tail)
    return out.reshape(z.shape)


def tilde_psi0(d, rho):
    """Logarithmic-kernel profile: the limit of (psi_gamma(rho) - 1)/gamma.

    Equals the average of ln|x - w| over the unit sphere at rho = |x|^2.
    Far afield it behaves like ln(sqrt(rho)); at the branch point it
    takes the digamma value (digamma(d-1) - digamma(d/2))/2, with slope
    exactly 1/4 from either side for d >= 3.  Within 1e-6 of rho = 1,
    where the series argument degenerates, the value is that first-order
    expansion; in d = 3 it agrees with mpmath to about 4e-12 relative
    there, and in d = 5 to about 1e-13.  A scalar rho gives a float, an
    array of nodes an array.
    """
    nodes = _check_rho(rho)
    d = _check_dim(d, 2)
    if d == 2:
        # Classical circle potential: zero inside, ln|x| outside.
        return _shaped(rho, 0.5 * np.log(np.maximum(nodes, 1.0)))
    value = np.empty_like(nodes)
    near = np.abs(nodes - 1.0) < _NEAR_ONE
    inner = ~near & (nodes < 1.0)
    outer = ~near & ~inner
    value[near] = 0.5 * (digamma(d - 1.0) - digamma(d / 2.0)) + 0.25 * (nodes[near] - 1.0)
    value[inner] = -0.5 * _log_series(d, d / 2.0, nodes[inner])
    r = nodes[outer]
    value[outer] = 0.5 * np.log(r) - 0.5 * _log_series(d, d / 2.0, 1.0 / r)
    return _shaped(rho, value)


def _log_ball_lambda(d: int, rho: np.ndarray) -> np.ndarray:
    """Normalized log-kernel potential piece of the unit ball profile.

    Interior: (digamma(d/2) - digamma(2))/2 + rho/d, exactly affine.
    Exterior: ln(rho)/2 - S(1/rho)/2.  Continuous at rho = 1.
    """
    value = np.empty_like(rho)
    inner = rho <= 1.0
    value[inner] = 0.5 * (digamma(d / 2.0) - digamma(2.0)) + rho[inner] / d
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
