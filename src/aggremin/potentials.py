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
(power, log): sphere ``_psi_fold``, ``_tilde_psi0_fold``; ball
``_ball_raw``, ``_log_ball_lambda``.  Each has a branch point at rho = 1 (the support
boundary), which the inner branch covers through the Gauss value of
``special._hyp2f1`` at z = 1; psi_gamma's first two derivatives there
are rational multiples of that value (``_seam_curvature``).

Every profile evaluates its nodes in one pass, as a ``_Fold``: the
nodes mapped by rho -> 1/rho onto z = min(rho, 1/rho) in [0, 1], where
each profile is one function of z, times a power of rho (or plus
ln(rho)/2) outside.  A fold can hold each distinct z once, so that a
grid closed under rho -> 1/rho pays once for a node and its reciprocal;
and it can be taken from radii x, with the outer power x^gamma, so that
no x^2 is formed.  It also carries the gap 1 - z, formed once per node
from the exact rho - 1 (``_fold``), which the power-law profiles read
next to the sphere: the 2F1's connection route as its w, and the
shell formula as ln(1 - z).  So every public entry point reaches a
sphere profile by one path, and psi_gamma and sphere_potential stay
within 3.1e-15 of 40-digit mpmath from 1e-14 to 1e-4 off the sphere
in d = 2..5.  The power-law profiles take one ``special._hyp2f1``
call, except the d = 3 sphere profile, Archimedes' elementary shell
formula (``_shell_raw``); the logarithmic ones take ``_log_series``, a
series scipy lacks.  It takes a power sum, cut after its last nonzero
term, at z <= 1/2 and a closed form (logarithms and finite power sums)
beyond, within 1.6e-15 relative of mpmath up to and at z = 1, so no
profile needs a patch at its branch point.  The public functions gate
their nodes once per call and give a float for a scalar argument, an
array for an array.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonConvergence, RegimeError
from .params import CandidateMinimizer, KernelParams, _whole
from .special import _gamma_quotient, _gauss_value, _horner, _hyp2f1, digamma, gamma_fn

__all__ = [
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


class _Fold(NamedTuple):
    """Nodes rho >= 0 folded by rho -> 1/rho onto z = min(rho, 1/rho).

    ``z`` holds the folded nodes and ``gap`` 1 - z at each of them,
    taken from the node itself where rounding z would cost digits;
    ``z[take]`` lines up with the nodes (``take`` None: ``z`` itself
    does), and ``outer`` marks the nodes with rho > 1.  There rho is
    ``base ** root``: root 1 for nodes given as rho, 2 for radii x with
    rho = x^2.
    """

    z: np.ndarray
    gap: np.ndarray
    take: np.ndarray | None
    outer: np.ndarray
    base: np.ndarray
    root: int

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Values at ``z``, one per node: ``values`` itself when ``take`` is None."""
        return values if self.take is None else values[self.take]

    def power(self, gamma: float) -> np.ndarray:
        """rho^(gamma/2) at the outer nodes, inf where that overflows."""
        return _pow_or_inf(self.base, 0.5 * gamma * self.root)

    def half_log(self) -> np.ndarray:
        """ln(rho)/2 at the outer nodes."""
        return 0.5 * self.root * np.log(self.base)

    def frozen(self) -> _Fold:
        """The fold itself, its arrays made read-only: a fold built once
        and shared by every call."""
        for array in (self.z, self.gap, self.take, self.outer, self.base):
            if array is not None:
                array.setflags(write=False)
        return self


def _fold(nodes: np.ndarray, root: int = 1) -> _Fold:
    """The fold of gated nodes, rho (root 1) or radii x with rho = x^2
    (root 2), one z per node.

    z is rho or 1/rho, squared for radii, so an x beyond 1e154 folds to
    a finite z and keeps a finite outer power x^gamma.  The gap 1 - z is
    (rho - 1)/rho outside, from the exact rho - 1, its base clamped at
    2^53, where the gap rounds to 1 anyway.  For radii it is
    (1 - x)(1 + x) inside and ((x - 1)/x)(1 + 1/x) outside, so neither
    1/rho nor x^2 is rounded before the difference.
    """
    outer = nodes > 1.0
    base = nodes[outer]
    z = np.where(outer, 1.0 / np.maximum(nodes, 1.0), nodes)
    gap = 1.0 - z
    clamped = np.minimum(base, 2.0**53)
    gap[outer] = (clamped - 1.0) / clamped
    if root == 2:
        gap *= 1.0 + z
        z = z * z
    return _Fold(z, gap, None, outer, base, root)


def unit_sphere_area(d) -> float:
    """Surface measure of the unit sphere in R^d, |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2).

    Raises DomainError from d = 344, where Gamma(d/2) overflows.
    """
    d = _whole("d", d, 1)
    g = gamma_fn(d / 2.0)
    if math.isinf(g):
        raise DomainError(f"Gamma({d / 2.0}) overflows in d={d}")
    return 2.0 * math.pi ** (d / 2.0) / g


def _shell_raw(gamma: float, fold: _Fold) -> np.ndarray:
    """psi_gamma in d = 3 for gamma > -2 at the folded nodes z of a fold,
    by Archimedes' shell formula; the outer power is the caller's.

    F(-gamma/2, -(gamma+1)/2; 3/2; z) = ((1+t)^p - (1-t)^p) / (2 p t)
    with p = gamma + 2 and t = sqrt(z) (DLMF 15.4(i)).  It is summed as
    (1+t)^p (1 - q^p) / (2 p t) with q = (1-t)/(1+t), whose logarithm
    ln(1 - t^2) - 2 log1p(t) adds two terms of one sign, so nothing
    cancels, and 1 - q^p is one expm1.  ln(1 - t^2) is log of the fold's
    gap above z = 1/2, so that next to the sphere it keeps the exact
    rho - 1, and log1p(-z) below.  z = 1 gives 2^(gamma+1)/(gamma+2) and
    z = 0 gives 1.  A value that is not finite (gamma above about 1000)
    raises NonConvergence, naming the first such folded node z, as the
    2F1 does.
    """
    p = gamma + 2.0
    z = fold.z
    with np.errstate(all="ignore"):
        t = np.sqrt(z)
        gap = np.where(z > 0.5, np.log(fold.gap), np.log1p(-z))  # ln(1 - t^2)
        log_rise = np.log1p(t)
        value = np.exp(p * log_rise) * -np.expm1(p * (gap - 2.0 * log_rise)) / (2.0 * p * t)
    value[t == 0.0] = 1.0
    finite = np.isfinite(value)
    if not finite.all():
        bad = float(z[~finite][0])
        raise NonConvergence(f"psi_gamma(3, {gamma!r}, {bad!r}) is not finite")
    return value


def _psi_fold(d: int, gamma: float, fold: _Fold) -> np.ndarray:
    """Two-branch hypergeometric profile at the nodes of a fold, without
    the public gate: F(z) once per folded node, times rho^(gamma/2)
    outside; in d = 3 with gamma > -2, F is Archimedes' closed form
    (_shell_raw).  Both read 1 - z from the fold's gap."""
    if gamma == 0.0:
        return np.ones(fold.outer.shape)
    if d == 3 and -2.0 < gamma < math.inf:
        value = _shell_raw(gamma, fold)
    else:
        value = _hyp2f1(-gamma / 2.0, (2.0 - gamma - d) / 2.0, d / 2.0, fold.z, fold.gap)
    value = fold.spread(value)
    value[fold.outer] *= fold.power(gamma)
    return value


def psi_gamma(d, gamma: float, rho):
    """Scaled radial profile of the spherical average of r^gamma.

    For the uniform probability measure on the unit sphere in R^d,
    psi_gamma(|x|^2) is its potential under the pure power kernel, up to
    the surface-area normalization applied by :func:`sphere_potential`.
    The two branches (series in rho inside, series in 1/rho times
    rho^(gamma/2) outside) glue continuously at rho = 1 whenever the
    boundary value exists (gamma > 1 - d), and in C^1 fashion once
    d + gamma > 2.  In d = 3 with gamma > -2 the series is Archimedes'
    shell formula ((1+r)^(gamma+2) - |1-r|^(gamma+2)) / (2(gamma+2) r),
    r = sqrt(rho), evaluated in closed form without cancellation.  Off
    the branch point every exponent is accepted.
    A scalar rho gives a float, an array of nodes an array.
    """
    nodes = _check_rho(rho)
    d = _whole("d", d, 2)
    return _shaped(rho, _psi_fold(d, gamma, _fold(nodes)))


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
    needing psi'' must check their own precondition).  The value is
    ``special._gauss_value`` itself, with the refusals of the 2F1 gate:
    DomainError for a gamma that is not finite, NonConvergence for a
    value that is not.
    """
    d = _whole("d", d, 2)
    if gamma == 0.0:
        return (1.0, 0.0, 0.0)
    if not d + gamma > 2:
        raise DomainError(f"need d + gamma > 2, got {d + gamma}")
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    a, b, c = -gamma / 2.0, (2.0 - gamma - d) / 2.0, d / 2.0
    value = _gauss_value(a, b, c)
    if not math.isfinite(value):
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; 1.0) is not finite")
    first = 0.25 * gamma * value
    second = first * _seam_curvature(d, gamma) if d + gamma > 3 else math.nan
    return (value, first, second)


def _seam_curvature(d: int, gamma: float) -> float:
    """k = psi_gamma''(1) / psi_gamma'(1) for d + gamma > 3 (tilde_psi0's at 0).

    Integer constants, so a ``Fraction`` gamma gives k exactly.
    """
    return (2 - gamma) * (4 - d - gamma) / (4 * (d + gamma - 3))


def sphere_potential(d, gamma: float, x_norm):
    """Integral of |x - w|^gamma over the unit sphere {|w| = 1} in R^d.

    Equals |S^(d-1)| psi_gamma(x_norm^2).  Off the sphere the formula
    holds for every exponent; on the sphere itself the integral only
    converges for gamma > 1 - d.  Outside, the profile is taken at
    1/x_norm^2 and scaled by x_norm^gamma, so no x_norm^2 overflows.
    """
    d = _whole("d", d, 2)
    x = _check_rho(x_norm, "x_norm")
    return _shaped(x_norm, unit_sphere_area(d) * _psi_fold(d, gamma, _fold(x, root=2)))


def _ball_raw(d: int, gamma: float, fold: _Fold) -> np.ndarray:
    """ball_potential / C_gamma at the nodes of a fold, without the public gates.

    Inside, K (1 + gamma rho/d) with K = Gamma(2 - gamma/2) Gamma(y) /
    Gamma(d/2), y = (gamma + d)/2, a ``_gamma_quotient`` whose fourth
    factor is Gamma(2) = 1, finite at any d.
    """
    z, gap, outer = fold.spread(fold.z), fold.spread(fold.gap), fold.outer
    value = np.empty_like(z)
    y = (gamma + d) / 2.0
    value[~outer] = _gamma_quotient(d / 2.0, y, 2.0 - y) * (1.0 + gamma * z[~outer] / d)
    f = _hyp2f1(-gamma / 2.0, (2.0 - gamma - d) / 2.0, 2.0 - gamma / 2.0, z[outer], gap[outer])
    value[outer] = fold.power(gamma) * f
    return value


def ball_potential(d, gamma: float, x_norm):
    """Weighted ball integral of |x - y|^gamma against (1-|y|^2)^((2-gamma-d)/2).

    Defined for -d < gamma < -d + 4, where the weight is integrable.
    Equals C_gamma times a profile in rho = x_norm^2 (C_gamma from
    :func:`quadratic_ball_moment`), just as :func:`sphere_potential` is
    |S^(d-1)| times psi_gamma.  Inside the ball the profile is exactly
    affine in rho; outside it is rho^(gamma/2) times a hypergeometric
    factor in 1/rho, taken as x_norm^gamma times the factor at
    1/x_norm^2, so no x_norm^2 overflows.  At x_norm = 1 the two
    branches share a common limit and the (affine) inner value is
    returned.
    """
    c_gamma, _ = quadratic_ball_moment(d, gamma)
    x = _check_rho(x_norm, "x_norm")
    return _shaped(x_norm, c_gamma * _ball_raw(int(d), gamma, _fold(x, root=2)))


def quadratic_ball_moment(d, beta: float):
    """Normalization C_beta and second-moment coefficient of the ball profile.

    Returns (C_beta, d/(4-beta)) with
    C_beta = pi^(d/2) Gamma((4-beta-d)/2) / Gamma((4-beta)/2), so that
    the quadratic-kernel potential of the unnormalized profile equals
    C_beta (|x|^2 + d/(4-beta)) / 2.  With y = (beta + d)/2 in (0, 2) it
    is taken as |S^(d-1)| Gamma(y) Gamma(2 - y) / (2K), K the interior
    constant of ``_ball_raw``, since C_beta K = pi^(d/2) Gamma(y)
    Gamma(2 - y) / Gamma(d/2): a float up to d = 343, and DomainError
    from d = 344, where ``unit_sphere_area`` refuses.
    """
    d = _whole("d", d, 1)
    if not -d < beta < -d + 4:
        raise DomainError(f"need -d < beta < -d+4, got beta={beta} in d={d}")
    y = (beta + d) / 2.0
    k = _gamma_quotient(d / 2.0, y, 2.0 - y)
    c_beta = unit_sphere_area(d) * gamma_fn(y) * gamma_fn(2.0 - y) / (2.0 * k)
    return (c_beta, d / (4.0 - beta))


@functools.lru_cache(maxsize=16)
def _coefficients(d: int, c0: float):
    """The coefficients c_1..c_N of the log series, and whether they sum it.

    c_n = (a0)_n / ((c0)_n n) with a0 = (2-d)/2, in floats, cut after the
    last nonzero one.  They are taken to n = 64 up to d = 168 and to
    5 sqrt(d) beyond: the sphere's coefficients fall like exp(-2 n^2 / d)
    before their power-law tail, so at large d the sum needs about
    4.4 sqrt(d) terms.  At even d, a0 is a non-positive integer and c_n
    is 0 from n = d/2 on, so N is d/2 - 1 where that is shorter: none in
    d = 2, one in d = 4.  The flag is true where the N terms give the
    series to double precision on all of [0, 1]: in d = 2, where every
    term is 0, and for the sphere (c0 = d/2, where |c_n| <= 1/n) once
    the last computed term times their count, a bound on the tail at
    z = 1, is below eps/16: even d, where the series terminates, and odd
    d >= 13.  The ball's terms grow like binomials before they fall, so
    they cancel near z = 1 at large d.  The result is cached, since it
    depends on (d, c0) alone, and its array is read-only, because the
    cache hands it to every caller.
    """
    n = np.arange(1.0, max(64, 5 * math.isqrt(d)) + 1.0)
    coef = np.cumprod(((2.0 - d) / 2.0 + n - 1.0) / (c0 + n - 1.0)) / n
    sphere_tail = abs(coef[-1]) * n.size if c0 == d / 2.0 else math.inf
    coef = np.trim_zeros(coef, "b")
    coef.setflags(write=False)
    return coef, bool(sphere_tail < _EPS / 16.0 or not coef.size)


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

    Nodes z <= 1/2 take one power sum by ``special._horner``, over the
    cached coefficients of _coefficients (at most 64 up to d = 168, and only
    the nonzero ones where the series terminates), which converges at
    least like 2^-n there; so do all nodes where that sum is exact on
    [0, 1]: the sphere's series at even d, where it terminates, and from
    d = 13.
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
    out[near] = _horner(coef[None], zs)[0] * zs
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
    d = _whole("d", d, 2)
    return _shaped(rho, _tilde_psi0_fold(d, _fold(nodes)))


def _tilde_psi0_fold(d: int, fold: _Fold) -> np.ndarray:
    """tilde_psi0 at the nodes of a fold, without the public gate:
    -T(z)/2 once per folded node, plus ln(rho)/2 outside."""
    value = fold.spread(-0.5 * _log_series(d, d / 2.0, fold.z))
    value[fold.outer] += fold.half_log()
    return value


def _log_ball_lambda(d: int, fold: _Fold) -> np.ndarray:
    """Normalized log-kernel potential piece of the unit ball profile,
    at the nodes of a fold.

    Interior: -S(1)/2 - 1/d + rho/d, exactly affine, where
    -S(1)/2 - 1/d = (digamma(d/2) - digamma(2))/2, a finite sum at
    these arguments (``special.digamma``).
    Exterior: ln(rho)/2 - S(1/rho)/2.  Continuous at rho = 1.
    """
    z = fold.spread(fold.z)
    value = np.empty_like(z)
    inner = ~fold.outer
    value[inner] = 0.5 * (digamma(d / 2.0) - digamma(2.0)) + z[inner] / d
    value[fold.outer] = fold.half_log() - 0.5 * _log_series(d, 2.0, z[fold.outer])
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
    naming the first such node.  The gates are checked here; the value
    is ``_potential`` at rho.
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
    with np.errstate(over="ignore"):
        rho = np.square(x / r_cand)
    value = _require_finite(_potential(params, candidate, rho, _fold(rho)), x, "x_norm")
    return _shaped(x_norm, value)


def _require_finite(value: np.ndarray, nodes: np.ndarray, name: str) -> np.ndarray:
    """``value``, or DomainError naming the first node where it is not finite."""
    finite = np.isfinite(value)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(
            f"potential at {name}={float(nodes[i])!r} is not finite: {float(value[i])!r}"
        )
    return value


def _potential(
    params: KernelParams, candidate: CandidateMinimizer, rho: np.ndarray, fold: _Fold
) -> np.ndarray:
    """total_potential at the nodes rho = (x_norm/R)^2, given with their
    fold, without the gates: inf or nan where the value leaves the float
    range.  A sphere profile pays once for each distinct folded node."""
    d, alpha, beta = params.d, params.alpha, params.beta
    r_cand = candidate.radius
    with np.errstate(over="ignore", invalid="ignore"):
        if candidate.kind == "UniformSphere":
            attract = r_cand**alpha / alpha * _psi_fold(d, alpha, fold)
            log_profile, profile = _tilde_psi0_fold, _psi_fold
        else:
            r2 = r_cand * r_cand
            attract = 0.5 * r2 * rho + r2 * d / (2.0 * (4.0 - beta))
            log_profile, profile = _log_ball_lambda, _ball_raw
        if params.beta_is_log:
            return attract - math.log(r_cand) - log_profile(d, fold)
        return attract - r_cand**beta / beta * profile(d, beta, fold)
