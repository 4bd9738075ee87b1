"""Explicit minimizers of the attractive-repulsive interaction energy.

For W(r) = r^alpha/alpha - r^beta/beta over probability measures on R^d
there are two exactly solvable regimes:

* 2 <= alpha <= 4 with beta_star(alpha) <= beta <= 2 (and beta < alpha):
  the minimizer is the uniform measure on a sphere whose radius and
  energy are gamma-function expressions;
* alpha = 2 with -d < beta < min(2, 4-d): the minimizer is supported on
  a full ball with density proportional to (R^2-|x|^2)^((2-beta-d)/2).

The critical curve beta_star separates sphere-supported minimizers from
fatter ones.  At (alpha, beta) = (4, 2) the two constraints meet and
minimizers stop being unique; the sphere formulas remain valid there
and the point is tagged Boundary.  Logarithmic kernels (exponent 0 via
the ``*_is_log`` flags) are the continuous limits of either family.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IllConditioned, RegimeError
from .params import CandidateMinimizer, KernelParams, RegimeTag, _whole
from .potentials import _fold, _potential, _require_finite, quadratic_ball_moment
from .special import _gamma_quotient, digamma

__all__ = [
    "beta_star",
    "classify",
    "radius",
    "energy",
    "eta",
    "ball_density",
    "candidate_for",
]

_SPHERE_TAGS = ("SphereTheorem1", "Boundary")
_SUPPORTED = _SPHERE_TAGS + ("BallTheorem2",)
_BETA_CONDITION_FLOOR = 1e-6
# The probe node of ``eta``, folded once: rho = 1 on the sphere, its
# surface, and rho = 0 in the ball, its center.
_SPHERE_PROBE = _fold(np.array([1.0])).frozen()
_BALL_PROBE = _fold(np.array([0.0])).frozen()


def beta_star(d, alpha: float) -> float:
    """Critical repulsion exponent: the sphere stops minimizing below it.

    beta_star(alpha) = (-10 + 3 alpha + 7 d - alpha d - d^2) / (d + alpha - 3),
    a decreasing function of alpha with beta_star(2) = -d + 4 and values
    pinned to the interval (-d + 3, -d + 4].
    """
    d = _whole("d", d, 2)
    if not 2 <= alpha < math.inf:
        raise DomainError(f"need finite alpha >= 2, got {alpha}")
    return (-10.0 + 3.0 * alpha + 7.0 * d - alpha * d - d * d) / (d + alpha - 3.0)


def classify(params: KernelParams) -> RegimeTag:
    """Decide which closed-form family (if any) covers the parameters.

    Ties are resolved toward the sphere: beta equal to beta_star or to 2
    still classifies as SphereTheorem1.  The corner (alpha, beta) = (4, 2)
    is tagged Boundary, where minimizers exist but are no longer unique.

    Both special branches compare floats exactly, with no tolerance:
    only alpha == 2.0 selects BallTheorem2, and only exactly
    (alpha, beta) == (4.0, 2.0) selects Boundary.  A neighbouring float
    is SphereTheorem1 or OutOfScope; next to the corner the sphere
    formulas give the Boundary values to rounding.
    """
    d, a, b = params.d, params.alpha, params.beta
    if params.alpha_is_log or a < 2.0 or a > 4.0:
        return RegimeTag("OutOfScope", "alpha out of supported range")
    if d >= 2 and a == 4.0 and b == 2.0:
        return RegimeTag(
            "Boundary", "alpha=4, beta=2: sphere formulas hold, minimizer not unique"
        )
    if d >= 2:
        bs = beta_star(d, a)
        if bs <= b <= 2.0 and b < a:
            return RegimeTag("SphereTheorem1", f"sphere regime, beta_star={bs!r}")
    if a == 2.0 and b < min(2.0, 4.0 - d):
        return RegimeTag("BallTheorem2", "ball regime, alpha=2")
    if d < 2:
        return RegimeTag("OutOfScope", "only alpha = 2 is supported in dimension 1")
    if b > 2.0:
        return RegimeTag("OutOfScope", "beta above 2 is outside both regimes")
    return RegimeTag(
        "OutOfScope",
        f"beta below beta_star(alpha) = {beta_star(d, a)!r} with alpha != 2",
    )


def _require_well_conditioned(params: KernelParams) -> None:
    """Refuse a power-law beta so close to 0 that r^beta/beta cancels.

    The formulas divide by beta, and near 0 they approach the 1/beta
    divergence of the power kernel, not the logarithmic limit that the
    ``beta_is_log`` flag selects.
    """
    if not params.beta_is_log and abs(params.beta) < _BETA_CONDITION_FLOOR:
        raise IllConditioned(
            "beta within 1e-6 of 0 cancels catastrophically; use beta_is_log"
        )


def _radius_sphere(d: int, alpha: float, beta: float) -> float:
    # (2R)^(alpha-beta) is a Gamma quotient, finite at any d.
    return 0.5 * _gamma_quotient(
        d - 1.0 + beta / 2.0, (d + beta - 1.0) / 2.0, (alpha - beta) / 2.0, 1.0 / (alpha - beta)
    )


def _radius_ball(d: int, beta: float) -> float:
    # R^(2-beta) = Gamma((4 - beta)/2) Gamma(y) / Gamma(1 + d/2), a Gamma
    # quotient with y = (beta + d)/2 in (0, 2) in the regime, finite at any d.
    y = (beta + d) / 2.0
    return _gamma_quotient(1.0 + d / 2.0, y, 1.0 - y, 1.0 / (2.0 - beta))


def radius(params: KernelParams) -> float:
    """Support radius of the minimizer (sphere radius or ball radius)."""
    return candidate_for(params).radius


def _energy_sphere(d: int, alpha: float, beta: float, beta_is_log: bool, r: float) -> float:
    if beta_is_log:
        return 0.5 / alpha - 0.5 * math.log(2.0 * r) + 0.25 * (
            digamma(d - 1.0) - digamma((d - 1.0) / 2.0)
        )
    # -pi^(-1/2) 2^(d+alpha-3) Gamma(d/2)Gamma((d+alpha-1)/2) / Gamma(d-1+alpha/2),
    # a Gamma quotient by the duplication formula for Gamma(d-1).
    coef = -(2.0 ** (alpha - 1.0)) * _gamma_quotient((d - 1.0) / 2.0, d - 1.0, alpha / 2.0)
    return coef * (1.0 / beta - 1.0 / alpha) * r**alpha


def _energy_ball(d: int, beta: float, beta_is_log: bool, r: float) -> float:
    if beta_is_log:
        return 0.25 * (0.5 + math.log(d / 2.0) + digamma(2.0) - digamma(d / 2.0))
    return -d * (2.0 - beta) / (2.0 * beta * (4.0 - beta)) * r * r


def _energy(params: KernelParams, cand: CandidateMinimizer) -> float:
    d, beta, log = params.d, params.beta, params.beta_is_log
    if cand.kind == "BallProfile":
        value = _energy_ball(d, beta, log, cand.radius)
    else:
        value = _energy_sphere(d, params.alpha, beta, log, cand.radius)
    if not math.isfinite(value):
        raise DomainError(f"energy is not finite in d={d}, got {value}")
    return value


def energy(params: KernelParams) -> float:
    """Minimum interaction energy in a supported regime, from the radius
    of ``candidate_for``; finite at any d."""
    return _energy(params, candidate_for(params))


def candidate_for(params: KernelParams) -> CandidateMinimizer:
    """The minimizing measure: the package's one sphere-or-ball decision.

    BallTheorem2 gives the ball profile; SphereTheorem1 and Boundary give
    the uniform sphere of ``_sphere_candidate``.  Raises RegimeError out
    of scope, and IllConditioned for a power-law beta next to 0.
    """
    tag = classify(params)
    if tag.tag not in _SUPPORTED:
        raise RegimeError(tag.detail)
    if tag.tag in _SPHERE_TAGS:
        return _sphere_candidate(params)
    _require_well_conditioned(params)
    return CandidateMinimizer("BallProfile", _radius_ball(params.d, params.beta))


def _sphere_candidate(params: KernelParams) -> CandidateMinimizer:
    """The sphere of radius R = ``_radius_sphere``: the candidate of the
    sphere regime, and the one that the sphere instruments test at any
    point (Psi, Psi''(1), the convexity report and the forced
    Euler-Lagrange audit).  Their one gate: a point is refused here, with
    RegimeError, or with IllConditioned for a power-law beta next to 0.
    Every point of the sphere regime passes it, and R is finite at every
    point it accepts."""
    d, beta = params.d, params.beta
    if params.alpha_is_log or not 2.0 <= params.alpha <= 4.0:
        raise RegimeError("alpha out of supported range")
    if d < 2:
        raise RegimeError("the sphere combination needs d >= 2")
    if not params.beta_is_log and not d + beta > 2:
        raise RegimeError(f"the sphere combination needs d + beta > 2, got {d + beta}")
    _require_well_conditioned(params)
    return CandidateMinimizer("UniformSphere", _radius_sphere(d, params.alpha, beta))


def ball_density(params: KernelParams, r: float) -> float:
    """Radial density of the ball-regime minimizer at distance r from its center.

    Zero outside the support radius.  Total mass is 1 by the choice of
    the C_beta normalization.  Inside it, from d = 344, where C_beta
    needs |S^(d-1)| (``unit_sphere_area``), raises DomainError.
    """
    cand = candidate_for(params)
    if cand.kind != "BallProfile":
        raise RegimeError("ball density needs the alpha=2 ball regime, not the sphere")
    if not r >= 0:
        raise DomainError(f"r must be >= 0, got {r}")
    big_r = cand.radius
    if r >= big_r:
        return 0.0
    exponent = (2.0 - params.beta - params.d) / 2.0
    c_beta, _ = quadratic_ball_moment(params.d, params.beta)
    return big_r ** (params.beta - 2.0) / c_beta * (big_r * big_r - r * r) ** exponent


def _checked_eta(params: KernelParams, cand: CandidateMinimizer, at_probe: float) -> float:
    """2E, held within 1e-12 max(1, |2E|) of ``at_probe``, the candidate's
    potential at its probe (the sphere's surface, or the ball's center);
    IllConditioned where the two routes disagree."""
    value = 2.0 * _energy(params, cand)
    if not abs(value - at_probe) <= 1e-12 * max(1.0, abs(value)):
        raise IllConditioned(
            f"eta routes disagree: 2E={value!r} vs potential={at_probe!r}"
        )
    return value


def eta(params: KernelParams) -> float:
    """Constant value of the minimizer's potential on its own support.

    Always exactly twice the energy; computed that way, then cross-checked
    against an independent evaluation of the candidate's potential at
    its probe, a support point folded once at import (rho = 1 on the
    sphere surface, rho = 0 at the ball center), with no gate past
    ``candidate_for``'s.  A probe value that is not finite raises
    DomainError, naming the probe's radius x_norm.  The two routes
    share the candidate's radius and ``special._gamma_quotient``, which
    the sphere's energy and the Gauss value of its profile at rho = 1
    both take, and nothing else, so their agreement is a real
    consistency test of the formulas.  ``verify_euler_lagrange`` holds
    2E to its own grid by the same rule.
    """
    cand = candidate_for(params)
    sphere = cand.kind == "UniformSphere"
    probe = _SPHERE_PROBE if sphere else _BALL_PROBE
    value = _potential(params, cand, probe.z, probe)
    _require_finite(value, [cand.radius if sphere else 0.0], "x_norm")
    return _checked_eta(params, cand, float(value[0]))
