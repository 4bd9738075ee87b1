"""Independent numerical verification of the closed forms.

Three kinds of checks live here:

* quadrature oracles for the sphere and ball potentials, built on
  adaptive Gauss-Kronrod integration with the singular points declared,
  sharing no code with the hypergeometric evaluation;
* the variational sufficiency test: the candidate's potential must be
  constant (= eta) on its support and no smaller anywhere else;
* convexity instruments for the combination Psi whose convexity drives
  the exterior inequality, including the exact second derivative at the
  branch point whose sign flips across the critical curve beta_star.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_form import candidate_for, classify, eta as closed_form_eta
from .closed_form import _radius_sphere, _require_well_conditioned
from .errors import DomainError, QuadratureFailure, RegimeError
from .params import CandidateMinimizer, KernelParams
from .potentials import (
    _check_dim,
    _seam_curvature,
    psi_gamma,
    psi_values_at_one,
    tilde_psi0,
    total_potential,
    unit_sphere_area,
)
# The scalar hyp2f1 stays importable here for the tracer in bench/tracing.py,
# which wraps it where this module looks it up; verify itself calls _hyp2f1.
from .special import _hyp2f1, hyp2f1  # noqa: F401

__all__ = [
    "ELReport",
    "ConvexityReport",
    "sphere_potential_quad",
    "ball_potential_quad",
    "verify_euler_lagrange",
    "psi_capital",
    "psi_capital_dd_at_one",
    "convexity_report",
    "single_zero_scan",
]

def _quiet_quad(*args, **kwargs):
    # Imported here so that only the quadrature oracles pay for loading
    # scipy.integrate.  The roundoff-in-extrapolation warning fires even
    # when the error estimate is fine; the callers check that estimate
    # themselves.
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(*args, **kwargs)


def sphere_potential_quad(d, gamma: float, x_norm: float) -> float:
    """Surface integral of |x - w|^gamma over the unit sphere, by quadrature.

    Polar coordinates reduce it to a colatitude integral.  The squared
    distance is evaluated as (x-1)^2 + 4x sin^2(theta/2), which is exact
    where the naive x^2 - 2x cos(theta) + 1 cancels catastrophically.
    On the sphere itself (x = 1) the integrand has an algebraic
    singularity theta^(gamma+d-2) at 0; it is split off exactly and
    handled by the weighted Clenshaw-Curtis rule.
    """
    d = _check_dim(d, 2)
    gamma = float(gamma)
    x = float(x_norm)
    if not x >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x}")
    if gamma == 0.0:
        return unit_sphere_area(d)
    c_ang = unit_sphere_area(d - 1)
    if x == 1.0:
        if not gamma > 1 - d:
            raise DomainError(
                f"surface integral diverges at |x| = 1 for gamma <= {1 - d}"
            )

        def smooth(theta):
            # 2 sin(t/2) = t sinc(t/2pi) and sin t = t sinc(t/pi): the
            # full theta power is pulled into the quadrature weight.
            return np.sinc(theta / (2 * math.pi)) ** gamma * np.sinc(
                theta / math.pi
            ) ** (d - 2)

        raw, err = _quiet_quad(
            smooth,
            0.0,
            math.pi,
            weight="alg",
            wvar=(gamma + d - 2.0, 0.0),
            epsrel=1e-12,
            epsabs=0.0,
            limit=200,
        )
    else:
        base = (x - 1.0) ** 2

        def integrand(theta):
            dist2 = base + 4.0 * x * math.sin(0.5 * theta) ** 2
            return dist2 ** (0.5 * gamma) * math.sin(theta) ** (d - 2)

        raw, err = _quiet_quad(integrand, 0.0, math.pi, epsrel=1e-12, epsabs=0.0, limit=200)
    value = c_ang * raw
    if not math.isfinite(value) or c_ang * err > 1e-10 * max(1.0, abs(value)):
        raise QuadratureFailure(
            f"sphere quadrature error {c_ang * err!r} too large at "
            f"(d={d}, gamma={gamma}, x={x})"
        )
    return value


def ball_potential_quad(d, gamma: float, x_norm: float) -> float:
    """Weighted ball integral of |x - y|^gamma, by nested quadrature.

    Polar coordinates are centered at the evaluation point, not the
    origin: the kernel singularity then sits purely in the radial
    factor s^(gamma+d-1), which the outer rule integrates exactly,
    while the inner cap integral over directions has only endpoint
    algebraic singularities (from the boundary weight and the colatitude
    measure), which QUADPACK's algebraic-weight rule (QAWS) takes into
    its weight.  Shell-centered coordinates would instead
    produce an interior peak whose width shrinks as the outer rule
    refines toward s = x, which defeats the extrapolation.
    """
    d = _check_dim(d, 1)
    gamma = float(gamma)
    x = float(x_norm)
    if not -d < gamma < -d + 4:
        raise DomainError(f"need -d < gamma < -d+4, got gamma={gamma} in d={d}")
    if not x >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x}")
    p = (2.0 - gamma - d) / 2.0

    if d == 1:

        def line(y):
            return abs(x - y) ** gamma * (1.0 - y * y) ** p

        pts = [x, -x] if 0.0 < x < 1.0 else ([0.0] if x == 0.0 else None)
        value, err = _quiet_quad(
            line, -1.0, 1.0, points=pts, epsrel=1e-11, epsabs=1e-13, limit=400
        )
        if not math.isfinite(value) or err > 1e-8 * max(1.0, abs(value)):
            raise QuadratureFailure(
                f"line quadrature error {err!r} too large at (gamma={gamma}, x={x})"
            )
        return value

    if x == 0.0:

        def radial(s):
            return s ** (gamma + d - 1) * (1.0 - s * s) ** p

        raw, err = _quiet_quad(radial, 0.0, 1.0, epsrel=1e-11, epsabs=1e-13, limit=400)
        value = unit_sphere_area(d) * raw
        err *= unit_sphere_area(d)
    else:
        c_ang = unit_sphere_area(d - 1)
        q = (d - 3) / 2.0

        def cap(s):
            # Directions omega with |x e1 + s omega| <= 1, i.e.
            # cos(angle) u below u_hi; the weight (1 - |y|^2)^p becomes
            # (w - 2 s x u)^p with w = 1 - x^2 - s^2, and the colatitude
            # measure is (1 - u)^q (1 + u)^q.  QUADPACK's algebraic weight
            # takes the endpoint powers exactly.
            w = 1.0 - x * x - s * s
            sx2 = 2.0 * s * x
            u_hi = w / sx2
            if u_hi <= -1.0:
                return 0.0
            if u_hi < 1.0:
                # Partial cap: (w - 2 s x u)^p = (2 s x)^p (u_hi - u)^p.
                raw, _ = _quiet_quad(
                    lambda u: (1.0 - u) ** q, -1.0, u_hi, weight="alg",
                    wvar=(q, p), epsrel=1e-11, epsabs=0.0, limit=200,
                )
                return c_ang * sx2**p * raw
            raw, _ = _quiet_quad(
                lambda u: (w - sx2 * u) ** p, -1.0, 1.0, weight="alg",
                wvar=(q, q), epsrel=1e-11, epsabs=0.0, limit=200,
            )
            return c_ang * raw

        def shell(s):
            return s ** (gamma + d - 1) * cap(s)

        s_lo, s_hi = max(0.0, x - 1.0), x + 1.0
        # The cap first touches the whole sphere of directions at
        # s = 1 - x, a kink in the outer integrand.
        pts = [1.0 - x] if 0.0 < x < 1.0 else None
        value, err = _quiet_quad(
            shell, s_lo, s_hi, points=pts, epsrel=1e-11, epsabs=1e-13, limit=400
        )
    if not math.isfinite(value) or err > 1e-9 * max(1.0, abs(value)):
        raise QuadratureFailure(
            f"ball quadrature error {err!r} too large at (d={d}, gamma={gamma}, x={x})"
        )
    return value


@dataclass(frozen=True)
class ELReport:
    """Outcome of the variational sufficiency check on a grid.

    ``support_max_abs_dev`` is the worst |potential - eta| over support
    nodes; ``exterior_min_margin`` the smallest potential - eta off the
    support (negative means the candidate fails).  ``passed`` holds
    both to the one tolerance ``tol``.
    """

    eta: float
    support_max_abs_dev: float
    exterior_min_margin: float
    grid: tuple
    passed: bool
    tol: float


@dataclass(frozen=True)
class ConvexityReport:
    """Raw second differences of Psi on a kink-aware uniform grid."""

    grid: tuple
    min_second_difference: float
    psi_dd_at_one: float
    passed: bool
    tol: float


def _el_grid(n_grid: int) -> np.ndarray:
    # Every profile's outer branch is rho^(gamma/2) F(1/rho), so the
    # exterior is [0, 1] again in 1/rho.  The half-grid on [0, 1] is a
    # low block, the lower half of the cubic warp 2^(u^3), u in [-1, 1],
    # that clusters nodes at the tight support boundary, and rho = 1
    # exactly; its positive nodes are mirrored.  Odd n_grid loses a node.
    n_low = int(round(0.2 * n_grid))
    n_warp = n_grid // 2 - n_low
    u = np.linspace(-1.0, 1.0, 2 * n_warp)[:n_warp]
    low = np.linspace(0.0, 0.5, n_low, endpoint=False)
    half = np.concatenate([low, 2.0 ** (u**3), [1.0]])
    return np.concatenate([half, 1.0 / half[-2:0:-1]])


def verify_euler_lagrange(
    params: KernelParams, n_grid: int = 2000, *, force_sphere: bool = False
) -> ELReport:
    """Check the sufficiency conditions for the candidate minimizer.

    Evaluates the candidate's potential on a grid of squared scaled
    radii: it must equal eta on the support (the sphere rho = 1, or the
    ball rho <= 1) and exceed eta - tol outside.  The grid is closed
    under rho -> 1/rho and reaches rho = 0.4 n_grid (800 at the default
    2000 nodes).  With ``force_sphere`` a sphere candidate is tested
    even where the classification picks the ball or nothing; below the
    critical curve this makes the report fail, which is the point of
    the flag.
    """
    if n_grid < 100:
        raise DomainError(f"n_grid must be at least 100, got {n_grid}")
    if force_sphere and classify(params).tag not in ("SphereTheorem1", "Boundary"):
        if not params.beta_is_log and not params.d + params.beta > 2:
            raise RegimeError("forced sphere candidate needs d + beta > 2")
        _sphere_compatible(params)
        cand = CandidateMinimizer(
            "UniformSphere", _radius_sphere(params.d, params.alpha, params.beta)
        )
        # Off-regime there is no energy formula; anchor eta at the
        # candidate's own surface value so the support condition is
        # exact and any failure shows up as an exterior dip.
        eta_val = total_potential(params, cand, cand.radius)
    else:
        cand = candidate_for(params)
        eta_val = closed_form_eta(params)

    grid = _el_grid(n_grid)
    values = total_potential(params, cand, cand.radius * np.sqrt(grid))
    deviation = values - eta_val
    support = grid == 1.0 if cand.kind == "UniformSphere" else grid <= 1.0
    tol = 1e-9 * max(1.0, abs(eta_val))
    dev_support = float(np.max(np.abs(deviation[support])))
    margin = float(np.min(deviation[~support]))
    passed = dev_support <= tol and margin >= -tol
    return ELReport(
        eta=float(eta_val),
        support_max_abs_dev=dev_support,
        exterior_min_margin=margin,
        grid=tuple(float(g) for g in grid),
        passed=passed,
        tol=tol,
    )


def _sphere_compatible(params: KernelParams) -> None:
    if params.alpha_is_log or not 2.0 <= params.alpha <= 4.0:
        raise RegimeError("alpha out of supported range")
    if params.d < 2:
        raise RegimeError("the sphere combination needs d >= 2")
    _require_well_conditioned(params)


def psi_capital(params: KernelParams, rho):
    """The convexity combination Psi at squared scaled radius rho.

    Psi = v_beta psi_alpha / (4 psi_alpha'(1)) - psi_beta/beta with
    v_beta = psi_beta(1), so that its derivative vanishes at rho = 1
    (psi_beta'(1) = beta v_beta / 4).  The log kernel is beta = 0:
    v_beta = 1 and psi_beta/beta becomes tilde_psi0.  A scalar rho gives
    a float, an array of nodes an array; the two seam values are
    computed once per call, and each profile is one call over the nodes.
    """
    _sphere_compatible(params)
    d, alpha, beta = params.d, params.alpha, params.beta
    _, pa1, _ = psi_values_at_one(d, alpha)
    scale = 0.25 * psi_values_at_one(d, beta)[0]
    repel = tilde_psi0(d, rho) if params.beta_is_log else psi_gamma(d, beta, rho) / beta
    return scale * psi_gamma(d, alpha, rho) / pa1 - repel


def psi_capital_dd_at_one(params: KernelParams) -> float:
    """Exact second derivative of Psi at rho = 1.

    Psi''(1) = v_beta (k(alpha) - k(beta)) / 4 with the seam-curvature
    ratio k(gamma) = psi_gamma''(1) / psi_gamma'(1) and v_beta =
    psi_beta(1); the log kernel is beta = 0 with v_beta = 1.  beta_star
    is the second root of k(beta) = k(alpha), so the sign is the sharp
    local test: nonnegative exactly when beta is at or above
    beta_star(alpha).  Requires d + beta > 3 for the second derivative
    of psi_beta to exist.
    """
    _sphere_compatible(params)
    d, beta = params.d, params.beta
    if not d + beta > 3:
        raise DomainError(f"need d + beta > 3, got {d + beta}")
    v_beta = psi_values_at_one(d, beta)[0]
    return 0.25 * v_beta * (_seam_curvature(d, params.alpha) - _seam_curvature(d, beta))


def convexity_report(
    params: KernelParams, rho_max: float = 10.0, n_grid: int = 400
) -> ConvexityReport:
    """Scan raw second differences of Psi over [0, rho_max].

    The grid is uniform on each side of rho = 1 with no stencil
    straddling the branch point, since psi_beta is typically only C^1
    there.  ``psi_dd_at_one`` carries the closed-form second derivative
    when it exists (d + beta > 3) and nan otherwise.  The report passes
    only if no second difference and no finite ``psi_dd_at_one`` falls
    below -tol: just under beta_star the negative curvature sits so close
    to rho = 1 that the grid alone can miss it.
    """
    _sphere_compatible(params)
    if not 1 < rho_max < math.inf:
        raise DomainError(f"rho_max must be finite and exceed 1, got {rho_max}")
    if n_grid < 10:
        raise DomainError(f"n_grid must be at least 10, got {n_grid}")
    n_left = max(5, int(round(n_grid / rho_max)))
    n_right = max(5, n_grid - n_left)
    left = np.linspace(0.0, 1.0, n_left)
    right = np.linspace(1.0, rho_max, n_right)
    grid = np.concatenate([left, right[1:]])
    vals = psi_capital(params, grid)
    # left ends and right starts at rho = 1, index n_left - 1.
    second = np.concatenate(
        [np.diff(vals[:n_left], n=2), np.diff(vals[n_left - 1 :], n=2)]
    )
    min_sd = float(np.min(second))
    try:
        dd = psi_capital_dd_at_one(params)
    except DomainError:
        dd = math.nan
    tol = 1e-7
    return ConvexityReport(
        grid=tuple(float(g) for g in grid),
        min_second_difference=min_sd,
        psi_dd_at_one=dd,
        passed=min_sd >= -tol and (math.isnan(dd) or dd >= -tol),
        tol=tol,
    )


def single_zero_scan(
    a1: float, b1: float, a2: float, b2: float, c: float, q: float, n_grid: int
) -> str:
    """Sign pattern of g(z) = F(a1,b1;c;z) - q F(a2,b2;c;z) on [0, 1].

    Under the hypotheses q > 0, 0 < a2 < a1, 0 < b2 < b1, c > a1 + b1
    the difference has at most one zero and crosses upward.  Returns the
    run-length-collapsed pattern over {'-', '0', '+'}, e.g. "-+" for a
    single crossing; values within 1e-12 of the local term size count
    as zero.
    """
    if not q > 0:
        raise DomainError(f"need q > 0, got {q}")
    if not 0 < a2 < a1:
        raise DomainError(f"need 0 < a2 < a1, got a2={a2}, a1={a1}")
    if not 0 < b2 < b1:
        raise DomainError(f"need 0 < b2 < b1, got b2={b2}, b1={b1}")
    if not c > a1 + b1:
        raise DomainError(f"need c > a1 + b1, got c={c}")
    if n_grid < 2:
        raise DomainError(f"n_grid must be at least 2, got {n_grid}")
    z = np.linspace(0.0, 1.0, n_grid)
    f1 = _hyp2f1(a1, b1, c, z)
    f2 = _hyp2f1(a2, b2, c, z)
    g = f1 - q * f2
    zero = np.abs(g) <= 1e-12 * (np.abs(f1) + q * np.abs(f2))
    symbols = np.where(zero, "0", np.where(g > 0, "+", "-"))
    keep = np.concatenate([[True], symbols[1:] != symbols[:-1]])
    return "".join(symbols[keep])
