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

from .closed_form import _SPHERE_TAGS, _checked_eta, _sphere_candidate, candidate_for, classify
from .errors import DomainError, QuadratureFailure
from .params import CandidateMinimizer, KernelParams, _whole
from .potentials import (
    _Fold,
    _check_rho,
    _fold,
    _potential,
    _require_finite,
    _seam_curvature,
    _shaped,
    psi_values_at_one,
    unit_sphere_area,
)
from .special import _hyp2f1

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

def _quad(oracle: str, where: str, rtol: float, f, a: float, b: float, **kwargs) -> float:
    """The integral of f over [a, b] by QUADPACK, with epsabs = 0.

    Raises QuadratureFailure, naming the oracle and the point, where the
    value is not finite or the error estimate exceeds rtol |value|.
    Every integrand of the oracles is positive, so the test is relative.
    scipy.integrate is imported here, so that only the oracles pay for
    loading it.  The roundoff-in-extrapolation warning fires even when
    the error estimate is fine, so it is silenced and the estimate is
    checked instead.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(f, a, b, epsabs=0.0, **kwargs)
    if not (math.isfinite(value) and err <= rtol * abs(value)):
        raise QuadratureFailure(f"{oracle} quadrature error {err!r} too large at {where}")
    return value


def sphere_potential_quad(d, gamma: float, x_norm: float) -> float:
    """Surface integral of |x - w|^gamma over the unit sphere, by quadrature.

    Polar coordinates reduce it to a colatitude integral.  The squared
    distance is evaluated as (x-1)^2 + 4x sin^2(theta/2), which is exact
    where the naive x^2 - 2x cos(theta) + 1 cancels catastrophically.
    Next to the sphere the integrand peaks where theta is of order
    |x - 1|, so the breakpoints |x - 1| 100^k below pi are declared.
    On the sphere itself (x = 1) the integrand has an algebraic
    singularity theta^(gamma+d-2) at 0; it is split off exactly and
    handled by the weighted Clenshaw-Curtis rule.  The error estimate
    must be at most 1e-10 times the value.
    """
    d = _whole("d", d, 2)
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    x = float(x_norm)
    if not x >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x}")
    if gamma == 0.0:
        return unit_sphere_area(d)
    where = f"(d={d}, gamma={gamma}, x={x})"
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

        raw = _quad(
            "sphere", where, 1e-10, smooth, 0.0, math.pi,
            weight="alg", wvar=(gamma + d - 2.0, 0.0), epsrel=1e-12, limit=200,
        )
    else:
        base = (x - 1.0) ** 2

        def integrand(theta):
            dist2 = base + 4.0 * x * math.sin(0.5 * theta) ** 2
            return dist2 ** (0.5 * gamma) * math.sin(theta) ** (d - 2)

        gap = abs(x - 1.0)
        pts = [gap * 100.0**k for k in range(9) if gap * 100.0**k < math.pi] or None
        raw = _quad(
            "sphere", where, 1e-10, integrand, 0.0, math.pi,
            points=pts, epsrel=1e-12, limit=200,
        )
    return unit_sphere_area(d - 1) * raw


def ball_potential_quad(d, gamma: float, x_norm: float) -> float:
    """Weighted ball integral of |x - y|^gamma, by nested quadrature.

    Polar coordinates are centered at the evaluation point, not the
    origin: the kernel singularity then sits purely in the radial
    factor s^(gamma+d-1), while the inner cap integral over directions
    has only endpoint algebraic singularities (from the boundary weight
    and the colatitude measure), which QUADPACK's algebraic-weight rule
    (QAWS) takes into its weight.  Shell-centered coordinates would
    instead produce an interior peak whose width shrinks as the outer
    rule refines toward s = x, which defeats the extrapolation.  The
    outer variable is delta = s - x, and the direction's is
    v = 1 + cos(angle to x): in these the cap's edge
    v_hi = (1 - delta^2)/(2 s x) keeps its digits at any x, where
    1 - x^2 - s^2 loses them from x of about 1e4 on.  Each error
    estimate must be at most 1e-9 times its value (1e-8 on the line,
    d = 1).
    """
    d = _whole("d", d, 1)
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
        return _quad(
            "line", f"(gamma={gamma}, x={x})", 1e-8, line, -1.0, 1.0,
            points=pts, epsrel=1e-11, limit=400,
        )

    where = f"(d={d}, gamma={gamma}, x={x})"
    if x == 0.0:

        def radial(s):
            return s ** (gamma + d - 1) * (1.0 - s * s) ** p

        raw = _quad("ball", where, 1e-9, radial, 0.0, 1.0, epsrel=1e-11, limit=400)
        return unit_sphere_area(d) * raw
    c_ang = unit_sphere_area(d - 1)
    q = (d - 3) / 2.0

    def shell(delta):
        # Directions with |y| <= 1, y = x e1 + s omega: |y|^2 =
        # delta^2 + 2 s x v, so the cap is v <= v_hi and the weight
        # (1 - |y|^2)^p is (2 s x)^p (v_hi - v)^p; the colatitude
        # measure is v^q (2 - v)^q.  QUADPACK's algebraic weight takes
        # the endpoint powers exactly.
        s = x + delta
        sx2 = 2.0 * s * x
        v_hi = (1.0 - delta * delta) / sx2
        at = f"(d={d}, gamma={gamma}, x={x}, s={s})"
        if v_hi < 2.0:
            raw = _quad(
                "ball", at, 1e-9, lambda v: (2.0 - v) ** q, 0.0, v_hi,
                weight="alg", wvar=(q, p), epsrel=1e-11, limit=200,
            )
        else:  # the whole sphere of directions
            raw = _quad(
                "ball", at, 1e-9, lambda v: (v_hi - v) ** p, 0.0, 2.0,
                weight="alg", wvar=(q, q), epsrel=1e-11, limit=200,
            )
        return s ** (gamma + d - 1) * c_ang * sx2**p * raw

    # The cap first covers every direction at s = 1 - x, a kink in the
    # outer integrand.
    pts = [1.0 - 2.0 * x] if 0.0 < x < 1.0 else None
    return _quad(
        "ball", where, 1e-9, shell, max(-1.0, -x), 1.0,
        points=pts, epsrel=1e-11, limit=400,
    )


@dataclass(frozen=True)
class ELReport:
    """Outcome of the variational sufficiency check on its fixed grid.

    Locations are squared scaled radii rho = |x/R|^2, nodes of the grid
    that ``verify_euler_lagrange`` describes; on a tie the first node in
    grid order is reported.  A location means something only where its
    figure is well above rounding; at rounding level the node is
    arbitrary (at the (3, 2, log) ball point a 1e-16 change moved
    ``rho_worst_support`` from 0.14375 to 0.15).

    * ``eta``: the level the potential must hold on the support.
    * ``support_max_abs_dev``: the worst |potential - eta| over support
      nodes, at node ``rho_worst_support``.
    * ``exterior_min_margin``: the smallest potential - eta off the
      support (negative means the candidate fails), at node
      ``rho_worst_exterior``.
    * ``passed``: both figures within the one tolerance ``tol``; for a
      forced sphere, also no concave seam off its regime
      (``_concave_seam``).
    """

    eta: float
    support_max_abs_dev: float
    rho_worst_support: float
    exterior_min_margin: float
    rho_worst_exterior: float
    passed: bool
    tol: float


@dataclass(frozen=True)
class ConvexityReport:
    """Raw second differences of Psi on a kink-aware uniform grid.

    * ``min_second_difference``: the smallest second difference over the
      fixed grid that ``convexity_report`` describes, no stencil
      straddling rho = 1.
    * ``rho_min_second_difference``: the centre node of that stencil; on
      a tie the first in grid order.
    * ``psi_dd_at_one``: the exact Psi''(1), nan where it does not exist.
    * ``passed``: neither figure below -``tol``; off the sphere regime,
      Psi''(1) >= 0 with its sign decided exactly (``convexity_report``).
    """

    min_second_difference: float
    rho_min_second_difference: float
    psi_dd_at_one: float
    passed: bool
    tol: float


def _el_grid(n_grid: int) -> np.ndarray:
    # Every profile's outer branch is rho^(gamma/2) F(1/rho), so the
    # exterior is [0, 1] again in 1/rho.  The half-grid on [0, 1] is a
    # low block, the lower half of the cubic warp 2^(u^3), u in [-1, 1],
    # that clusters nodes at the tight support boundary, and rho = 1
    # exactly; its positive nodes are mirrored.  The inner nodes are
    # then taken as the reciprocals of the outer ones, so that 1/rho of
    # every outer node is an inner node bit for bit.
    n_low = int(round(0.2 * n_grid))
    n_warp = n_grid // 2 - n_low
    u = np.linspace(-1.0, 1.0, 2 * n_warp)[:n_warp]
    low = np.linspace(0.0, 0.5, n_low, endpoint=False)
    outer = 1.0 / np.concatenate([low[1:], 2.0 ** (u**3)])[::-1]
    return np.concatenate([[0.0], 1.0 / outer[::-1], [1.0], outer])


def _el_fold(grid: np.ndarray) -> _Fold:
    # The grid's fold, its index read off the grid's layout: 0, the inner
    # nodes and 1 are the distinct z, and the outer nodes follow, the
    # reciprocals of the inner ones in reverse order.  No sort.  Each
    # outer node's z is an inner node bit for bit, so its gap is 1 - z.
    n_half = np.count_nonzero(grid <= 1.0)
    take = np.concatenate([np.arange(n_half), np.arange(n_half - 2, 0, -1)])
    return _Fold(grid[:n_half], 1.0 - grid[:n_half], take, grid > 1.0, grid[n_half:], 1)


# Each audit has one grid, built here once.  Euler-Lagrange: 2000 nodes
# up to rho = 800, folded once onto its 1001 distinct z = min(rho, 1/rho)
# (_EL_FOLD), so that a sphere profile pays once for a node and its
# reciprocal; rho = 1 is node _EL_ONE and rho = 0 node 0, the probes of
# eta.  Convexity: [0, 1] and [1, 10] uniform with 40 and 360 nodes,
# meeting at rho = 1 (index _SEAM) so that no second-difference stencil
# straddles the branch point, and folded once (_CONVEXITY_FOLD).
# Single-zero scan: 41 on [0, 1].
_EL_GRID = _el_grid(2000)
_EL_FOLD = _el_fold(_EL_GRID).frozen()
_EL_ONE = int(np.flatnonzero(_EL_GRID == 1.0)[0])
_SEAM = 39
_CONVEXITY_GRID = np.concatenate(
    [np.linspace(0.0, 1.0, _SEAM + 1), np.linspace(1.0, 10.0, 360)[1:]]
)
_CONVEXITY_FOLD = _fold(_CONVEXITY_GRID).frozen()
_SCAN_GRID = np.linspace(0.0, 1.0, 41)
for _frozen in (_EL_GRID, _CONVEXITY_GRID, _SCAN_GRID):
    _frozen.flags.writeable = False
del _frozen


def verify_euler_lagrange(params: KernelParams, *, force_sphere: bool = False) -> ELReport:
    """Check the sufficiency conditions for the candidate minimizer.

    Evaluates the candidate's potential on a fixed grid of squared
    scaled radii: it must equal eta on the support (the sphere rho = 1,
    or the ball rho <= 1) and exceed eta - tol outside.  The grid has
    2000 nodes, is closed under rho -> 1/rho and reaches rho = 800.  The
    potential is taken at rho itself, and a sphere profile in one pass
    over the grid's 1001 distinct folded nodes; a value that is not
    finite raises DomainError, naming the first such node.  That one
    pass also gives eta at its probe node, rho = 1 on the sphere and
    rho = 0 in the ball: eta is twice the candidate's closed-form
    energy, held to the probe's value within 1e-12 (IllConditioned
    "eta routes disagree" otherwise), as ``eta`` holds it to
    ``total_potential``.  With ``force_sphere`` the candidate is the
    sphere of ``_sphere_candidate`` at any point that its gate admits,
    audited by the same rule; below the critical curve this makes the
    report fail, which is the point of the flag.  Just below it the
    exterior dip is shallower than ``tol`` (-4.3e-10 at
    (2, 3, beta_star - 1e-2)), so the forced report also fails where
    ``_concave_seam`` finds Psi''(1) < 0 off the sphere regime.
    """
    cand = _sphere_candidate(params) if force_sphere else candidate_for(params)
    values = _require_finite(_potential(params, cand, _EL_GRID, _EL_FOLD), _EL_GRID, "rho")
    sphere = cand.kind == "UniformSphere"
    eta_val = _checked_eta(params, cand, float(values[_EL_ONE if sphere else 0]))
    deviation = values - eta_val
    support = _EL_GRID == 1.0 if sphere else _EL_GRID <= 1.0
    tol = 1e-9 * max(1.0, abs(eta_val))
    abs_dev = np.abs(deviation[support])
    worst = int(np.argmax(abs_dev))
    exterior = deviation[~support]
    lowest = int(np.argmin(exterior))
    dev_support = float(abs_dev[worst])
    margin = float(exterior[lowest])
    # A negative seam curvature is no minimizer, however shallow the
    # exterior dip it makes.
    passed = dev_support <= tol and margin >= -tol and not (force_sphere and _concave_seam(params))
    return ELReport(
        eta=float(eta_val),
        support_max_abs_dev=dev_support,
        rho_worst_support=float(_EL_GRID[support][worst]),
        exterior_min_margin=margin,
        rho_worst_exterior=float(_EL_GRID[~support][lowest]),
        passed=passed,
        tol=tol,
    )


def _concave_seam(params: KernelParams) -> bool:
    """The seam rule of both sphere instruments: whether, off the sphere
    regime, Psi''(1) exists (d + beta > 3) and is negative, decided exactly.

    False where d + beta <= 3 and where ``classify`` gives a sphere tag:
    on the critical curve itself a float beta can sit a rounding below
    the exact curve (Psi''(1) = -1.4e-16 at (2, 4, 4/3)), where the
    sphere still minimizes.  Elsewhere Psi''(1) has the sign of
    k(alpha) - k(beta), a rational function of the inputs, evaluated in
    ``Fraction`` from the floats.  Imported here, so that only this test
    pays for loading fractions.
    """
    if not params.d + params.beta > 3 or classify(params).tag in _SPHERE_TAGS:
        return False
    from fractions import Fraction

    alpha, beta = (Fraction(g) for g in (params.alpha, params.beta))
    return _seam_curvature(params.d, alpha) < _seam_curvature(params.d, beta)


def psi_capital(params: KernelParams, rho):
    """The convexity combination Psi at squared scaled radius rho.

    Psi = v_beta psi_alpha / (alpha v_alpha) - psi_beta/beta with
    v_gamma = psi_gamma(1), so that its derivative vanishes at rho = 1.
    At the sphere's own radius R^(alpha-beta) = v_beta/v_alpha, so Psi is
    the potential V of ``_sphere_candidate``'s sphere at rho, divided by
    R^beta; for the log kernel (beta = 0, v_beta = 1, psi_beta/beta
    becomes tilde_psi0) it is V + ln R.  A scalar rho gives a float, an
    array of nodes an array; the nodes take one ``_potential`` pass.
    """
    cand = _sphere_candidate(params)
    nodes = _check_rho(rho)
    return _shaped(rho, _psi(params, cand, nodes, _fold(nodes)))


def _psi(
    params: KernelParams, cand: CandidateMinimizer, rho: np.ndarray, fold: _Fold
) -> np.ndarray:
    """Psi at gated nodes rho, given with their fold, from the sphere
    candidate ``cand``: ``psi_capital`` without its gates."""
    value, r = _potential(params, cand, rho, fold), cand.radius
    return value + math.log(r) if params.beta_is_log else value / r**params.beta


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
    _sphere_candidate(params)
    d, beta = params.d, params.beta
    if not d + beta > 3:
        raise DomainError(f"need d + beta > 3, got {d + beta}")
    v_beta = psi_values_at_one(d, beta)[0]
    return 0.25 * v_beta * (_seam_curvature(d, params.alpha) - _seam_curvature(d, beta))


def convexity_report(params: KernelParams) -> ConvexityReport:
    """Scan raw second differences of Psi over [0, 10].

    The fixed grid is uniform on each side of rho = 1, 40 nodes on
    [0, 1] and 360 on [1, 10], with no stencil straddling the branch
    point, since psi_beta is typically only C^1 there.
    ``psi_dd_at_one`` carries the closed-form second derivative when it
    exists (d + beta > 3) and nan otherwise.  The report passes only if
    no second difference and no finite ``psi_dd_at_one`` falls below
    -tol: just under beta_star the negative curvature sits so close to
    rho = 1 that the grid alone can miss it.  Off the sphere regime it
    also fails on a negative sign of Psi''(1) decided exactly
    (``_concave_seam``): at beta_star - 1e-8 Psi''(1) is about -3e-9,
    inside the tolerance.  Psi is ``psi_capital``'s core over the
    grid's fold, built once on import.
    """
    psi = _psi(params, _sphere_candidate(params), _CONVEXITY_GRID, _CONVEXITY_FOLD)
    second = np.diff(psi, n=2)
    # Entry k is the stencil centred on node k + 1; the one centred on
    # the seam straddles the branch point and is left out.
    second[_SEAM - 1] = np.inf
    lowest = int(np.argmin(second))
    min_sd = float(second[lowest])
    dd = psi_capital_dd_at_one(params) if params.d + params.beta > 3 else math.nan
    tol = 1e-7
    return ConvexityReport(
        min_second_difference=min_sd,
        rho_min_second_difference=float(_CONVEXITY_GRID[lowest + 1]),
        psi_dd_at_one=dd,
        passed=min_sd >= -tol and not dd < -tol and not _concave_seam(params),
        tol=tol,
    )


def single_zero_scan(a1: float, b1: float, a2: float, b2: float, c: float, q: float) -> str:
    """Sign pattern of g(z) = F(a1,b1;c;z) - q F(a2,b2;c;z) on [0, 1].

    Under the hypotheses q > 0, 0 < a2 < a1, 0 < b2 < b1, c > a1 + b1
    the difference has at most one zero and crosses upward.  Returns the
    run-length-collapsed pattern over the fixed nodes z = 0, 0.025, ...,
    1 in {'-', '0', '+'}, e.g. "-+" for a single crossing; values within
    1e-12 of the local term size count as zero.
    """
    if not 0 < q < math.inf:
        raise DomainError(f"need finite q > 0, got {q}")
    if not 0 < a2 < a1:
        raise DomainError(f"need 0 < a2 < a1, got a2={a2}, a1={a1}")
    if not 0 < b2 < b1:
        raise DomainError(f"need 0 < b2 < b1, got b2={b2}, b1={b1}")
    if not c > a1 + b1:
        raise DomainError(f"need c > a1 + b1, got c={c}")
    f1 = _hyp2f1(a1, b1, c, _SCAN_GRID)
    f2 = _hyp2f1(a2, b2, c, _SCAN_GRID)
    g = f1 - q * f2
    zero = np.abs(g) <= 1e-12 * (np.abs(f1) + q * np.abs(f2))
    symbols = np.where(zero, "0", np.where(g > 0, "+", "-"))
    keep = np.concatenate([[True], symbols[1:] != symbols[:-1]])
    return "".join(symbols[keep])
