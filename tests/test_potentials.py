"""Radial potential profiles of the sphere and ball candidate measures.

Closed-form values are pinned against direct quadrature of the defining
integrals, against finite differences, and against independent series
re-expansions, so every branch of the piecewise formulas is covered by
at least one route that shares no code with it.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aggremin import (
    CandidateMinimizer,
    DomainError,
    KernelParams,
    NonConvergence,
    RegimeError,
    ball_potential,
    ball_potential_quad,
    candidate_for,
    digamma,
    eta,
    gamma_fn,
    psi_gamma,
    psi_values_at_one,
    quadratic_ball_moment,
    sphere_potential,
    tilde_psi0,
    total_potential,
    unit_sphere_area,
)
from aggremin.params import _whole
from aggremin.potentials import (
    _ball_raw,
    _coefficients,
    _fold,
    _log_ball_lambda,
    _log_series,
    _psi_fold,
)
from aggremin.special import _horner, _hyp2f1


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _sphere_quadrature(d: int, g: float, x: float) -> float:
    """Direct surface integral of |x - w|^g over the unit sphere."""
    cd = gamma_fn(d / 2.0) / (math.sqrt(math.pi) * gamma_fn((d - 1) / 2.0))

    def integrand(t: float) -> float:
        return math.sin(t) ** (d - 2) * (x * x + 1.0 - 2.0 * x * math.cos(t)) ** (
            g / 2.0
        )

    val, _ = quad(integrand, 0.0, math.pi, limit=200)
    return unit_sphere_area(d) * cd * val


def test_unit_sphere_area_known_dimensions():
    assert abs(unit_sphere_area(1) - 2.0) < 1e-15
    assert abs(unit_sphere_area(2) - 2.0 * math.pi) < 1e-14
    assert abs(unit_sphere_area(3) - 4.0 * math.pi) < 1e-14
    assert abs(unit_sphere_area(4) - 2.0 * math.pi**2) < 1e-13
    with pytest.raises(DomainError):
        unit_sphere_area(0)
    with pytest.raises(DomainError):
        unit_sphere_area(2.5)


def test_psi_gamma_zero_exponent_is_constant_one():
    for rho in (0.0, 0.3, 1.0, 9.0):
        assert psi_gamma(3, 0.0, rho) == 1.0
    assert psi_gamma(5, 0.0, 2.3) == 1.0


def test_psi_gamma_quadratic_kernel_is_affine():
    for d in (2, 3, 4):
        for rho in (0.0, 0.5, 1.0, 3.0, 10.0):
            assert abs(psi_gamma(d, 2.0, rho) - (1.0 + rho)) < 1e-13


def test_psi_gamma_newton_shell_in_three_dimensions():
    for rho in (0.0, 0.25, 0.9):
        assert abs(psi_gamma(3, -1.0, rho) - 1.0) < 1e-14
    assert abs(psi_gamma(3, -1.0, 4.0) - 0.5) < 1e-14
    assert abs(psi_gamma(3, -1.0, 25.0) - 0.2) < 1e-14


_SHELL_RHO = (0.0, 1e-12, 0.5, 1.0 - 1e-14, 1.0 + 1e-14, 1.0 - 1e-9, 1.0 + 1e-9,
              1.0 - 1e-4, 1.0 + 1e-4, 1.0, 2.0, 800.0, 1e12)


def test_psi_gamma_in_three_dimensions_matches_mpmath():
    """The d = 3 profile is Archimedes' shell formula; within 1e-14
    relative of the 40-digit 2F1 on either side of rho = 1, at it, and
    at both ends, where rho = inf reads inf^(gamma/2)."""
    for g in (-1.5, -0.9, 0.3, 1.5, 3.0, 3.7, 4.0):
        a, b, c = -g / 2.0, -(g + 1.0) / 2.0, 1.5
        got = psi_gamma(3, g, np.array(_SHELL_RHO))
        for rho, value in zip(_SHELL_RHO, got):
            with mpmath.workdps(40):
                if rho <= 1.0:
                    want = mpmath.hyp2f1(a, b, c, rho)
                else:
                    rho_mp = mpmath.mpf(rho)
                    want = rho_mp ** (mpmath.mpf(g) / 2) * mpmath.hyp2f1(a, b, c, 1 / rho_mp)
                assert abs((value - want) / want) <= 1e-14, (g, rho)
        assert psi_gamma(3, g, math.inf) == (math.inf if g > 0.0 else 0.0)


def test_shell_formula_refuses_a_value_beyond_the_float_range():
    """From gamma of about 1000 the shell formula overflows before its
    outer power: NonConvergence, as the 2F1 route raises, not inf."""
    assert math.isfinite(psi_gamma(3, 1100.0, 0.5))
    with pytest.raises(NonConvergence, match=r"^psi_gamma\(3, 2000\.0, 0\.5\) is not finite"):
        psi_gamma(3, 2000.0, 0.5)


def test_psi_gamma_branches_glue_at_the_seam():
    for d, g in [(3, 1.5), (4, -0.7), (2, 2.6), (5, -2.5), (3, 3.7), (2, 0.5)]:
        v = psi_gamma(d, g, 1.0)
        lo = psi_gamma(d, g, 1.0 - 1e-9)
        hi = psi_gamma(d, g, 1.0 + 1e-9)
        bound = 1e-8 * (1.0 + abs(v))
        assert abs(lo - v) < bound, (d, g)
        assert abs(hi - v) < bound, (d, g)
    # Merely Hoelder regularity at the seam: approach like |rho-1|^(d+g-1).
    v = psi_gamma(2, -0.3, 1.0)
    assert abs(psi_gamma(2, -0.3, 1.0 - 1e-9) - v) < 1e-6
    assert abs(psi_gamma(2, -0.3, 1.0 + 1e-9) - v) < 1e-6


def test_psi_gamma_seam_value_matches_derivative_record():
    for d, g in [(3, 1.5), (4, -0.7), (2, 2.6)]:
        assert _rel(psi_gamma(d, g, 1.0), psi_values_at_one(d, g)[0]) < 1e-14


def test_psi_gamma_domain_gates():
    with pytest.raises(DomainError):
        psi_gamma(3, 1.0, -0.2)
    with pytest.raises(DomainError):
        psi_gamma(1, 1.0, 0.5)
    with pytest.raises(DomainError):
        psi_gamma(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        psi_gamma(3, -2.0, 1.0)
    assert psi_gamma(3, -2.5, 0.5) > 0.0
    assert psi_gamma(3, -2.5, 4.0) > 0.0
    # Far afield rho^(gamma/2) overflows to inf, as it reads at rho = inf.
    assert psi_gamma(3, 3.0, 1e240) == math.inf
    assert psi_gamma(3, 3.0, math.inf) == math.inf
    # A non-finite exponent is outside the domain, not a failed 2F1.
    for gamma, rho in ((math.nan, 0.5), (-math.inf, 2.0)):
        with pytest.raises(DomainError):
            psi_gamma(3, gamma, rho)
    with pytest.raises(DomainError):
        sphere_potential(3, math.inf, 0.5)


@given(
    d=st.sampled_from([2, 3, 4]),
    g=st.floats(-1.4, 3.0),
    rho=st.floats(0.0, 6.0),
)
@settings(max_examples=200, deadline=None)
def test_psi_gamma_positive_property(d, g, rho):
    """A spherical average of a positive kernel stays positive."""
    assume(rho <= 0.99 or rho >= 1.01)
    assert psi_gamma(d, g, rho) > 0.0


def test_psi_values_at_one_log_shortcut():
    assert psi_values_at_one(5, 0.0) == (1.0, 0.0, 0.0)


def test_psi_values_at_one_quadratic_profile():
    for d in (2, 3):
        v, p1, p2 = psi_values_at_one(d, 2.0)
        assert abs(v - 2.0) < 1e-14
        assert abs(p1 - 1.0) < 1e-14
        assert p2 == 0.0


def test_psi_values_at_one_agrees_with_series_derivatives():
    # (3, 1.0) is the exact zero of psi''(1) at d + gamma = 4.
    cases = [(3, 1.5), (4, -0.5), (2, 2.2), (3, 1.0), (5, 0.7), (6, -2.5), (2, 3.7)]
    for d, g in cases:
        v, p1, p2 = psi_values_at_one(d, g)
        a, b, c = -g / 2.0, (2.0 - g - d) / 2.0, d / 2.0
        # d/dz F(a,b;c;z) = (ab/c) F(a+1,b+1;c+1;z), applied once and twice.
        with mpmath.workdps(40):
            first = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, 1)
            second = (
                a * b / c * (a + 1) * (b + 1) / (c + 1)
                * mpmath.hyp2f1(a + 2, b + 2, c + 2, 1)
            )
        assert abs(p1 - float(first)) < 1e-12
        assert abs(p2 - float(second)) < 1e-12


def test_psi_values_at_one_first_derivative_matches_finite_difference():
    h = 1e-4
    for d, g in [(3, 1.5), (4, -0.5), (2, 2.2)]:
        _, p1, _ = psi_values_at_one(d, g)
        fd = (psi_gamma(d, g, 1.0 + h) - psi_gamma(d, g, 1.0 - h)) / (2.0 * h)
        assert abs(p1 - fd) < 1e-8 * (1.0 + abs(p1)), (d, g)


def test_psi_values_at_one_second_derivative_strip_is_nan():
    v, p1, p2 = psi_values_at_one(2, 0.9)
    assert math.isfinite(v) and math.isfinite(p1)
    assert math.isnan(p2)
    assert math.isnan(psi_values_at_one(2, 1.0)[2])


def test_psi_values_at_one_vanishing_second_derivative():
    # d + gamma = 4 sits on a reciprocal-gamma pole and the curvature is 0.
    assert psi_values_at_one(3, 1.0)[2] == 0.0


def test_psi_values_at_one_gates():
    with pytest.raises(DomainError):
        psi_values_at_one(2, -0.5)
    with pytest.raises(DomainError):
        psi_values_at_one(3, -1.0)
    with pytest.raises(DomainError):
        psi_values_at_one(1, 1.0)
    with pytest.raises(DomainError):
        psi_values_at_one(3, math.inf)


def test_dimension_is_checked_before_the_zero_exponent_shortcut():
    """gamma = 0 makes the profile constant, but only in a valid dimension."""
    for d in (0, 1, 2.5):
        with pytest.raises(DomainError):
            psi_gamma(d, 0.0, 0.5)
    with pytest.raises(DomainError):
        psi_values_at_one(1, 0.0)
    with pytest.raises(DomainError):
        psi_values_at_one(2.5, 0.0)


def test_sphere_potential_center_and_log_cases():
    assert abs(sphere_potential(3, -1.2, 0.0) - unit_sphere_area(3)) < 1e-14
    for x in (0.0, 1.0, 7.0):
        assert sphere_potential(3, 0.0, x) == unit_sphere_area(3)


def test_sphere_potential_newton_value():
    assert abs(sphere_potential(3, -1.0, 2.0) - 2.0 * math.pi) < 1e-13


def test_sphere_potential_quadratic_kernel_exact():
    for d in (2, 3, 4):
        area = unit_sphere_area(d)
        for r in (0.0, 0.5, 1.0, 2.0):
            want = area * (1.0 + r * r)
            assert abs(sphere_potential(d, 2.0, r) - want) < 1e-12 * want


def test_sphere_potential_matches_quadrature():
    for d in (2, 3, 4):
        for g in (-1.2, 0.7, 3.0):
            for x in (0.35, 0.8, 1.0, 1.9):
                if x == 1.0 and (g < 0.0 or not g > 1 - d):
                    continue
                got = sphere_potential(d, g, x)
                want = _sphere_quadrature(d, g, x)
                assert abs(got - want) < 1e-8 * abs(want), (d, g, x)


def test_sphere_potential_surface_gates():
    with pytest.raises(DomainError):
        sphere_potential(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        sphere_potential(3, -2.0, 1.0)
    with pytest.raises(DomainError):
        sphere_potential(3, 1.0, -0.1)
    assert sphere_potential(3, -1.5, 1.0) > 0.0
    assert sphere_potential(3, 3.0, 1e120) == math.inf


def test_potentials_stay_finite_where_x_squared_overflows():
    """Beyond x of about 1.3e154 the square of x overflows; the outer
    branch is formed from 1/x and x^gamma instead, so the value is finite,
    warns of nothing and is its leading term C x^gamma to 1e-14."""
    cases = [
        (sphere_potential, 3, 1.0, 1.4e154, unit_sphere_area(3)),
        (sphere_potential, 2, 1.5, 1e200, unit_sphere_area(2)),
        (sphere_potential, 4, -1.0, 1e300, unit_sphere_area(4)),
        (ball_potential, 2, 1.0, 1e200, quadratic_ball_moment(2, 1.0)[0]),
        (ball_potential, 3, -1.5, 1e250, quadratic_ball_moment(3, -1.5)[0]),
    ]
    for potential, d, g, x, scale in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = potential(d, g, x)
        lead = scale * x**g
        assert math.isfinite(value), (potential.__name__, d, g, x)
        assert abs(value - lead) <= 1e-14 * lead, (potential.__name__, d, g, x)


def sphere_potential_alt(d, gamma: float, x_norm: float) -> float:
    """Alternative single-branch form of :func:`sphere_potential`.

    Uses the argument 4 x / (1+x)^2, which stays in [0, 1) for x != 1,
    so one series covers interior and exterior at once.  Kept as an
    independent route for cross-checking the two-branch formula.
    """
    d = _whole("d", d, 2)
    if not x_norm >= 0:
        raise DomainError(f"x_norm must be >= 0, got {x_norm}")
    x = float(x_norm)
    if x == 1.0:
        raise DomainError("alternative form is singular at x_norm = 1")
    z = 4.0 * x / (1.0 + x) ** 2
    surf = unit_sphere_area(d)
    f = float(_hyp2f1(-gamma / 2.0, (d - 1.0) / 2.0, d - 1.0, z))
    return surf * (1.0 + x) ** gamma * f


def test_sphere_potential_alt_route_agrees():
    for d in (2, 3, 4):
        for g in (-1.0, 0.5, 3.0):
            for x in (0.3, 0.8, 1.7, 5.0):
                a = sphere_potential(d, g, x)
                b = sphere_potential_alt(d, g, x)
                assert abs(a - b) < 1e-12 * abs(a), (d, g, x)
    assert abs(sphere_potential_alt(3, 2.0, 2.0) - 20.0 * math.pi) < 1e-12


def test_sphere_potential_alt_gates():
    with pytest.raises(DomainError):
        sphere_potential_alt(3, 1.0, 1.0)
    with pytest.raises(DomainError):
        sphere_potential_alt(3, 1.0, -0.4)
    with pytest.raises(DomainError):
        sphere_potential_alt(1, 1.0, 0.5)


def test_ball_potential_inner_branch_is_affine():
    g, d = -0.5, 3
    v0 = ball_potential(d, g, 0.0)
    for x in (0.25, 0.5, 1.0):
        want = v0 * (1.0 + (g / d) * x * x)
        assert abs(ball_potential(d, g, x) - want) < 1e-14 * abs(want)


def test_ball_potential_branches_meet_at_the_boundary():
    inner = ball_potential(3, -0.5, 1.0)
    outer = ball_potential(3, -0.5, 1.0 + 1e-6)
    assert abs(outer - inner) < 1e-5


def test_ball_potential_matches_quadrature_d3():
    g = -0.5
    pw = (2.0 - g - 3.0) / 2.0

    def oracle(x: float) -> float:
        def mean(s: float) -> float:
            return ((x + s) ** (g + 2.0) - abs(x - s) ** (g + 2.0)) / (
                2.0 * x * s * (g + 2.0)
            )

        val, _ = quad(
            lambda s: s * s * (1.0 + s) ** pw * mean(s),
            0.0,
            1.0,
            weight="alg",
            wvar=(0.0, pw),
            limit=200,
        )
        return unit_sphere_area(3) * val

    for x in (0.4, 2.0):
        got = ball_potential(3, g, x)
        assert abs(got - oracle(x)) < 1e-8 * abs(got), x


def test_ball_potential_matches_quadrature_d1():
    g = -0.5
    pw = (2.0 - g - 1.0) / 2.0
    for x in (0.3, 1.7):
        pts = [x] if x < 1.0 else None
        want, _ = quad(
            lambda y: abs(x - y) ** g * (1.0 - y * y) ** pw,
            -1.0,
            1.0,
            points=pts,
            limit=300,
        )
        got = ball_potential(1, g, x)
        assert abs(got - want) < 1e-10 * abs(want), x


def test_ball_potential_gates():
    for d, g in [(3, -3.5), (3, 1.0), (2, 2.0), (4, 0.0)]:
        with pytest.raises(DomainError):
            ball_potential(d, g, 0.5)
    with pytest.raises(DomainError):
        ball_potential(3, -0.5, -0.1)
    with pytest.raises(DomainError):
        ball_potential(0, -0.5, 0.5)


def test_quadratic_ball_moment_values():
    c, m = quadratic_ball_moment(2, 0.0)
    assert abs(c - math.pi) < 1e-14
    assert m == 0.5
    c, m = quadratic_ball_moment(3, -1.0)
    assert abs(c - 4.0 * math.pi / 3.0) < 1e-14
    assert m == 0.6


def test_quadratic_ball_moment_gates():
    for d, b in [(4, 0.0), (3, -3.0), (3, 1.0)]:
        with pytest.raises(DomainError):
            quadratic_ball_moment(d, b)


def test_tilde_psi0_plane_case_is_exact():
    for rho in (0.0, 0.3, 1.0):
        assert tilde_psi0(2, rho) == 0.0
    for rho in (1.5, 9.0):
        assert tilde_psi0(2, rho) == 0.5 * math.log(rho)


def test_tilde_psi0_d4_reduces_to_one_term():
    for rho in (0.0, 0.2, 0.6, 0.95):
        assert abs(tilde_psi0(4, rho) - rho / 4.0) < 1e-15
    want = 0.5 * math.log(2.5) + 1.0 / 10.0
    assert abs(tilde_psi0(4, 2.5) - want) < 1e-14


def test_tilde_psi0_matches_exponent_limit():
    h = 1e-4
    for d in (3, 4):
        for rho in (0.25, 0.81, 4.0):
            quotient = (psi_gamma(d, h, rho) - psi_gamma(d, -h, rho)) / (2.0 * h)
            assert abs(tilde_psi0(d, rho) - quotient) < 1e-8, (d, rho)


def test_tilde_psi0_matches_series_reexpansion():
    # ln(1+x) - x/(1+x)^2 * 3F2(1,1,(d+1)/2; 2,d; 4x/(1+x)^2) at x = sqrt(rho)
    # re-derives the profile from the one-branch form of the power profile.
    for d in (3, 4, 5):
        for rho in (0.49, 2.25):
            x = math.sqrt(rho)
            z = 4.0 * x / (1.0 + x) ** 2
            with mpmath.workdps(40):
                f = float(mpmath.hyp3f2(1, 1, (d + 1) / 2.0, 2, d, z))
            want = math.log(1.0 + x) - (x / (1.0 + x) ** 2) * f
            assert abs(tilde_psi0(d, rho) - want) < 1e-12, (d, rho)


def test_tilde_psi0_far_field_is_logarithmic():
    for d in (3, 5):
        assert abs(tilde_psi0(d, 1.0e6) - math.log(1.0e3)) < 1e-5


def _tilde_psi0_mpmath(d: int, rho: float):
    """d/dgamma of psi_gamma(rho) at gamma = 0, at 40 digits."""
    r = mpmath.mpf(rho)

    def psi(g):
        a, b, c = -g / 2, (2 - g - d) / mpmath.mpf(2), mpmath.mpf(d) / 2
        if r <= 1:
            return mpmath.hyp2f1(a, b, c, r)
        return r ** (g / 2) * mpmath.hyp2f1(a, b, c, 1 / r)

    with mpmath.workdps(40):
        return mpmath.diff(psi, 0)


def test_tilde_psi0_seam_value_and_slope_near_one():
    for d in (3, 5):
        v = tilde_psi0(d, 1.0)
        assert abs(v - 0.5 * (digamma(d - 1.0) - digamma(d / 2.0))) < 1e-15
        for s in (1e-7, -1e-7):
            assert abs(tilde_psi0(d, 1.0 + s) - v - 0.25 * s) < 1e-12
        for s in (2e-6, -2e-6):
            assert abs(tilde_psi0(d, 1.0 + s) - v - 0.25 * s) < 1e-10
    # Against mpmath within 1e-6 of the seam, where the d = 3 profile
    # carries a term of order (rho-1)^2 ln|rho-1|.
    for d, bound in ((3, 5e-12), (5, 1e-12)):
        for s in (1e-12, 1e-9, 1e-7, 9e-7):
            for rho in (1.0 - s, 1.0 + s):
                want = _tilde_psi0_mpmath(d, rho)
                err = abs((tilde_psi0(d, rho) - want) / want)
                assert err <= bound, (d, rho, float(err))


@pytest.mark.parametrize("d, c0", [(1, 2.0), (3, 1.5), (3, 2.0), (5, 2.0), (5, 2.5)])
def test_log_series_at_one_matches_the_digamma_value(d, c0):
    """At z = 1 the series sums to digamma(c0) - digamma(c0 - (2-d)/2),
    where its terms decay slowest; (1, 2) is the ball log profile."""
    want = digamma(c0) - digamma(c0 - (2.0 - d) / 2.0)
    assert abs(_log_series(d, c0, 1.0) - want) <= 1e-14 * abs(want)


def _log_series_mpmath(d: int, c0: float, z: float):
    """(a0/c0) z 3F2(1, 1, a0+1; 2, c0+1; z) with a0 = (2-d)/2, at 20 digits.

    Beyond z = 0.99, where mpmath's 3F2 takes seconds a point, the value
    at 1, digamma(c0) - digamma(c0 - a0), less the integral over [z, 1]
    of the derivative (2F1(a0, 1; c0; t) - 1)/t.
    """
    with mpmath.workdps(20):
        a0 = mpmath.mpf(2 - d) / 2
        z = mpmath.mpf(z)
        if z <= 0.99:
            return a0 / c0 * z * mpmath.hyp3f2(1, 1, a0 + 1, 2, mpmath.mpf(c0) + 1, z)
        at_one = mpmath.digamma(c0) - mpmath.digamma(c0 - a0)
        if z == 1:
            return at_one
        return at_one - mpmath.quad(lambda t: (mpmath.hyp2f1(a0, 1, c0, t) - 1) / t, [z, 1])


@pytest.mark.parametrize(
    "d, c0",
    [(1, 2.0)] + [(d, c0) for d in (3, 4, 5, 6, 7) for c0 in dict.fromkeys((2.0, d / 2.0))],
)
def test_log_series_matches_mpmath(d, c0):
    """Both regimes of the series, the power sum (z <= 1/2) and the
    closed forms (z > 1/2), within 1e-14 relative of mpmath."""
    zs = [1e-300, 1e-12, 1e-5, 0.1, 0.37, 0.5, 0.5 + 1e-12, 0.7, 0.9, 0.99,
          0.999, 1.0 - 1e-5, 1.0 - 1e-9, 1.0 - 1e-12, 1.0]
    got = _log_series(d, c0, np.array(zs))
    for z, value in zip(zs, got):
        want = _log_series_mpmath(d, c0, z)
        assert abs(value - want) <= 1e-14 * abs(want), (z, float(value), float(want))


@pytest.mark.parametrize("d", [9, 11, 12, 13, 50, 51, 130, 131, 201, 400])
def test_log_series_at_one_in_high_dimension(d):
    """Across the switch from closed form to power sum (d = 11 to 13) and
    where the sphere's power sum grows past 64 terms (d = 201, 400)."""
    for c0 in (2.0, d / 2.0):
        with mpmath.workdps(30):
            want = float(mpmath.digamma(c0) - mpmath.digamma(c0 - mpmath.mpf(2 - d) / 2))
        assert abs(_log_series(d, c0, 1.0) - want) <= 1e-14 * abs(want), c0
    coef, whole = _coefficients(d, d / 2.0)
    assert whole == (d % 2 == 0 or d >= 13)
    length = 64 if d <= 168 else 5 * math.isqrt(d)
    assert coef.size == (min(length, d // 2 - 1) if d % 2 == 0 else length)


@pytest.mark.parametrize("d", [2, 4, 6, 12, 50])
def test_terminating_log_series_ends_at_its_last_nonzero_term(d):
    """At even d the series stops at n = d/2 - 1; the coefficients end
    there, and Horner's rule over them equals the sum over all 64 bit for
    bit.  No nodes cost no Horner columns."""
    for c0 in (d / 2.0, 2.0):
        coef, _ = _coefficients(d, c0)
        assert coef.size == d // 2 - 1, c0
        assert coef.size == 0 or coef[-1] != 0.0, c0
        n = np.arange(1.0, 65.0)
        full = np.cumprod(((2.0 - d) / 2.0 + n - 1.0) / (c0 + n - 1.0)) / n
        z = np.array([0.0, 1e-300, 0.1, 0.37, 0.5, 0.9, 1.0])
        assert np.array_equal(_horner(coef[None], z), _horner(full[None], z)), c0
    assert _horner(np.ones((3, 64)), np.empty(0)).shape == (3, 0)


def test_d1_ball_log_series_matches_mpmath():
    """The d = 1 ball series S(z) = (z/4) 3F2(1, 1, 3/2; 2, 3; z) in closed form."""
    zs = [1e-300, 1e-12, 1e-5, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-12, 1.0]
    got = _log_series(1, 2.0, np.array(zs))
    # 20 digits are plenty for a 1e-14 check, and mpmath's 3F2 near
    # z = 1 costs about a second a point even so.
    with mpmath.workdps(20):
        for z, value in zip(zs, got):
            want = mpmath.mpf(z) / 4 * mpmath.hyp3f2(1, 1, 1.5, 2, 3, z)
            assert abs(value - want) <= 1e-14 * abs(want), z


# Power-sum nodes (z <= 1/2) next to closed-form ones (z > 1/2), so a
# node whose value depended on its neighbours would show.
_Z_NODES = np.array([0.0, 1e-300, 0.01, 0.3, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-5, 1.0 - 1e-9, 1.0])
_RHO_NODES = np.concatenate(
    [_Z_NODES, 1.0 + np.array([-1e-6, -5e-7, 5e-7, 1e-6, 1e-5]), 1.0 / _Z_NODES[1:-1], [1e12]]
)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_array_nodes_equal_the_same_nodes_one_at_a_time(d):
    """Bit for bit: each node's value depends on that node alone."""

    def one_at_a_time(f, *args, nodes=_RHO_NODES):
        return np.array([f(*args, np.array([r]))[0] for r in nodes])

    def log_ball(rho):
        return _log_ball_lambda(d, _fold(rho))

    def ball(g, rho):
        return _ball_raw(d, g, _fold(rho))

    def sphere(g, rho):
        return _psi_fold(d, g, _fold(rho))

    for c0 in (d / 2.0, 2.0):
        got = _log_series(d, c0, _Z_NODES).tolist()
        assert got == [float(_log_series(d, c0, float(z))) for z in _Z_NODES], c0
    assert np.array_equal(log_ball(_RHO_NODES), one_at_a_time(log_ball))
    for g in (-d + 0.3, 4.0 - d - 0.3):
        assert np.array_equal(ball(g, _RHO_NODES), one_at_a_time(ball, g))
    if d >= 2:
        want = np.array([tilde_psi0(d, float(r)) for r in _RHO_NODES])
        assert np.array_equal(tilde_psi0(d, _RHO_NODES), want)
        for g in (2.0 - d + 0.3, 1.0, 3.5):
            assert np.array_equal(sphere(g, _RHO_NODES), one_at_a_time(sphere, g))


_PARAMS = KernelParams(3, 2.5, 1.0)
_PUBLIC_PROFILES = [
    lambda x: psi_gamma(3, 1.5, x),
    lambda x: tilde_psi0(3, x),
    lambda x: sphere_potential(3, 1.5, x),
    lambda x: ball_potential(3, -1.0, x),
    lambda x: total_potential(_PARAMS, candidate_for(_PARAMS), x),
]


def test_scalar_in_gives_float_out_and_array_in_gives_array_out():
    nodes = np.array([[0.0, 0.5], [1.0, 2.0]])
    for call in _PUBLIC_PROFILES:
        assert type(call(0.5)) is float
        assert type(call(np.float64(0.5))) is float
        values = call(nodes)
        assert isinstance(values, np.ndarray) and values.shape == nodes.shape
        assert values[0, 1] == call(0.5)


def test_a_bad_node_in_an_array_raises_the_scalar_error():
    for bad in (-0.5, math.nan):
        for call in _PUBLIC_PROFILES:
            with pytest.raises(DomainError) as scalar:
                call(bad)
            with pytest.raises(DomainError) as array:
                call(np.array([0.5, 2.0, bad, -3.0]))
            assert str(array.value) == str(scalar.value)
    # An overflowing node raises the non-finite error, naming that node.
    potential = _PUBLIC_PROFILES[-1]
    for x_norm in (1e150, math.inf):
        with pytest.raises(DomainError) as scalar:
            potential(x_norm)
        with pytest.raises(DomainError) as array:
            potential(np.array([0.5, x_norm, 1e200]))
        assert str(array.value) == str(scalar.value)
        assert "not finite" in str(scalar.value)


def test_tilde_psi0_block_memory_stays_small():
    """The per-node Horner sum of ``_log_series`` keeps its temporaries
    at the grid's size: the peak over a 4000-node grid clustered at
    rho = 1 stays a few megabytes."""
    from aggremin.verify import _el_grid

    grid = _el_grid(4000)
    tracemalloc.start()
    try:
        tilde_psi0(3, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_tilde_psi0_gates():
    with pytest.raises(DomainError):
        tilde_psi0(3, -0.5)
    with pytest.raises(DomainError):
        tilde_psi0(1, 0.5)


def test_tilde_psi0_prime_matches_finite_difference():
    """The slope of tilde_psi0 against its 2F1 form (DLMF 15.5.1)."""
    h = 1e-5
    for d in (3, 5):
        for rho in (0.5, 2.0):
            fd = (tilde_psi0(d, rho + h) - tilde_psi0(d, rho - h)) / (2.0 * h)
            with mpmath.workdps(40):
                if rho < 1.0:
                    f = mpmath.hyp2f1(1, (4 - d) / 2.0, d / 2.0 + 1, rho)
                    want = (d - 2) / (2.0 * d) * f
                else:
                    f = mpmath.hyp2f1(1, (2 - d) / 2.0, d / 2.0, 1 / mpmath.mpf(rho))
                    want = f / (2 * rho)
            assert abs(float(want) - fd) < 1e-10, (d, rho)


def test_total_potential_is_flat_and_stationary_for_the_sphere():
    params = KernelParams(3, 2.0, 1.0)
    cand = candidate_for(params)
    r = cand.radius
    assert abs(r - 2.0 / 3.0) < 1e-15
    assert abs(total_potential(params, cand, r) + 4.0 / 9.0) < 1e-12
    h = 1e-5
    slope = (
        total_potential(params, cand, r + h) - total_potential(params, cand, r - h)
    ) / (2.0 * h)
    assert abs(slope) < 1e-9


def test_total_potential_constant_inside_the_ball():
    params = KernelParams(2, 2.0, -1.0)
    cand = candidate_for(params)
    level = eta(params)
    for t in (0.0, 0.35, 0.8, 1.0):
        got = total_potential(params, cand, t * cand.radius)
        assert abs(got - level) < 1e-12
    log_params = KernelParams(2, 2.0, 0.0, beta_is_log=True)
    log_cand = candidate_for(log_params)
    for t in (0.0, 0.35, 0.8, 1.0):
        assert abs(total_potential(log_params, log_cand, t) - 0.75) < 1e-12


def test_total_potential_respects_radius_scaling():
    params = KernelParams(3, 2.5, 1.0)
    big_r = 1.7
    cand = CandidateMinimizer("UniformSphere", big_r)
    area = unit_sphere_area(3)
    for t in (0.5, 1.0, 1.8):
        x = t * big_r
        want = (
            big_r**2.5 / 2.5 * _sphere_quadrature(3, 2.5, x / big_r)
            - big_r * _sphere_quadrature(3, 1.0, x / big_r)
        ) / area
        got = total_potential(params, cand, x)
        assert abs(got - want) < 1e-9 * abs(want), t
    # The ball profile: exact quadratic attraction, repulsion from the
    # quadrature oracle over the C_beta normalization.
    d, beta, big_r = 3, -1.0, 1.3
    params = KernelParams(d, 2.0, beta)
    cand = CandidateMinimizer("BallProfile", big_r)
    c_beta, _ = quadratic_ball_moment(d, beta)
    for t in (0.5, 1.0, 1.8):
        x = t * big_r
        want = (
            0.5 * x * x
            + big_r**2 * d / (2.0 * (4.0 - beta))
            - big_r**beta / (beta * c_beta) * ball_potential_quad(d, beta, t)
        )
        got = total_potential(params, cand, x)
        assert abs(got - want) < 1e-9 * abs(want), ("ball", t)


def test_total_potential_regime_gates():
    sphere = CandidateMinimizer("UniformSphere", 1.0)
    ball = CandidateMinimizer("BallProfile", 1.0)
    with pytest.raises(RegimeError):
        total_potential(
            KernelParams(2, 0.0, -1.0, alpha_is_log=True), sphere, 0.5
        )
    with pytest.raises(RegimeError):
        total_potential(KernelParams(3, 3.0, -0.5), ball, 0.5)
    with pytest.raises(RegimeError):
        total_potential(KernelParams(3, 2.0, 1.5), ball, 0.5)
    with pytest.raises(RegimeError):
        total_potential(KernelParams(1, 2.0, -0.5), sphere, 0.5)
    with pytest.raises(RegimeError):
        total_potential(KernelParams(2, 3.0, -0.5), sphere, 0.5)
    with pytest.raises(RegimeError, match="need d \\+ alpha > 2"):
        total_potential(KernelParams(2, -0.5, -1.0), sphere, 0.5)
    with pytest.raises(DomainError):
        total_potential(KernelParams(3, 2.0, 1.0), sphere, -1.0)
    # A potential that is not a finite float is refused, never inf - inf.
    for params, x_norm in [
        (KernelParams(3, 3.0, 1.5), 1e150),
        (KernelParams(3, 3.0, 1.5), math.inf),
        (KernelParams(3, 2.0, 0.5), 1e200),
        (KernelParams(3, 2.0, 0.5), math.inf),
    ]:
        with pytest.raises(DomainError):
            total_potential(params, candidate_for(params), x_norm)
