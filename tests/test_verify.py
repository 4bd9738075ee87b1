"""Numerical sufficiency checks: quadrature oracles, potential levels,
convexity instruments, and the sign-pattern scan.

The quadrature routes must reproduce the closed forms they were built
to audit; the report objects must flag exactly the parameter points
where the candidate stops minimizing.
"""

import math
import tracemalloc
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggremin import (
    CandidateMinimizer,
    ConvexityReport,
    DomainError,
    ELReport,
    Hyp2F1Input,
    IllConditioned,
    KernelParams,
    RegimeError,
    ball_potential,
    ball_potential_quad,
    convexity_report,
    eta,
    hyp2f1,
    psi_capital,
    psi_capital_dd_at_one,
    single_zero_scan,
    sphere_potential,
    sphere_potential_quad,
    total_potential,
    unit_sphere_area,
    verify_euler_lagrange,
)
from aggremin.closed_form import _radius_sphere


def test_sphere_quadrature_matches_closed_form():
    for d in (2, 3, 4):
        for g in (-1.2, 0.7, 3.0):
            for x in (0.35, 1.0, 1.9):
                if x == 1.0 and not g > 1 - d:
                    continue
                want = sphere_potential(d, g, x)
                got = sphere_potential_quad(d, g, x)
                assert abs(got - want) < 1e-9 * abs(want), (d, g, x)


def test_sphere_quadrature_log_shortcut_and_gates():
    assert sphere_potential_quad(3, 0.0, 0.7) == unit_sphere_area(3)
    with pytest.raises(DomainError):
        sphere_potential_quad(3, -2.0, 1.0)
    with pytest.raises(DomainError):
        sphere_potential_quad(3, 1.0, -0.3)
    with pytest.raises(DomainError):
        sphere_potential_quad(1, 1.0, 0.5)


def test_ball_quadrature_matches_closed_form():
    for d, g in [(1, -0.5), (2, -1.0), (3, -0.5), (4, -1.5)]:
        for x in (0.0, 0.4, 0.9, 1.3):
            want = ball_potential(d, g, x)
            got = ball_potential_quad(d, g, x)
            assert abs(got - want) < 1e-8 * abs(want), (d, g, x)


def test_ball_quadrature_gates():
    with pytest.raises(DomainError):
        ball_potential_quad(3, 1.5, 0.5)
    with pytest.raises(DomainError):
        ball_potential_quad(3, -0.5, -0.2)
    with pytest.raises(DomainError):
        ball_potential_quad(0, -0.5, 0.5)


def test_euler_lagrange_passes_in_supported_regimes():
    cases = [
        KernelParams(3, 2.0, 1.5),
        KernelParams(2, 2.0, -1.0),
        KernelParams(3, 2.0, 0.5),
        KernelParams(4, 2.0, 0.0, beta_is_log=True),
        KernelParams(1, 2.0, -0.5),
    ]
    for params in cases:
        report = verify_euler_lagrange(params, n_grid=300)
        assert report.passed, params
        assert report.eta == eta(params)
        assert report.support_max_abs_dev <= report.tol
        assert report.exterior_min_margin >= -report.tol
        assert 0.0 in report.grid and 1.0 in report.grid
        assert report.grid == tuple(sorted(report.grid))
    # The grid mirrors its interior: it is closed under rho -> 1/rho (to
    # one rounding), keeps exactly n_grid nodes, and needs no end point.
    for n_grid in (100, 300, 2000):
        report = verify_euler_lagrange(KernelParams(3, 2.0, 1.5), n_grid=n_grid)
        grid = np.array(report.grid)
        assert grid.size == n_grid
        positive = grid[grid > 0.0]
        np.testing.assert_allclose(np.sort(1.0 / positive), positive, rtol=1e-15, atol=0.0)
    assert grid.max() > 25.0  # n_grid = 2000 is the default


def test_euler_lagrange_report_round_trips_through_dict():
    report = verify_euler_lagrange(KernelParams(3, 2.0, 1.5), n_grid=300)
    assert ELReport(**asdict(report)) == report


def test_forced_sphere_fails_below_the_critical_curve():
    params = KernelParams(3, 2.0, 0.7)
    report = verify_euler_lagrange(params, n_grid=400, force_sphere=True)
    assert not report.passed
    assert report.exterior_min_margin < -1e-3
    # The failure has two faces: the potential dips below the surface
    # level both deep inside (rho -> 0) and just outside the sphere.
    r = _radius_sphere(3, 2.0, 0.7)
    cand = CandidateMinimizer("UniformSphere", r)
    level = total_potential(params, cand, r)
    grid = np.array(report.grid)
    dev = np.array(
        [total_potential(params, cand, r * math.sqrt(g)) for g in grid]
    ) - level
    assert dev[grid < 1.0].min() < -1e-3
    outside_band = (grid > 1.0) & (grid <= 1.5)
    assert dev[outside_band].min() < -5e-5


def test_forced_sphere_flag_is_a_no_op_in_the_sphere_regime():
    params = KernelParams(3, 2.0, 1.5)
    normal = verify_euler_lagrange(params, n_grid=300)
    forced = verify_euler_lagrange(params, n_grid=300, force_sphere=True)
    assert normal == forced


def test_euler_lagrange_memory_stays_small():
    """The log-kernel audit sums its series in blocks of at most 2^16
    elements, so its peak allocation stays a few megabytes."""
    params = KernelParams(3, 2.0, 0.0, beta_is_log=True)
    tracemalloc.start()
    try:
        verify_euler_lagrange(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_euler_lagrange_gates():
    with pytest.raises(DomainError):
        verify_euler_lagrange(KernelParams(3, 2.0, 1.5), n_grid=50)
    with pytest.raises(RegimeError):
        verify_euler_lagrange(KernelParams(3, 3.0, 0.1))
    with pytest.raises(RegimeError):
        verify_euler_lagrange(KernelParams(3, 5.0, 1.0), force_sphere=True)
    with pytest.raises(RegimeError):
        verify_euler_lagrange(KernelParams(3, 2.0, -1.5), force_sphere=True)


def test_psi_capital_is_stationary_at_the_seam():
    h = 1e-5
    cases = [
        KernelParams(3, 2.0, 1.5),
        KernelParams(2, 4.0, 1.7),
        KernelParams(4, 2.0, 0.0, beta_is_log=True),
    ]
    for params in cases:
        slope = (psi_capital(params, 1.0 + h) - psi_capital(params, 1.0 - h)) / (
            2.0 * h
        )
        assert abs(slope) < 1e-9, params


def test_psi_capital_minimum_sits_at_the_seam_when_convex():
    params = KernelParams(3, 2.0, 1.5)
    base = psi_capital(params, 1.0)
    for rho in (0.0, 0.4, 0.9, 1.3, 2.5, 6.0):
        assert psi_capital(params, rho) >= base - 1e-12


def test_psi_capital_log_limit_matches_centered_small_beta():
    h = 1e-5
    plus = psi_capital(KernelParams(4, 2.0, h), 4.0)
    minus = psi_capital(KernelParams(4, 2.0, -h), 4.0)
    log_val = psi_capital(KernelParams(4, 2.0, 0.0, beta_is_log=True), 4.0)
    assert abs(0.5 * (plus + minus) - log_val) < 1e-9


def test_psi_capital_over_nodes_matches_each_node():
    for params in (KernelParams(3, 2.0, 1.5), KernelParams(4, 3.0, 0.0, beta_is_log=True)):
        nodes = np.linspace(0.0, 4.0, 9)
        values = psi_capital(params, nodes)
        assert isinstance(values, np.ndarray) and values.shape == nodes.shape
        assert values.tolist() == [psi_capital(params, float(r)) for r in nodes]
        assert isinstance(psi_capital(params, 0.5), float)


def test_psi_capital_condition_gates():
    with pytest.raises(IllConditioned) as exc:
        psi_capital(KernelParams(4, 2.0, 1e-8), 0.5)
    assert "beta_is_log" in str(exc.value)
    with pytest.raises(RegimeError):
        psi_capital(KernelParams(3, 5.0, 1.0), 0.5)
    with pytest.raises(RegimeError):
        psi_capital(KernelParams(1, 2.0, -0.5), 0.5)
    with pytest.raises(DomainError):
        psi_capital(KernelParams(3, 2.0, 1.5), -0.1)
    with pytest.raises(IllConditioned):
        verify_euler_lagrange(KernelParams(3, 3.0, -1e-8), force_sphere=True)


def test_curvature_at_one_vanishes_on_the_critical_curve():
    from aggremin import beta_star

    for d, alpha in [
        (2, 3.0), (2, 4.0), (3, 2.0), (3, 3.0), (3, 4.0), (4, 3.0), (4, 4.0),
        (5, 2.0), (5, 3.0), (5, 4.0), (6, 2.0), (6, 3.0), (7, 2.5), (7, 4.0),
    ]:
        bs = beta_star(d, alpha)
        assert abs(psi_capital_dd_at_one(KernelParams(d, alpha, bs))) < 1e-12, (
            d,
            alpha,
        )
    # beta_star(2) = 0 in d = 4: the log kernel's one point on the curve.
    log_params = KernelParams(4, 2.0, 0.0, beta_is_log=True)
    assert abs(psi_capital_dd_at_one(log_params)) < 1e-12


def test_curvature_at_one_changes_sign_across_the_critical_curve():
    from aggremin import beta_star

    for d, alpha in [(2, 3.0), (2, 4.0), (3, 2.0), (3, 3.0), (3, 4.0), (5, 2.0), (5, 3.0), (5, 4.0)]:
        bs = beta_star(d, alpha)
        below = psi_capital_dd_at_one(KernelParams(d, alpha, bs - 0.05))
        above = psi_capital_dd_at_one(KernelParams(d, alpha, bs + 0.05))
        assert below < 0.0 < above, (d, alpha)


def test_curvature_at_one_matches_finite_differences():
    h = 1e-3
    params = KernelParams(3, 2.0, 1.5)
    dd = psi_capital_dd_at_one(params)
    mid = psi_capital(params, 1.0)
    fd = (psi_capital(params, 1.0 + h) - 2.0 * mid + psi_capital(params, 1.0 - h)) / (
        h * h
    )
    assert abs(dd - fd) < 1e-5
    params = KernelParams(2, 4.0, 1.7)
    dd = psi_capital_dd_at_one(params)
    mid = psi_capital(params, 1.0)
    fd = (psi_capital(params, 1.0 + h) - 2.0 * mid + psi_capital(params, 1.0 - h)) / (
        h * h
    )
    assert abs(dd - fd) < 1e-3


def test_curvature_at_one_logarithmic_cases():
    with pytest.raises(DomainError) as exc:
        psi_capital_dd_at_one(KernelParams(3, 2.0, 0.0, beta_is_log=True))
    assert "need d + beta > 3, got 3" in str(exc.value)
    assert psi_capital_dd_at_one(KernelParams(4, 2.0, 0.0, beta_is_log=True)) == 0.0
    got = psi_capital_dd_at_one(KernelParams(5, 2.0, 0.0, beta_is_log=True))
    assert abs(got - 0.0625) < 1e-15
    # With alpha = 2, Psi''(1) = -tilde_psi0''(1); tilde_psi0' is
    # (d-2)/(2d) F(1, (4-d)/2; d/2+1; rho) on the inner side.
    for d in (6, 7):
        got = psi_capital_dd_at_one(KernelParams(d, 2.0, 0.0, beta_is_log=True))
        with mpmath.workdps(30):
            def slope(r):
                f = mpmath.hyp2f1(1, mpmath.mpf(4 - d) / 2, mpmath.mpf(d) / 2 + 1, r)
                return mpmath.mpf(d - 2) / (2 * d) * f

            want = -float(mpmath.diff(slope, 1, direction=-1))
        assert abs(got - want) < 1e-15, (d, got, want)


def test_convexity_report_passes_in_regime():
    report = convexity_report(KernelParams(3, 2.0, 1.5))
    assert report.passed
    assert report.min_second_difference >= -report.tol
    assert report.psi_dd_at_one > 0.0
    assert 0.0 in report.grid and 1.0 in report.grid


def test_convexity_report_on_the_critical_curve():
    report = convexity_report(KernelParams(2, 4.0, 4.0 / 3.0))
    assert report.passed
    assert abs(report.psi_dd_at_one) < 1e-12
    assert report.min_second_difference >= 0.0


def test_convexity_report_fails_below_the_critical_curve():
    params = KernelParams(3, 2.0, 0.5)
    report = convexity_report(params)
    assert not report.passed
    assert report.min_second_difference < -report.tol
    assert report.psi_dd_at_one < 0.0
    # The violation concentrates where the curvature formula says it
    # must: in the stencils nearest the seam.
    grid = np.array(report.grid)
    left = grid[grid <= 1.0]
    right = grid[grid >= 1.0]
    vals_left = np.array([psi_capital(params, r) for r in left])
    vals_right = np.array([psi_capital(params, r) for r in right])
    second = np.concatenate([np.diff(vals_left, 2), np.diff(vals_right, 2)])
    centers = np.concatenate([left[1:-1], right[1:-1]])
    assert abs(centers[int(np.argmin(second))] - 1.0) < 0.1


def test_convexity_report_fails_when_only_the_curvature_at_one_is_negative():
    """Just below beta_star the negative curvature hugs rho = 1 so tightly
    that every second difference on the grid stays positive; the exact
    Psi''(1) < 0 must still fail the report."""
    from aggremin import beta_star

    params = KernelParams(4, 3.826, beta_star(4, 3.826) - 0.05)
    report = convexity_report(params)
    assert report.min_second_difference > 0.0
    assert report.psi_dd_at_one < -report.tol
    assert not report.passed


def test_convexity_report_nan_curvature_in_the_low_strip():
    report = convexity_report(KernelParams(2, 2.0, 0.9))
    assert math.isnan(report.psi_dd_at_one)


def test_convexity_report_round_trips_through_dict():
    report = convexity_report(KernelParams(3, 2.0, 1.5))
    assert ConvexityReport(**asdict(report)) == report


def test_convexity_report_gates():
    good = KernelParams(3, 2.0, 1.5)
    for rho_max in (0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            convexity_report(good, rho_max=rho_max)
    with pytest.raises(DomainError):
        convexity_report(good, n_grid=5)


def test_single_zero_scan_pure_signs():
    assert single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, 1e-9, 31) == "+"
    q = hyp2f1(Hyp2F1Input(1.5, 2.0, 4.0, 1.0)) / hyp2f1(
        Hyp2F1Input(0.5, 1.0, 4.0, 1.0)
    )
    assert single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, q, 31) == "-0"


def test_single_zero_scan_matches_a_node_by_node_scan():
    """The two array calls give the pattern of a scan one node at a time."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        a2, b2 = rng.uniform(0.1, 2.0, size=2)
        a1, b1 = a2 + rng.uniform(0.1, 2.0), b2 + rng.uniform(0.1, 2.0)
        c = a1 + b1 + rng.uniform(0.2, 3.0)
        q = float(np.exp(rng.uniform(-6.9, 6.9)))
        symbols = []
        for z in np.linspace(0.0, 1.0, 41):
            f1 = hyp2f1(Hyp2F1Input(a1, b1, c, float(z)))
            f2 = hyp2f1(Hyp2F1Input(a2, b2, c, float(z)))
            g = f1 - q * f2
            sym = "0" if abs(g) <= 1e-12 * (abs(f1) + q * abs(f2)) else "+" if g > 0 else "-"
            if not symbols or symbols[-1] != sym:
                symbols.append(sym)
        assert single_zero_scan(a1, b1, a2, b2, c, q, 41) == "".join(symbols)


def test_single_zero_scan_gates():
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, -1.0, 11)
    with pytest.raises(DomainError):
        single_zero_scan(0.5, 2.0, 1.5, 1.0, 4.0, 1.0, 11)
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 0.5, 0.5, 1.0, 4.0, 1.0, 11)
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 3.0, 1.0, 11)
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, 1.0, 1)


@given(
    a2=st.floats(0.1, 2.0),
    da=st.floats(0.1, 2.0),
    b2=st.floats(0.1, 2.0),
    db=st.floats(0.1, 2.0),
    dc=st.floats(0.2, 3.0),
    lnq=st.floats(-6.9, 6.9),
)
@settings(max_examples=120, deadline=None)
def test_single_zero_scan_crosses_at_most_once(a2, da, b2, db, dc, lnq):
    a1, b1 = a2 + da, b2 + db
    c = a1 + b1 + dc
    pattern = single_zero_scan(a1, b1, a2, b2, c, math.exp(lnq), 21)
    assert pattern.replace("0", "") in ("", "-", "+", "-+")
