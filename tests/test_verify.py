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
    IllConditioned,
    KernelParams,
    QuadratureFailure,
    RegimeError,
    ball_potential,
    ball_potential_quad,
    beta_star,
    candidate_for,
    classify,
    convexity_report,
    eta,
    psi_capital,
    psi_capital_dd_at_one,
    psi_gamma,
    psi_values_at_one,
    radius,
    single_zero_scan,
    sphere_potential,
    sphere_potential_quad,
    tilde_psi0,
    total_potential,
    unit_sphere_area,
    verify_euler_lagrange,
)
from aggremin.closed_form import _radius_sphere
from aggremin.potentials import _potential
from aggremin.special import _hyp2f1
from aggremin.verify import _CONVEXITY_GRID, _EL_FOLD, _EL_GRID, _EL_ONE, _el_grid


def test_sphere_quadrature_matches_closed_form():
    for d in (2, 3, 4):
        for g in (-1.2, 0.7, 3.0):
            for x in (0.35, 1.0, 1.9):
                if x == 1.0 and not g > 1 - d:
                    continue
                want = sphere_potential(d, g, x)
                got = sphere_potential_quad(d, g, x)
                assert abs(got - want) < 1e-9 * abs(want), (d, g, x)


@pytest.mark.parametrize(
    "oracle, args, where",
    [
        (sphere_potential_quad, (3, 1.0, 0.5), "sphere"),
        (ball_potential_quad, (1, 0.5, 0.3), "line"),
        (ball_potential_quad, (3, 0.5, 0.3), "ball"),
    ],
)
def test_quadrature_oracles_refuse_a_large_error_estimate(oracle, args, where, monkeypatch):
    """An integral whose error estimate is 1e-3 of a unit value is a
    QuadratureFailure, not a number."""
    import scipy.integrate

    monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (1.0, 1e-3))
    with pytest.raises(QuadratureFailure, match=f"^{where} quadrature error .* too large"):
        oracle(*args)


def _sphere_mpmath(d: int, gamma: float, x: float) -> float:
    """The sphere integral in 30-digit mpmath, the integrand scaled by
    (1 + x)^gamma so that mpmath's absolute target is a relative one,
    with the oracle's breakpoints at |x - 1| 100^k below pi."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        gap, scale = abs(x - 1), (1 + x) ** gamma
        cuts = [gap * mpmath.mpf(100) ** k for k in range(9) if gap * 100**k < mpmath.pi]

        def f(t):
            dist2 = (x - 1) ** 2 + 4 * x * mpmath.sin(t / 2) ** 2
            return dist2 ** (mpmath.mpf(gamma) / 2) / scale * mpmath.sin(t) ** (d - 2)

        raw = mpmath.quad(f, [0] + cuts + [mpmath.pi])
        return float(unit_sphere_area(d - 1) * scale * raw)


@pytest.mark.parametrize("d, gamma", [(3, -1.5), (2, -0.5), (4, -2.5), (5, -3.9), (3, 1.5)])
def test_sphere_quadrature_next_to_the_sphere_matches_mpmath(d, gamma):
    """For 0 < |x - 1| << 1 the integrand peaks where theta is of order
    |x - 1|; without breakpoints there QUADPACK missed the peak, 2.0e-1
    off at (5, -3.9), x = 1 +- 1e-8, with an error estimate that passed.
    The closed form holds 1e-14 relative there too, against the integral
    and, at rho and at x = 1 +- 10^-k for k = 4..12, against the 40-digit
    2F1: it takes 1 - z from the exact rho - 1, where 1 - fl(1/rho) cost
    psi_gamma 2.0e-11 and sphere_potential 3.2e-11 at (5, -3.9)."""
    for x in (0.5, 1 - 1e-4, 1 + 1e-4, 1 - 1e-8, 1 + 1e-8, 1 - 1e-12, 1 + 1e-12, 2.0, 1e8):
        want = _sphere_mpmath(d, gamma, x)
        got = sphere_potential_quad(d, gamma, x)
        assert abs(got - want) <= 1e-10 * abs(want), (x, got, want)
        assert abs(sphere_potential(d, gamma, x) - want) <= 1e-14 * abs(want), x
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        a, b, c = -g / 2, (2 - g - d) / 2, mpmath.mpf(d) / 2
        area = 2 * mpmath.pi**c / mpmath.gamma(c)

        def psi(rho):
            if rho < 1:
                return mpmath.hyp2f1(a, b, c, rho)
            return rho ** (g / 2) * mpmath.hyp2f1(a, b, c, 1 / rho)

        for r in [1 + side * 10.0**-k for k in range(4, 13) for side in (-1, 1)]:
            want = psi(mpmath.mpf(r))
            assert abs(psi_gamma(d, gamma, r) - want) <= 1e-14 * abs(want), ("psi", r)
            want = area * psi(mpmath.mpf(r) ** 2)
            assert abs(sphere_potential(d, gamma, r) - want) <= 1e-14 * abs(want), ("x", r)


@pytest.mark.parametrize(
    "d, gamma",
    [(2, 1.0), (3, -1.0), (2, -1.0), (3, 0.5), (4, -2.5), (5, -3.5), (1, -0.5), (1, 0.5), (1, 2.5)],
)
def test_ball_quadrature_keeps_its_digits_far_from_the_ball(d, gamma):
    """In delta = s - x and v = 1 + cos the cap's edge does not cancel, so
    the oracle holds 1e-10 from x = 0.3 to 1e12 (1e30 on the line).  In
    1 - x^2 - s^2 it returned 0.0 at (2, 1.0), x = 1e8, and 1.4e-19 for
    3.5e-20 at (4, -2.5), and raised from x = 1e4 on at (3, 0.5); the
    line was 3.6e-7 off at x = 1e20 under an absolute error target."""
    xs = (0.3, 0.9, 1.0, 1.5, 2.0, 10.0, 1e2, 1e4, 1e6, 1e8, 1e12)
    for x in xs + ((1e20, 1e30) if d == 1 else ()):
        want = ball_potential(d, gamma, x)
        got = ball_potential_quad(d, gamma, x)
        assert got != 0.0 and abs(got - want) <= 1e-10 * abs(want), (x, got, want)


def test_sphere_quadrature_log_shortcut_and_gates():
    assert sphere_potential_quad(3, 0.0, 0.7) == unit_sphere_area(3)
    with pytest.raises(DomainError):
        sphere_potential_quad(3, -2.0, 1.0)
    with pytest.raises(DomainError):
        sphere_potential_quad(3, 1.0, -0.3)
    with pytest.raises(DomainError):
        sphere_potential_quad(1, 1.0, 0.5)
    # A non-finite exponent is outside the domain, not a failed quadrature.
    for gamma, x_norm in ((math.nan, 0.5), (math.inf, 0.5), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="gamma must be finite"):
            sphere_potential_quad(3, gamma, x_norm)


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
        report = verify_euler_lagrange(params)
        assert report.passed, params
        assert report.eta == eta(params)
        assert report.support_max_abs_dev <= report.tol
        assert report.exterior_min_margin >= -report.tol
    # The grid mirrors its interior: it is closed under rho -> 1/rho (to
    # one rounding), keeps exactly n_grid nodes, and needs no end point.
    for n_grid in (100, 300):
        grid = _el_grid(n_grid)
        assert grid.size == n_grid
        positive = grid[grid > 0.0]
        np.testing.assert_allclose(np.sort(1.0 / positive), positive, rtol=1e-15, atol=0.0)
    # The audit's own grid: 2000 sorted nodes, 0 and 1 among them,
    # reaching rho = 800.
    assert 0.0 in _EL_GRID and 1.0 in _EL_GRID
    assert np.array_equal(_EL_GRID, np.sort(_EL_GRID))
    assert len(_EL_GRID) == 2000
    assert max(_EL_GRID) == 800.0


def test_the_audit_grid_folds_onto_its_inner_nodes():
    """1/rho of every outer node is an inner node bit for bit, so the
    fold keeps 1001 distinct nodes, each node's z among them."""
    outer = _EL_GRID[_EL_GRID > 1.0]
    assert np.isin(1.0 / outer, _EL_GRID[_EL_GRID < 1.0]).all()
    assert _EL_FOLD.z.size == np.count_nonzero(_EL_GRID <= 1.0) == 1001
    folded = np.where(_EL_GRID > 1.0, 1.0 / np.maximum(_EL_GRID, 1.0), _EL_GRID)
    assert np.array_equal(_EL_FOLD.spread(_EL_FOLD.z), folded)
    assert np.array_equal(_EL_FOLD.base, outer)


@pytest.mark.parametrize(
    "params",
    [
        KernelParams(2, 3.0, 1.7),
        KernelParams(4, 3.0, 0.0, beta_is_log=True),
        KernelParams(2, 2.0, -1.0),
    ],
    ids=["sphere", "log-sphere", "ball"],
)
def test_folded_audit_equals_a_direct_evaluation(params):
    """The audit's folded pass over rho gives the figures of one
    total_potential call on the same radii, within 1e-14 max(1, |eta|)."""
    report = verify_euler_lagrange(params)
    cand = candidate_for(params)
    level = eta(params)
    bound = 1e-14 * max(1.0, abs(level))
    dev = total_potential(params, cand, cand.radius * np.sqrt(_EL_GRID)) - level
    support = _EL_GRID == 1.0 if cand.kind == "UniformSphere" else _EL_GRID <= 1.0
    assert abs(report.eta - level) <= bound
    assert abs(report.support_max_abs_dev - np.abs(dev[support]).max()) <= bound
    assert abs(report.exterior_min_margin - dev[~support].min()) <= bound


@pytest.mark.parametrize(
    "params",
    [
        KernelParams(3, 3.0, 1.5),
        KernelParams(2, 3.0, 1.75),
        KernelParams(4, 3.0, 0.0, beta_is_log=True),
        KernelParams(3, 2.0, -1.0),
        KernelParams(3, 2.0, 0.0, beta_is_log=True),
    ],
    ids=["shell", "2F1", "log-sphere", "ball", "log-ball"],
)
def test_the_audit_reads_eta_off_its_own_grid(params):
    """The audit's one pass holds its probe node, rho = 1 on the sphere
    and 0 in the ball, to 2E, as ``eta`` holds total_potential at R or 0:
    the two values and the two etas are equal bit for bit."""
    cand = candidate_for(params)
    sphere = cand.kind == "UniformSphere"
    grid = _potential(params, cand, _EL_GRID, _EL_FOLD)
    at_probe = grid[_EL_ONE] if sphere else grid[0]
    assert _EL_GRID[_EL_ONE] == 1.0
    assert at_probe == total_potential(params, cand, cand.radius if sphere else 0.0)
    assert verify_euler_lagrange(params).eta == eta(params)


def test_euler_lagrange_report_round_trips_through_dict():
    report = verify_euler_lagrange(KernelParams(3, 2.0, 1.5))
    assert ELReport(**asdict(report)) == report


def test_forced_sphere_fails_below_the_critical_curve():
    params = KernelParams(3, 2.0, 0.7)
    report = verify_euler_lagrange(params, force_sphere=True)
    assert not report.passed
    assert report.exterior_min_margin < -1e-3
    # The failure has two faces: the potential dips below the surface
    # level both deep inside (rho -> 0) and just outside the sphere.
    r = _radius_sphere(3, 2.0, 0.7)
    cand = CandidateMinimizer("UniformSphere", r)
    level = total_potential(params, cand, r)
    dev = total_potential(params, cand, r * np.sqrt(_EL_GRID)) - level
    assert dev[_EL_GRID < 1.0].min() < -1e-3
    outside_band = (_EL_GRID > 1.0) & (_EL_GRID <= 1.5)
    assert dev[outside_band].min() < -5e-5
    # The report names the deeper face: the centre.
    assert report.rho_worst_exterior == 0.0


def test_euler_lagrange_report_names_its_worst_nodes():
    """The reported locations are where a recomputation on the audit's
    grid finds the worst support deviation and the lowest margin."""
    params = KernelParams(2, 2.0, -1.0)
    report = verify_euler_lagrange(params)
    cand = CandidateMinimizer("BallProfile", radius(params))
    dev = total_potential(params, cand, cand.radius * np.sqrt(_EL_GRID)) - eta(params)
    inside = _EL_GRID <= 1.0
    assert report.rho_worst_support == _EL_GRID[inside][np.argmax(np.abs(dev[inside]))]
    assert report.rho_worst_exterior == _EL_GRID[~inside][np.argmin(dev[~inside])]
    assert report.rho_worst_support == 0.005
    # A sphere's support is the one node rho = 1.
    assert verify_euler_lagrange(KernelParams(3, 2.0, 1.5)).rho_worst_support == 1.0


def test_forced_sphere_flag_is_a_no_op_in_the_sphere_regime():
    params = KernelParams(3, 2.0, 1.5)
    normal = verify_euler_lagrange(params)
    forced = verify_euler_lagrange(params, force_sphere=True)
    assert normal == forced


def test_euler_lagrange_memory_stays_small():
    """The log-kernel audit sums its series node by node, one Horner pass
    over the grid, so its peak allocation stays a few megabytes."""
    params = KernelParams(3, 2.0, 0.0, beta_is_log=True)
    tracemalloc.start()
    try:
        verify_euler_lagrange(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_sphere_audit_sends_no_node_above_0_9_to_the_ufunc(monkeypatch):
    """With c - a - b = d + gamma - 1 off the integers for both exponents,
    every profile node above z = 0.9 takes the z -> 1 - z connection
    formula, so scipy's hyp2f1 ufunc only ever sees z <= 0.9, where its
    direct series is fast."""
    import scipy.special

    largest = []
    ufunc = scipy.special.hyp2f1

    def spy(a, b, c, z):
        largest.append(float(np.max(z)))
        return ufunc(a, b, c, z)

    monkeypatch.setattr(scipy.special, "hyp2f1", spy)
    report = verify_euler_lagrange(KernelParams(2, 3.5, 1.7))
    assert report.passed
    assert largest and max(largest) <= 0.9, max(largest)


# (a, b, c) of the sphere profile at gamma = 2.5 in d = 2, 4 and 5, and of
# the ball's outer branch at (2, 2, -1): each takes the connection formula
# above z = 0.9.
_PLANNED_TRIPLES = [(-1.25, (-0.5 - d) / 2.0, d / 2.0) for d in (2, 4, 5)] + [(0.5, 0.5, 2.5)]


def test_a_cold_plan_gives_the_bits_of_a_warm_one():
    """Each 2F1 triple's connection plan is cached: a call after the cache
    is cleared gives the same bits on the audit's and the convexity
    grid's folds as a call that finds the plan cached, and a repeated
    triple is a hit."""
    from aggremin import verify
    from aggremin.special import _connection_plan, _hyp2f1

    for a, b, c in _PLANNED_TRIPLES:
        for fold in (verify._EL_FOLD, verify._CONVEXITY_FOLD):
            _connection_plan.cache_clear()
            cold = _hyp2f1(a, b, c, fold.z, fold.gap)
            before = _connection_plan.cache_info()
            warm = _hyp2f1(a, b, c, fold.z, fold.gap)
            after = _connection_plan.cache_info()
            assert np.array_equal(cold, warm)
            assert after.hits > before.hits
            assert after.misses == before.misses


def test_scan_sees_a_dip_between_quarter_nodes(monkeypatch):
    """g = f1 - q f2 negative only on (0.31, 0.34), between the nodes of a
    scan at z = 0, 0.25, ..., 1: the documented 41 nodes hold z = 0.325,
    so the scan reads the dip."""
    from aggremin import verify

    def profile(a, b, c, z):
        if (a, b) == (2.0, 2.0):
            return np.ones(z.shape)
        return np.where((z > 0.31) & (z < 0.34), 2.0, 0.5)

    monkeypatch.setattr(verify, "_hyp2f1", profile)
    assert single_zero_scan(2.0, 2.0, 1.0, 1.0, 5.0, 1.0) == "+-+"


def test_arrays_built_once_are_read_only():
    """The grids, folds and coefficients built once and handed to every
    call cannot be written: the audits' grids and folds, eta's probe
    folds, the cached log-series coefficients and the cached connection
    plans of the d = 2, 4 and 5 sphere profiles and of the ball's outer
    branch."""
    from aggremin import closed_form, verify
    from aggremin.potentials import _coefficients
    from aggremin.special import _connection_plan

    arrays = [verify._EL_GRID, verify._CONVEXITY_GRID, verify._SCAN_GRID]
    for fold in (verify._EL_FOLD, verify._CONVEXITY_FOLD,
                 closed_form._SPHERE_PROBE, closed_form._BALL_PROBE):
        arrays += [a for a in fold[:5] if a is not None]  # z, gap, take, outer, base
    arrays += [_coefficients(d, c0)[0] for d in (2, 4, 5, 40) for c0 in (d / 2.0, 2.0)]
    assert _coefficients(5, 2.5)[0] is _coefficients(5, 2.5)[0]
    for triple in _PLANNED_TRIPLES:
        plan = _connection_plan(*triple)
        assert plan is _connection_plan(*triple)
        arrays.append(plan[1])
    for array in arrays:
        assert not array.flags.writeable


def test_euler_lagrange_gates():
    with pytest.raises(RegimeError):
        verify_euler_lagrange(KernelParams(3, 3.0, 0.1))
    with pytest.raises(RegimeError):
        verify_euler_lagrange(KernelParams(3, 5.0, 1.0), force_sphere=True)
    with pytest.raises(RegimeError):
        verify_euler_lagrange(KernelParams(3, 2.0, -1.5), force_sphere=True)
    with pytest.raises(RegimeError, match=r"^the sphere combination needs d \+ beta > 2, got 2\.0$"):
        verify_euler_lagrange(KernelParams(3, 2.0, -1.0), force_sphere=True)


_SEAM_CASES = [
    KernelParams(3, 2.0, 1.5),
    KernelParams(2, 4.0, 1.7),
    KernelParams(4, 2.0, 0.0, beta_is_log=True),
]


def _seam_slope(params, h=1e-5):
    return (psi_capital(params, 1.0 + h) - psi_capital(params, 1.0 - h)) / (2.0 * h)


def test_psi_capital_is_stationary_at_the_seam():
    for params in _SEAM_CASES:
        assert abs(_seam_slope(params)) < 1e-9, params


def test_psi_capital_reads_the_sphere_radius(monkeypatch):
    """Psi is the sphere's potential scaled by its own radius: with that
    radius 1e-6 high, the seam slope tilts above 1e-8."""
    monkeypatch.setattr(
        "aggremin.closed_form._radius_sphere", lambda *args: (1.0 + 1e-6) * _radius_sphere(*args)
    )
    for params in _SEAM_CASES:
        assert abs(_seam_slope(params)) > 1e-8, params


def _psi_composition(params, rho):
    """Psi assembled from its profiles: v_beta psi_alpha / (alpha v_alpha)
    - psi_beta/beta with v_gamma = psi_gamma(1), and for the log kernel
    psi_alpha / (alpha v_alpha) - tilde_psi0."""
    d, alpha, beta = params.d, params.alpha, params.beta
    attract = psi_gamma(d, alpha, rho) / (alpha * psi_values_at_one(d, alpha)[0])
    if params.beta_is_log:
        return attract - tilde_psi0(d, rho)
    return psi_values_at_one(d, beta)[0] * attract - psi_gamma(d, beta, rho) / beta


@pytest.mark.parametrize(
    "params",
    [
        KernelParams(3, 2.0, 1.5),  # d = 3: the shell formula
        KernelParams(2, 4.0, 1.7),  # d = 2: the 2F1
        KernelParams(4, 3.0, 0.0, beta_is_log=True),
        KernelParams(3, 4.0, 2.0),  # Boundary
        KernelParams(3, 3.0, 0.5),  # below beta_star(3, 3) = 2/3
    ],
    ids=["shell", "hyp2f1", "log", "boundary", "forced"],
)
def test_psi_capital_matches_its_profile_composition(params):
    """The sphere's potential over R^beta (plus ln R for the log kernel)
    is the composition of the profiles, within 2e-14 max(1, |Psi|) on
    the convexity grid."""
    got = psi_capital(params, _CONVEXITY_GRID)
    want = _psi_composition(params, _CONVEXITY_GRID)
    assert np.all(np.abs(got - want) <= 2e-14 * np.maximum(1.0, np.abs(want))), params


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
    # d + beta <= 2: every sphere instrument refuses it at one gate.
    ball = KernelParams(3, 2.0, -1.0)
    for instrument in (lambda: psi_capital(ball, 0.5), lambda: psi_capital_dd_at_one(ball),
                       lambda: convexity_report(ball)):
        with pytest.raises(RegimeError, match=r"^the sphere combination needs d \+ beta > 2, got 2\.0$"):
            instrument()
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
    assert 0.0 in _CONVEXITY_GRID and 1.0 in _CONVEXITY_GRID


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
    # must: in the stencils nearest the seam.  The recomputation here is
    # the independent check on the report's location.
    left = _CONVEXITY_GRID[_CONVEXITY_GRID <= 1.0]
    right = _CONVEXITY_GRID[_CONVEXITY_GRID >= 1.0]
    vals_left = psi_capital(params, left)
    vals_right = psi_capital(params, right)
    second = np.concatenate([np.diff(vals_left, 2), np.diff(vals_right, 2)])
    centers = np.concatenate([left[1:-1], right[1:-1]])
    centre = centers[int(np.argmin(second))]
    assert abs(centre - 1.0) < 0.1
    assert centre == report.rho_min_second_difference


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


@pytest.mark.parametrize("d, alpha", [(2, 3.0), (3, 3.0), (4, 2.5)])
def test_convexity_report_decides_the_seam_sign_exactly_off_the_sphere_regime(d, alpha):
    """At beta_star - 1e-8 Psi''(1) is about -3e-9, inside the tolerance,
    and classify puts the point outside the sphere regime: the exact sign
    fails the report, as it fails the forced Euler-Lagrange audit.  On
    the curve the report passes."""
    below = KernelParams(d, alpha, beta_star(d, alpha) - 1e-8)
    assert classify(below).tag == "OutOfScope"
    report = convexity_report(below)
    assert -report.tol < report.psi_dd_at_one < 0.0
    assert not report.passed
    assert not verify_euler_lagrange(below, force_sphere=True).passed
    assert convexity_report(KernelParams(d, alpha, beta_star(d, alpha))).passed


def test_convexity_report_nan_curvature_in_the_low_strip():
    report = convexity_report(KernelParams(2, 2.0, 0.9))
    assert math.isnan(report.psi_dd_at_one)


def test_convexity_report_round_trips_through_dict():
    report = convexity_report(KernelParams(3, 2.0, 1.5))
    assert ConvexityReport(**asdict(report)) == report


def test_audits_take_only_the_parameter_point():
    params = KernelParams(3, 2.0, 1.5)
    with pytest.raises(TypeError):
        verify_euler_lagrange(params, 300)
    with pytest.raises(TypeError):
        convexity_report(params, 10.0)
    with pytest.raises(TypeError):
        convexity_report(params, n_grid=400)


def test_single_zero_scan_pure_signs():
    assert single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, 1e-9) == "+"
    q = float(_hyp2f1(1.5, 2.0, 4.0, 1.0)) / float(_hyp2f1(0.5, 1.0, 4.0, 1.0))
    assert single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, q) == "-0"


def test_single_zero_scan_matches_a_node_by_node_scan():
    """The two array calls give the pattern of a scan one node at a time
    over the same 41 uniform nodes."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        a2, b2 = rng.uniform(0.1, 2.0, size=2)
        a1, b1 = a2 + rng.uniform(0.1, 2.0), b2 + rng.uniform(0.1, 2.0)
        c = a1 + b1 + rng.uniform(0.2, 3.0)
        q = float(np.exp(rng.uniform(-6.9, 6.9)))
        symbols = []
        for z in np.linspace(0.0, 1.0, 41):
            f1 = float(_hyp2f1(a1, b1, c, z))
            f2 = float(_hyp2f1(a2, b2, c, z))
            g = f1 - q * f2
            sym = "0" if abs(g) <= 1e-12 * (abs(f1) + q * abs(f2)) else "+" if g > 0 else "-"
            if not symbols or symbols[-1] != sym:
                symbols.append(sym)
        assert single_zero_scan(a1, b1, a2, b2, c, q) == "".join(symbols)


def test_single_zero_scan_gates():
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, -1.0)
    with pytest.raises(DomainError, match="finite q"):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, math.inf)
    with pytest.raises(DomainError):
        single_zero_scan(0.5, 2.0, 1.5, 1.0, 4.0, 1.0)
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 0.5, 0.5, 1.0, 4.0, 1.0)
    with pytest.raises(DomainError):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 3.0, 1.0)
    # The grid is fixed: a node count is not an argument.
    with pytest.raises(TypeError):
        single_zero_scan(1.5, 2.0, 0.5, 1.0, 4.0, 1.0, 41)


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
    pattern = single_zero_scan(a1, b1, a2, b2, c, math.exp(lnq))
    assert pattern.replace("0", "") in ("", "-", "+", "-+")
