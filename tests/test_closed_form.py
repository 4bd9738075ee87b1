"""Exact minimizers: regime classification, radii, energies, densities.

Anchors are independently derived rationals and surds; the remaining
checks replay the defining properties (criticality of the radius, unit
mass, potential levels) through quadrature or finite differences.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aggremin import (
    CandidateMinimizer,
    DomainError,
    IllConditioned,
    KernelParams,
    RegimeError,
    ball_density,
    beta_star,
    candidate_for,
    classify,
    energy,
    eta,
    psi_values_at_one,
    quadratic_ball_moment,
    radius,
    unit_sphere_area,
)
from aggremin.closed_form import _energy_ball, _energy_sphere


def test_beta_star_anchor_values():
    for d in (2, 3, 4, 5):
        assert abs(beta_star(d, 2.0) - (4.0 - d)) < 1e-14
    assert abs(beta_star(2, 4.0) - 4.0 / 3.0) < 1e-14
    assert abs(beta_star(2, 3.0) - 1.5) < 1e-14
    assert abs(beta_star(3, 3.0) - 2.0 / 3.0) < 1e-14
    assert abs(beta_star(3, 4.0) - 0.5) < 1e-14
    assert abs(beta_star(4, 3.0) + 0.25) < 1e-14
    assert abs(beta_star(5, 2.0) + 1.0) < 1e-14


def test_beta_star_gates():
    with pytest.raises(DomainError):
        beta_star(1, 2.0)
    with pytest.raises(DomainError):
        beta_star(3, 1.5)
    with pytest.raises(DomainError):
        beta_star(2.5, 3.0)


@given(d=st.integers(2, 6), alpha=st.floats(2.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_beta_star_range_and_monotonicity(d, alpha):
    bs = beta_star(d, alpha)
    assert -d + 3.0 < bs <= -d + 4.0 + 1e-12
    if alpha <= 3.9:
        assert beta_star(d, alpha + 0.1) <= bs + 1e-12


def test_classify_sphere_and_ties():
    tag = classify(KernelParams(3, 2.0, 1.0))
    assert tag.tag == "SphereTheorem1"
    assert tag.detail.startswith("sphere regime, beta_star=")
    # Ties resolve toward the sphere: beta at the critical curve or at 2.
    assert classify(KernelParams(3, 3.0, 2.0 / 3.0)).tag == "SphereTheorem1"
    assert classify(KernelParams(3, 3.0, 2.0)).tag == "SphereTheorem1"
    assert classify(KernelParams(4, 2.0, 0.0, beta_is_log=True)).tag == (
        "SphereTheorem1"
    )


def test_classify_boundary_corner():
    for d in (2, 3, 5):
        tag = classify(KernelParams(d, 4.0, 2.0))
        assert tag.tag == "Boundary"
        assert tag.detail == (
            "alpha=4, beta=2: sphere formulas hold, minimizer not unique"
        )


def test_classify_ball_regime():
    for params in (
        KernelParams(3, 2.0, -1.5),
        KernelParams(2, 2.0, 0.0, beta_is_log=True),
        KernelParams(3, 2.0, 0.0, beta_is_log=True),
        KernelParams(1, 2.0, -0.5),
    ):
        tag = classify(params)
        assert tag.tag == "BallTheorem2"
        assert tag.detail == "ball regime, alpha=2"


def test_classify_out_of_scope_details():
    tag = classify(KernelParams(3, 5.0, 1.0))
    assert (tag.tag, tag.detail) == ("OutOfScope", "alpha out of supported range")
    tag = classify(KernelParams(3, 0.0, -1.0, alpha_is_log=True))
    assert tag.detail == "alpha out of supported range"
    tag = classify(KernelParams(3, 1.5, -0.5))
    assert tag.detail == "alpha out of supported range"
    tag = classify(KernelParams(1, 3.0, -0.5))
    assert (tag.tag, tag.detail) == (
        "OutOfScope",
        "only alpha = 2 is supported in dimension 1",
    )
    tag = classify(KernelParams(3, 3.0, 2.5))
    assert (tag.tag, tag.detail) == (
        "OutOfScope",
        "beta above 2 is outside both regimes",
    )
    tag = classify(KernelParams(3, 3.0, 0.1))
    assert tag.tag == "OutOfScope"
    assert tag.detail.startswith("beta below beta_star(alpha) = ")


@given(d=st.integers(1, 6), beta=st.floats(-6.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_classify_special_branches_need_exact_floats(d, beta):
    """Only alpha == 2.0 is the ball and only (4.0, 2.0) is Boundary."""
    beta = max(beta, math.nextafter(-d, 0.0))
    params = KernelParams(d, math.nextafter(2.0, 3.0), beta, beta_is_log=beta == 0.0)
    assert classify(params).tag != "BallTheorem2"
    if d < 2:
        return
    corner = KernelParams(d, 4.0, 2.0)
    near = KernelParams(d, 4.0, math.nextafter(2.0, 0.0))
    assert classify(corner).tag == "Boundary"
    assert classify(near).tag == "SphereTheorem1"
    for fn in (radius, energy):
        want = fn(corner)
        assert abs(fn(near) - want) <= 1e-12 * max(1.0, abs(want)), fn.__name__


def test_radius_anchor_values():
    assert abs(radius(KernelParams(3, 2.0, 1.0)) - 2.0 / 3.0) < 1e-15
    for d in (3, 4, 5):
        assert abs(radius(KernelParams(d, 2.0, 2.0 - d)) - 1.0) < 1e-14
    for d in (2, 3, 5):
        want = 0.5 * math.sqrt(2.0 * d / (d + 1.0))
        assert abs(radius(KernelParams(d, 4.0, 2.0)) - want) < 1e-14
    for d in (2, 3):
        log_params = KernelParams(d, 2.0, 0.0, beta_is_log=True)
        assert abs(radius(log_params) - math.sqrt(2.0 / d)) < 1e-15


def test_radius_is_the_critical_point_of_the_energy():
    rng = np.random.default_rng(17)
    seen = 0
    while seen < 50:
        d = int(rng.integers(2, 6))
        alpha = float(rng.uniform(2.0, 4.0))
        lo = beta_star(d, alpha)
        beta = float(rng.uniform(lo, min(2.0, alpha) - 1e-6))
        if beta == 0.0:
            continue
        params = KernelParams(d, alpha, beta)
        if classify(params).tag != "SphereTheorem1":
            continue
        r = radius(params)
        lhs = r**alpha * psi_values_at_one(d, alpha)[1] / alpha
        rhs = r**beta * psi_values_at_one(d, beta)[1] / beta
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs)), (d, alpha, beta)
        seen += 1


def test_radius_critical_point_logarithmic_repulsion():
    for d, alpha in [(4, 2.0), (5, 2.0), (5, 3.0), (4, 2.5), (5, 4.0), (6, 3.0)]:
        if beta_star(d, alpha) > 0.0:
            continue
        params = KernelParams(d, alpha, 0.0, beta_is_log=True)
        assert classify(params).tag == "SphereTheorem1"
        r = radius(params)
        lhs = r**alpha * psi_values_at_one(d, alpha)[1] / alpha
        # tilde_psi0'(1) = 1/4 from either side.
        assert abs(lhs - 0.25) < 1e-12, (d, alpha)


def test_energy_anchor_values():
    assert abs(energy(KernelParams(3, 2.0, 1.0)) + 2.0 / 9.0) < 1e-15
    assert abs(energy(KernelParams(2, 4.0, 2.0)) + 1.0 / 12.0) < 1e-15
    log_ball = KernelParams(2, 2.0, 0.0, beta_is_log=True)
    assert abs(energy(log_ball) - 0.375) < 1e-14
    want = 0.6 * (3.0 * math.pi / 4.0) ** (2.0 / 3.0)
    assert abs(energy(KernelParams(2, 2.0, -1.0)) - want) < 1e-14


def test_beta_next_to_zero_is_refused_not_extrapolated():
    """A power-law beta within 1e-6 of 0 sits on the -1/(2 beta)
    divergence, not on the log kernel; every closed form refuses it."""
    for params in (KernelParams(3, 2.0, 1e-8), KernelParams(4, 3.0, -5e-7)):
        for fn in (radius, energy, eta, candidate_for):
            with pytest.raises(IllConditioned):
                fn(params)
    with pytest.raises(IllConditioned):
        ball_density(KernelParams(3, 2.0, 1e-8), 0.1)
    assert classify(KernelParams(3, 2.0, 1e-8)).tag == "BallTheorem2"
    assert math.isfinite(energy(KernelParams(3, 2.0, 2e-6)))


def test_sphere_energy_past_the_float_range_is_a_domain_error():
    """From d = 130 the gamma ratio of the sphere radius is inf/inf; the
    energy refuses it, and the radius keeps its own refusal."""
    assert math.isfinite(energy(KernelParams(129, 3.0, 1.999)))
    params = KernelParams(130, 3.0, 1.999)
    with pytest.raises(DomainError, match="d=130"):
        energy(params)
    with pytest.raises(DomainError, match="radius must be positive, got nan"):
        radius(params)


def test_log_sphere_energy_past_the_float_range_is_a_domain_error():
    assert math.isfinite(energy(KernelParams(130, 3.0, 0.0, beta_is_log=True)))
    with pytest.raises(DomainError, match="d=131"):
        energy(KernelParams(131, 3.0, 0.0, beta_is_log=True))


def test_ball_energy_past_the_float_range_is_a_domain_error():
    assert math.isfinite(energy(KernelParams(340, 2.0, 1.5 - 340)))
    with pytest.raises(DomainError, match="d=341"):
        energy(KernelParams(341, 2.0, 1.5 - 341))


def test_infinite_ball_radius_is_a_domain_error():
    """At d = 341 Gamma((4 - beta)/2) overflows and the ball radius reads
    inf; the candidate refuses it, so radius() raises."""
    params = KernelParams(341, 2.0, 1.5 - 341)
    with pytest.raises(DomainError, match="radius must be finite, got inf"):
        radius(params)
    with pytest.raises(DomainError, match="radius must be finite"):
        CandidateMinimizer("BallProfile", math.inf)


def test_unit_sphere_area_past_the_float_range_is_a_domain_error():
    """Gamma(172) overflows, so 2 pi^172 / Gamma(172) would read 0.0
    where the true area is about 1e-223."""
    assert 1e-224 < unit_sphere_area(343) < 1e-222
    with pytest.raises(DomainError, match="d=344"):
        unit_sphere_area(344)


def test_energy_formulas_agree_at_the_regime_junction():
    # At alpha = 2, beta = 4 - d both families degenerate to the same
    # sphere, so the two unrelated energy expressions must coincide.
    assert abs(_energy_sphere(3, 2.0, 1.0, False) - _energy_ball(3, 1.0, False)) < (
        1e-15
    )
    assert abs(_energy_sphere(3, 2.0, 1.0, False) + 2.0 / 9.0) < 1e-15
    log_sphere = _energy_sphere(4, 2.0, 0.0, True)
    log_ball = _energy_ball(4, 0.0, True)
    want = 0.25 * (0.5 + math.log(2.0))
    assert abs(log_sphere - log_ball) < 1e-12
    assert abs(log_sphere - want) < 1e-12


def test_eta_is_twice_the_energy():
    for params in (
        KernelParams(3, 2.0, 1.0),
        KernelParams(2, 4.0, 2.0),
        KernelParams(2, 2.0, -1.0),
        KernelParams(4, 2.0, 0.0, beta_is_log=True),
        KernelParams(1, 2.0, -0.5),
    ):
        assert eta(params) == 2.0 * energy(params)
    assert abs(eta(KernelParams(3, 2.0, 1.0)) + 4.0 / 9.0) < 1e-15
    assert abs(eta(KernelParams(2, 2.0, -1.0)) - 2.1248193048002726) < 1e-12


def test_candidate_for_sphere_fields():
    params = KernelParams(3, 2.0, 1.0)
    cand = candidate_for(params)
    assert asdict(cand) == {"kind": "UniformSphere", "radius": radius(params)}


def test_candidate_for_ball_fields():
    params = KernelParams(3, 2.0, -0.5)
    cand = candidate_for(params)
    assert asdict(cand) == {"kind": "BallProfile", "radius": radius(params)}
    # The density at the center is C_beta^-1 R^(beta-2) (R^2)^((2-beta-d)/2).
    c_beta, _ = quadratic_ball_moment(3, -0.5)
    want = cand.radius ** (-0.5 - 2.0) / c_beta
    center = (cand.radius * cand.radius) ** ((2.0 + 0.5 - 3.0) / 2.0)
    assert abs(ball_density(params, 0.0) - want * center) < 1e-15 * want * center


def test_ball_density_values_and_support():
    log_params = KernelParams(2, 2.0, 0.0, beta_is_log=True)
    assert abs(ball_density(log_params, 0.0) - 1.0 / math.pi) < 1e-15
    cand = candidate_for(log_params)
    assert ball_density(log_params, cand.radius) == 0.0
    assert ball_density(log_params, 10.0) == 0.0
    with pytest.raises(DomainError):
        ball_density(log_params, -0.1)
    with pytest.raises(RegimeError):
        ball_density(KernelParams(3, 3.0, 1.5), 0.3)


def test_ball_density_has_unit_mass():
    params = KernelParams(3, 2.0, -0.5)
    cand = candidate_for(params)
    area = unit_sphere_area(3)
    mass, err = quad(
        lambda u: ball_density(params, u * cand.radius)
        * area
        * (u * cand.radius) ** 2
        * cand.radius,
        0.0,
        1.0,
        points=[1.0],
        limit=300,
    )
    assert abs(mass - 1.0) < 1e-8


def test_candidate_measures_have_unit_mass_by_weighted_quadrature():
    for d, b, is_log in [(2, -1.0, False), (3, 0.5, False), (4, -1.5, False), (2, 0.0, True)]:
        params = KernelParams(d, 2.0, b, beta_is_log=is_log)
        cand = candidate_for(params)
        pw = (2.0 - b - d) / 2.0
        val, _ = quad(
            lambda u: u ** (d - 1) * (1.0 + u) ** pw,
            0.0,
            1.0,
            weight="alg",
            wvar=(0.0, pw),
        )
        # ball_density(0) is the normalization times R^(2 pw).
        mass = ball_density(params, 0.0) * unit_sphere_area(d) * cand.radius**d * val
        assert abs(mass - 1.0) < 1e-8, (d, b)


def test_out_of_scope_parameters_raise_regime_errors():
    bad = KernelParams(3, 3.0, 0.1)
    for fn in (radius, energy, eta, candidate_for):
        with pytest.raises(RegimeError):
            fn(bad)
