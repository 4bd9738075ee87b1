"""Exact minimizers: regime classification, radii, energies, densities.

Anchors are independently derived rationals and surds; the remaining
checks replay the defining properties (criticality of the radius, unit
mass, potential levels) through quadrature or finite differences.
"""

import math
from dataclasses import asdict

import mpmath
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
    RegimeTag,
    ball_density,
    ball_potential,
    ball_potential_quad,
    beta_star,
    candidate_for,
    classify,
    energy,
    eta,
    psi_gamma,
    psi_values_at_one,
    quadratic_ball_moment,
    radius,
    unit_sphere_area,
    verify_euler_lagrange,
)
from aggremin import closed_form, verify
from aggremin.closed_form import (
    _energy,
    _energy_ball,
    _energy_sphere,
    _radius_ball,
    _radius_sphere,
    _sphere_candidate,
)


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
    with pytest.raises(DomainError, match="finite alpha"):
        beta_star(2, math.inf)


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


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda: KernelParams(2.5, 2.0, 1.0), "an integer >= 1, got 2.5"),
        (lambda: KernelParams(0, 2.0, -0.5), "an integer >= 1, got 0"),
        (lambda: KernelParams(3, 2.0, 1.0, beta_is_log=True), "beta_is_log requires beta == 0"),
        (lambda: KernelParams(3, 0.0, -1.0), "set alpha_is_log=True"),
        (lambda: KernelParams(3, 1.5, 1.5), "need beta < alpha"),
        (lambda: KernelParams(2, math.inf, 1.0), "alpha must be finite, got inf"),
        (lambda: KernelParams(2, math.nan, 1.0), "alpha must be finite, got nan"),
        (lambda: CandidateMinimizer("Disk", 1.0), "unknown candidate kind 'Disk'"),
        (lambda: RegimeTag("Sphere"), "unknown regime tag 'Sphere'"),
    ],
)
def test_records_refuse_invalid_fields(make, fragment):
    with pytest.raises(DomainError, match=fragment):
        make()


@pytest.mark.parametrize(
    "call, minimum",
    [
        (lambda: KernelParams(None, 2.0, 1.0), 1),
        (lambda: KernelParams("3", 2.0, 1.0), 1),
        (lambda: beta_star("3", 3.0), 2),
        (lambda: psi_gamma(None, 1.0, 0.5), 2),
        (lambda: quadratic_ball_moment(None, 0.5), 1),
        (lambda: ball_potential_quad("3", 0.5, 0.3), 1),
    ],
    ids=["KernelParams-None", "KernelParams-str", "beta_star-str", "psi_gamma-None",
         "quadratic_ball_moment-None", "ball_potential_quad-str"],
)
def test_a_dimension_that_is_not_a_number_is_a_domain_error(call, minimum):
    """None or a string as d is refused like 2.5, where float() or the
    comparison with the minimum raised a bare TypeError or ValueError."""
    with pytest.raises(DomainError, match=f"^d must be an integer >= {minimum}, got "):
        call()


@pytest.mark.parametrize("point", [(3, 3.0, 1.5), (3, 2.0, -1.0)])
def test_eta_refuses_an_energy_one_percent_off(point, monkeypatch):
    """The two eta routes catch a closed-form energy 1% too high, at a
    sphere point and at a ball point, in ``eta`` and in the audit, which
    holds 2E to its own grid."""
    monkeypatch.setattr(closed_form, "_energy_sphere", lambda *a: 1.01 * _energy_sphere(*a))
    monkeypatch.setattr(closed_form, "_energy_ball", lambda *a: 1.01 * _energy_ball(*a))
    params = KernelParams(*point)
    with pytest.raises(IllConditioned, match="eta routes disagree"):
        eta(params)
    with pytest.raises(IllConditioned, match="eta routes disagree"):
        verify_euler_lagrange(params)


@pytest.mark.parametrize(
    "point, force",
    [((3, 3.0, 1.5), False), ((3, 2.0, -1.0), False), ((3, 3.0, 0.5), True)],
    ids=["sphere", "ball", "forced"],
)
def test_eta_refuses_an_energy_1e_9_off(point, force, monkeypatch):
    """The two eta routes hold 2E to the probe within 1e-12 max(1, |2E|):
    |2E| is 0.27 at the sphere point, 1.8 at the ball point and 1.53 for
    the sphere forced onto (3, 3, 0.5), OutOfScope below beta_star =
    2/3, which the audit holds to its own energy like any candidate.  So
    an energy 1e-9 off is hundreds of times outside the bound, in
    ``eta`` and in the audit.  A bound loosened to 1e-6 would let it
    through."""
    params = KernelParams(*point)
    cand = _sphere_candidate(params) if force else candidate_for(params)
    assert abs(2.0 * _energy(params, cand)) >= 0.1
    monkeypatch.setattr(closed_form, "_energy", lambda *a: (1.0 + 1e-9) * _energy(*a))
    if not force:
        with pytest.raises(IllConditioned, match="eta routes disagree"):
            eta(params)
    with pytest.raises(IllConditioned, match="eta routes disagree"):
        verify_euler_lagrange(params, force_sphere=force)


@pytest.mark.parametrize("point", [(3, 3.0, 1.5), (3, 2.0, -1.0)], ids=["sphere", "ball"])
@pytest.mark.parametrize(
    "fn", [radius, energy, eta, candidate_for, verify_euler_lagrange],
    ids=lambda fn: fn.__name__,
)
def test_each_answer_classifies_once(point, fn, monkeypatch):
    """``candidate_for`` is the one closed-form gate: every answer at a
    point, the unforced audit included, decides the regime once."""
    calls = _count_classify(monkeypatch)
    fn(KernelParams(*point))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "point", [(3, 3.0, 1.5), (2, 3.0, 1.49)], ids=["sphere", "off-regime"]
)
def test_a_forced_audit_classifies_at_most_once(point, monkeypatch):
    """The forced audit picks the sphere without ``candidate_for``; only
    its seam predicate asks the regime, at most once, in ``closed_form``
    or in ``verify``.  At (2, 3, 1.49), 0.01 below beta_star, the
    exterior margin is inside the tolerance, so the predicate is asked."""
    calls = _count_classify(monkeypatch)
    verify_euler_lagrange(KernelParams(*point), force_sphere=True)
    assert len(calls) <= 1


def _count_classify(monkeypatch) -> list:
    """The list that every later ``classify`` call, looked up in
    ``closed_form`` or in ``verify``, appends its point to."""
    calls = []

    def counted(params):
        calls.append(params)
        return classify(params)

    monkeypatch.setattr(closed_form, "classify", counted)
    monkeypatch.setattr(verify, "classify", counted)
    return calls


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


def _sphere_closed_forms_mp(d, alpha, beta, log):
    """R and E of the sphere in 40-digit mpmath, from the paper's Gamma
    products: (2R)^(alpha-beta) = Gamma((d+beta-1)/2)Gamma(d-1+alpha/2) /
    (Gamma((d+alpha-1)/2)Gamma(d-1+beta/2)), and E its own product (the
    log kernel's from the same ratio at beta = 0, not from R)."""
    g = mpmath.gamma
    with mpmath.workdps(40):
        d, a = mpmath.mpf(d), mpmath.mpf(alpha)
        b = mpmath.mpf(0 if log else beta)
        ratio = g((d + b - 1) / 2) * g(d - 1 + a / 2) / (g((d + a - 1) / 2) * g(d - 1 + b / 2))
        r = ratio ** (1 / (a - b)) / 2
        if log:
            e = (1 - mpmath.log(ratio)) / (2 * a) + (
                mpmath.digamma(d - 1) - mpmath.digamma((d - 1) / 2)
            ) / 4
        else:
            coef = -(2 ** (d + a - 3)) * g(d / 2) * g((d + a - 1) / 2) / (
                mpmath.sqrt(mpmath.pi) * g(d - 1 + a / 2)
            )
            e = coef * (1 / b - 1 / a) * r**a
        return float(r), float(e)


@pytest.mark.parametrize("d", [130, 200, 1000, 5000])
def test_sphere_closed_forms_match_mpmath_where_gamma_overflows(d):
    """From d = 129 the Gamma products of R and E overflow; the closed
    forms take Gamma quotients, so R and E stay within 1e-14 relative of
    40-digit mpmath at any d.  From d of about 1035 at beta_star the
    quotient (2R)^(alpha-beta) itself overflows, and R is taken from its
    logarithm."""
    failures = []
    for alpha in (2.5, 3.0, 4.0):
        for beta in (beta_star(d, alpha), 1.5, "log"):
            log = beta == "log"
            params = KernelParams(d, alpha, 0.0 if log else beta, beta_is_log=log)
            want_r, want_e = _sphere_closed_forms_mp(d, alpha, params.beta, log)
            for name, got, want in (("R", radius(params), want_r), ("E", energy(params), want_e)):
                if not abs(got - want) <= 1e-14 * abs(want):
                    failures.append((name, alpha, beta, got, want))
    assert failures == []


def _sphere_moment(d, g):
    """E(1 - t)^g to O(d^-3) for t = <u, v>, u and v uniform on the unit
    sphere in R^d: 1 + g(g-1)/(2d) + g(g-1)(g-2)(g-3)/(8d^2), from
    E t^2 = 1/d and E t^4 = 3/(d(d+2)), the odd moments 0."""
    return 1.0 + g * (g - 1.0) / (2.0 * d) + g * (g - 1.0) * (g - 2.0) * (g - 3.0) / (8.0 * d * d)


@pytest.mark.parametrize("d", [100, 1000, 10_000, 100_000])
def test_sphere_closed_forms_follow_their_large_d_expansion(d):
    """An oracle with no Gamma function.  With M(g) = E(1 - t)^g
    (``_sphere_moment``) the energy of the sphere of radius R is
    ((sqrt(2) R)^alpha M(alpha/2)/alpha - (sqrt(2) R)^beta M(beta/2)/beta)/2,
    so sqrt(2) R = (M(beta/2)/M(alpha/2))^(1/(alpha - beta)) and
    E = (1/alpha - 1/beta)/2 (sqrt(2) R)^alpha M(alpha/2), each to
    O(d^-3).  The residuals of sqrt(2) R and of E relative read
    +0.034, -0.005, 0.000, -0.029 and -0.064, +0.028, 0.000, +0.124
    times d^-3 at the four points from d = 100 to 10^4; at 10^5 rounding
    dominates, so each is held to d^-3 + 1e-14."""
    bound = d**-3.0 + 1e-14
    for alpha, beta in ((3.0, 1.9), (2.5, 1.5), (4.0, 2.0), (3.0, 0.5)):
        params = KernelParams(d, alpha, beta)
        m_alpha = _sphere_moment(d, alpha / 2.0)
        scaled = (_sphere_moment(d, beta / 2.0) / m_alpha) ** (1.0 / (alpha - beta))
        want_e = 0.5 * (1.0 / alpha - 1.0 / beta) * scaled**alpha * m_alpha
        r_residual = radius(params) * math.sqrt(2.0) - scaled
        e_residual = (energy(params) - want_e) / abs(want_e)
        assert abs(r_residual) <= bound, (alpha, beta, r_residual)
        assert abs(e_residual) <= bound, (alpha, beta, e_residual)


def _ball_closed_forms_mp(d, beta):
    """R and E of the ball in 40-digit mpmath, from the paper's Gamma
    product R^(2-beta) = Gamma((4-beta)/2)Gamma((beta+d)/2)/Gamma(1+d/2)
    and E = -d (2-beta)/(2 beta (4-beta)) R^2."""
    g = mpmath.gamma
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        r = (g((4 - b) / 2) * g((b + d) / 2) / g(1 + mpmath.mpf(d) / 2)) ** (1 / (2 - b))
        return float(r), float(-d * (2 - b) / (2 * b * (4 - b)) * r * r)


@pytest.mark.parametrize("d", [341, 500, 1000])
def test_ball_closed_forms_match_mpmath_where_gamma_overflows(d):
    """From d = 341 Gamma((4 - beta)/2) and Gamma(1 + d/2) overflow; the
    ball's R^(2-beta) is then taken through its logarithm, so R and E
    stay within 1e-14 relative of 40-digit mpmath.  The offsets put the
    Gamma step delta = (2 - beta - d)/2 at -0.75 (its reciprocal form),
    0.25, 0.75 and next to both ends of the regime."""
    failures = []
    for offset in (3.99, 3.5, 1.5, 0.5, 0.01):
        params = KernelParams(d, 2.0, offset - d)
        want_r, want_e = _ball_closed_forms_mp(d, params.beta)
        for name, got, want in (("R", radius(params), want_r), ("E", energy(params), want_e)):
            if not abs(got - want) <= 1e-14 * abs(want):
                failures.append((name, offset, got, want))
    assert failures == []


@pytest.mark.parametrize("d", [341, 343])
def test_ball_normalization_matches_mpmath_past_d_340(d):
    """From d = 341 Gamma((4 - beta)/2) overflows; C_beta is taken from
    the interior constant K, a Gamma quotient, and |S^(d-1)|, so C_beta
    and the potential inside the ball stay within 1e-14 relative of
    40-digit mpmath up to d = 343."""
    g = mpmath.gamma
    for offset in (3.99, 1.5, 0.01):
        beta = offset - d
        with mpmath.workdps(40):
            b, half = mpmath.mpf(beta), mpmath.mpf(d) / 2
            c_beta = mpmath.pi**half * g((4 - b - d) / 2) / g((4 - b) / 2)
            inner = g(2 - b / 2) * g((b + d) / 2) / g(half) * (1 + b * mpmath.mpf(0.25) / d)
            want_c, want_v = float(c_beta), float(c_beta * inner)
        got_c, got_v = quadratic_ball_moment(d, beta)[0], ball_potential(d, beta, 0.5)
        assert abs(got_c - want_c) <= 1e-14 * want_c, (offset, got_c, want_c)
        assert abs(got_v - want_v) <= 1e-14 * abs(want_v), (offset, got_v, want_v)


@pytest.mark.parametrize("d", [344, 1300])
def test_ball_normalization_past_d_343_is_a_domain_error(d):
    """R is finite there, but C_beta needs |S^(d-1)|, whose Gamma(d/2)
    overflows from d = 344: C_beta, the ball's potential and its density
    inside the support raise DomainError, never 0.0, nan or an untyped
    error."""
    beta = 1.5 - d
    params = KernelParams(d, 2.0, beta)
    assert math.isfinite(radius(params))
    for call in (
        lambda: quadratic_ball_moment(d, beta),
        lambda: ball_potential(d, beta, 0.5),
        lambda: ball_density(params, 0.5),
    ):
        with pytest.raises(DomainError, match=f"overflows in d={d}"):
            call()
    assert ball_density(params, 2.0) == 0.0


def test_candidate_refuses_an_infinite_radius():
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
    sphere = _energy_sphere(3, 2.0, 1.0, False, _radius_sphere(3, 2.0, 1.0))
    assert abs(sphere - _energy_ball(3, 1.0, False, _radius_ball(3, 1.0))) < 1e-15
    assert abs(sphere + 2.0 / 9.0) < 1e-15
    log_sphere = _energy_sphere(4, 2.0, 0.0, True, _radius_sphere(4, 2.0, 0.0))
    log_ball = _energy_ball(4, 0.0, True, _radius_ball(4, 0.0))
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
