"""Tests for the gamma family and the hypergeometric evaluator.

mpmath serves as the arbitrary-precision oracle throughout; closed-form
anchor values are used where a textbook identity pins the answer down
exactly.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggremin import DomainError, NonConvergence, PoleError, digamma, gamma_fn
from aggremin.special import _horner, _hyp2f1, _series

mpmath.mp.dps = 40


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1e-300, abs(want))


def test_gamma_known_values():
    """Half-integer and integer arguments have textbook values."""
    assert _rel(gamma_fn(0.5), math.sqrt(math.pi)) < 1e-14
    assert _rel(gamma_fn(1.5), 0.5 * math.sqrt(math.pi)) < 1e-14
    assert _rel(gamma_fn(5.0), 24.0) < 1e-14
    assert _rel(gamma_fn(-0.5), -2.0 * math.sqrt(math.pi)) < 1e-13


def test_gamma_matches_mpmath_on_range():
    xs = np.concatenate(
        [
            np.linspace(0.05, 50.0, 173),
            np.linspace(-49.7, -0.08, 121),
        ]
    )
    for x in xs:
        if x < 0 and abs(x - round(x)) < 1e-3:
            continue
        want = float(mpmath.gamma(x))
        assert _rel(gamma_fn(float(x)), want) < 1e-13, x


def test_gamma_pole_rejection():
    for x in (0.0, -1.0, -3.0, -7.0):
        with pytest.raises(PoleError):
            gamma_fn(x)


def test_gamma_matches_mpmath_to_a_few_ulps():
    """math.gamma's worst relative error on (-20.5, 60) is below 2e-15."""
    for x in np.linspace(-20.5, 60.0, 1611):
        if x <= 0 and abs(x - round(x)) < 1e-3:
            continue
        assert _rel(gamma_fn(float(x)), float(mpmath.gamma(x))) < 2e-15, x


def test_gamma_overflow_is_infinite():
    """Beyond float range the value is inf, not an OverflowError; at -inf
    it is nan, not a ValueError."""
    for x in (172.0, 400.5):
        assert gamma_fn(x) == math.inf
    assert math.isnan(gamma_fn(-math.inf))


def test_hyp2f1_ends_are_exact():
    """z = 0 gives 1.0; at z = 1, c - a = -2 is a zero of 1/Gamma."""
    value = _hyp2f1(3.0, -2.5, 1.0, [0.0, 1.0])
    assert value.tolist() == [1.0, 0.0]


def test_gauss_value_with_underflowing_gamma_is_nonconvergence():
    """Gamma(c - a) = Gamma(-200.5) underflows to -0.0, so its reciprocal
    is infinite; the value is not finite, and no ZeroDivisionError leaks."""
    with pytest.raises(NonConvergence):
        _hyp2f1(300.5, -500.0, 100.0, [1.0])


@pytest.mark.parametrize("d, g", [(2, 3.0), (3, 1.3), (5, -0.9)])
def test_gauss_value_on_the_sphere_profile(d, g):
    """F(-g/2, (2-g-d)/2; d/2; 1) at exponents of the acceptance sphere
    triples, against mpmath."""
    a, b, c = -g / 2.0, (2.0 - g - d) / 2.0, d / 2.0
    assert _rel(float(_hyp2f1(a, b, c, 1.0)), float(mpmath.hyp2f1(a, b, c, 1))) < 1e-14


def test_gauss_value_from_lgamma_ratios_on_the_sphere_profile():
    """d = 2..300: within 5e-15 relative of mpmath at the same float
    parameters, and finite also from d = 129 on, where the product of
    the four Gamma values overflows."""
    for d in range(2, 301):
        for g in (-0.5, 0.3, 1.5, 1.9, 3.3, 3.9):
            a, b, c = -g / 2.0, (2.0 - g - d) / 2.0, d / 2.0
            got = float(_hyp2f1(a, b, c, 1.0))
            assert math.isfinite(got), (d, g)
            assert _rel(got, float(mpmath.hyp2f1(a, b, c, 1))) <= 5e-15, (d, g)


# Nodes in (0, 1) on either side of the connection route's z = 0.9.
_TERMINATING_Z = (1e-300, 0.1, 0.3, 0.5, 0.7, 0.9, float(np.nextafter(0.9, 1.0)), 0.95,
                  0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)


def test_terminating_route_on_both_profiles():
    """Every g that makes a = -g/2 or b = (2-g-d)/2 a non-positive integer,
    for the sphere (c = d/2) and the ball (c = 2 - g/2), d = 2..8: the
    polynomial takes every node, within 1e-14 relative of mpmath."""
    z = np.array(_TERMINATING_Z)
    cases = 0
    for d in range(2, 9):
        for k in range(d + 3):
            for g in (2.0 * k, 2.0 + 2.0 * k - d):
                a, b = -g / 2.0, (2.0 - g - d) / 2.0
                for c, inside in ((d / 2.0, 2.0 - d < g <= 4.0), (2.0 - g / 2.0, -d < g < 4.0 - d)):
                    if not inside:
                        continue
                    cases += 1
                    assert np.isfinite(_series(a, b, c, z)).all(), (a, b, c)
                    for node, value in zip(_TERMINATING_Z, _hyp2f1(a, b, c, z)):
                        want = float(mpmath.hyp2f1(a, b, c, node))
                        assert _rel(float(value), want) <= 1e-14, (a, b, c, node)
    assert cases == 52


def test_terminating_route_declines_cancelling_sums():
    """Where the polynomial's terms cancel, (300.5, -500; 100) by 10^187
    at z = 0.3, the route declines every node and the value is no worse
    than scipy's ufunc alone."""
    from scipy.special import hyp2f1 as ufunc

    z = np.array([0.3, 0.7, 0.95, 1.0 - 1e-6])
    for a, b, c in ((300.5, -500.0, 100.0), (-20.0, 30.5, 5.5)):
        assert np.isnan(_series(a, b, c, z)).all(), (a, b, c)
        for node, value in zip(z, _hyp2f1(a, b, c, z)):
            want = float(mpmath.hyp2f1(a, b, c, node))
            assert _rel(float(value), want) <= _rel(float(ufunc(a, b, c, node)), want), (a, b, node)


def test_digamma_values_and_oracle():
    """digamma(1) = -euler_gamma and psi(3/2) = 2 - euler_gamma - 2 ln 2."""
    assert _rel(digamma(1.0), -float(mpmath.euler)) < 1e-13
    want = 2.0 - float(mpmath.euler) - 2.0 * math.log(2.0)
    assert _rel(digamma(1.5), want) < 1e-12
    for x in np.linspace(0.05, 40.0, 97):
        assert _rel(digamma(float(x)), float(mpmath.digamma(x))) < 1e-12
    with pytest.raises(PoleError):
        digamma(-2.0)


def test_digamma_is_exact_at_integers_and_half_integers():
    """The finite sums at x = 0.5, 1, ..., 200.5, within 1e-14 relative."""
    for x in np.arange(1, 402) / 2.0:
        want = mpmath.digamma(mpmath.mpf(x))
        assert abs((digamma(float(x)) - want) / want) <= 1e-14, x


def test_hyp2f1_input_validation():
    """Each refusal of the gate, for one z and for an array of z."""
    for a, b, c, z in ((1.0, 1.0, -2.0, 0.5), (1.0, 1.0, 2.0, -0.1), (1.0, 1.0, 2.0, 1.5),
                       (2.0, 2.0, 3.0, 1.0), (math.nan, 1.0, 2.0, 0.5),
                       (1.0, -math.inf, 2.0, 0.5), (1.0, 1.0, math.inf, 0.5)):
        with pytest.raises(DomainError):
            _hyp2f1(a, b, c, z)
        with pytest.raises(DomainError):
            _hyp2f1(a, b, c, np.array([z]))
    assert _hyp2f1(0.5, -1.3, 2.0, 0.25).shape == ()


def test_array_evaluator_equals_scalar_calls():
    """One array call gives, bit for bit, what _hyp2f1 gives node by node,
    the Gauss value at z = 1 included."""
    z = np.array([0.0, 1e-300, 0.2, 0.75, 0.9, 1.0 - 1e-12, 1.0])
    for a, b, c in ((-1.25, -0.75, 1.5), (0.3, 1.7, 2.9), (-2.0, 0.4, 2.5)):
        want = [float(_hyp2f1(a, b, c, x)) for x in z]
        assert _hyp2f1(a, b, c, z).tolist() == want, (a, b, c)


def _plain_horner(coefficients: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner's rule node by node, one coefficient column a step: the
    rule that ``_horner`` sums in two levels."""
    sums = np.zeros((len(coefficients), z.size))
    for column in coefficients.T[::-1]:
        sums = sums * z + column[:, None]
    return sums


def test_two_level_horner_is_plain_horner_to_rounding():
    """Bit for bit up to 8 terms, one block; from 9 terms on within
    8 eps of the sum of the terms' magnitudes, on random rows at fixed
    and random nodes in [0, 1].  No nodes give an empty array."""
    rng = np.random.default_rng(36)
    z = np.concatenate([[0.0, 1e-300, 0.1, 0.5, 0.9, 1.0], rng.random(40)])
    for k in range(1, 9):
        coefficients = rng.standard_normal((3, k))
        assert np.array_equal(_horner(coefficients, z), _plain_horner(coefficients, z)), k
    eps = np.finfo(float).eps
    for k in (9, 24, 64, 300):
        coefficients = rng.standard_normal((3, k))
        error = np.abs(_horner(coefficients, z) - _plain_horner(coefficients, z))
        assert np.all(error <= 8.0 * eps * _plain_horner(np.abs(coefficients), z)), k
    for k in (1, 8, 9, 300):
        assert _horner(np.ones((2, k)), np.empty(0)).shape == (2, 0)


def test_array_evaluator_gate_is_the_scalar_gate():
    """An array of z names its first bad node with the text that the bad
    node alone gives, refusals of the z = 1 gate on c - a - b and
    overflows included."""
    for a, b, c, bad in ((1.0, 1.0, -2.0, 0.5), (1.0, 1.0, 2.0, -0.1), (1.0, 1.0, 2.0, 1.5),
                         (1.0, 1.0, 2.0, math.nan), (2.0, 2.0, 3.0, 1.0)):
        with pytest.raises(DomainError) as scalar:
            _hyp2f1(a, b, c, bad)
        with pytest.raises(DomainError) as array:
            _hyp2f1(a, b, c, np.array([0.25, bad, 0.5 if bad == 1.0 else 7.0]))
        assert str(array.value) == str(scalar.value)
    for z in (1.0, np.array([0.5, 1.0])):
        with pytest.raises(DomainError, match="c-a-b > 0"):
            _hyp2f1(2.0, 2.0, 3.0, z)
    with pytest.raises(NonConvergence) as scalar:
        _hyp2f1(1.0, 40.0, 11.0, 1.0 - 1e-16)
    with pytest.raises(NonConvergence) as array:
        _hyp2f1(1.0, 40.0, 11.0, np.array([0.5, 1.0 - 1e-16]))
    assert "0.9999999999999999" in str(array.value)
    assert str(array.value) == str(scalar.value)


def test_hyp2f1_spot_values():
    """Leading term, the log closed form, and a degree-1 polynomial."""
    assert float(_hyp2f1(2.2, -0.7, 1.3, 0.0)) == 1.0
    got = float(_hyp2f1(1.0, 1.0, 2.0, 0.5))
    assert _rel(got, 2.0 * math.log(2.0)) < 1e-13
    got = float(_hyp2f1(3.0, -1.0, 5.0, 0.4))
    assert _rel(got, 0.76) < 1e-14


def test_hyp2f1_arcsin_identity():
    """z F(1/2, 1/2; 3/2; z^2) equals arcsin(z) on (0, 1)."""
    for z in (0.1, 0.4, 0.7, 0.9):
        got = z * float(_hyp2f1(0.5, 0.5, 1.5, z * z))
        assert _rel(got, math.asin(z)) < 1e-12, z


def test_hyp2f1_matches_mpmath_at_moderate_z():
    cases = [
        (0.3, 1.7, 2.9, 0.5),
        (-2.3, 4.1, 1.5, 0.7),
        (5.5, -6.5, 3.2, 0.3),
        (1.25, 0.75, 0.5, 0.6),
    ]
    for a, b, c, z in cases:
        want = float(mpmath.hyp2f1(a, b, c, z))
        assert _rel(float(_hyp2f1(a, b, c, z)), want) < 1e-11, (a, b, c, z)


def test_hyp2f1_matches_mpmath_near_the_branch_point():
    """Arguments past 0.75, where the Gauss series converges slowly."""
    cases = [
        (1.1, 0.6, 3.45, 0.85),
        (-1.7, 2.2, 2.83, 0.97),
        (0.4, 0.9, 2.6, 0.999),
    ]
    for a, b, c, z in cases:
        want = float(mpmath.hyp2f1(a, b, c, z))
        assert _rel(float(_hyp2f1(a, b, c, z)), want) < 1e-11, (a, b, c, z)


def test_hyp2f1_at_an_integer_and_a_near_integer_gap():
    """Integer and near-integer c-a-b, where the two terms of the z -> 1-z
    connection formula would cancel catastrophically; the near-integer
    case is held to 1e-7."""
    want = float(mpmath.hyp2f1(0.5, 1.5, 3.0, 0.9))
    assert _rel(float(_hyp2f1(0.5, 1.5, 3.0, 0.9)), want) < 1e-10
    c = 3.0 + 3e-9
    want = float(mpmath.hyp2f1(1.0, 1.0, c, 0.9))
    assert _rel(float(_hyp2f1(1.0, 1.0, c, 0.9)), want) < 1e-7


def test_hyp2f1_matches_mpmath_on_the_potential_manifold():
    """Seeded draws from the parameters the radial potentials use.

    a = -gamma/2 and b = (2-gamma-d)/2 with c = d/2 (sphere profile,
    gamma in (2-d, 4]) or c = 2-gamma/2 (ball profile, gamma in
    (-d, 4-d)), d = 1..5; half the arguments are uniform in [0, 1),
    half lie within 1e-1 .. 1e-12 of the branch point.
    """
    rng = np.random.default_rng(20231)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            g = float(rng.uniform(2.0 - d, 4.0))
            c = d / 2.0
        else:
            g = float(rng.uniform(-d, 4.0 - d))
            c = 2.0 - g / 2.0
        a, b = -g / 2.0, (2.0 - g - d) / 2.0
        if rng.random() < 0.5:
            z = float(rng.uniform(0.0, 1.0))
        else:
            z = 1.0 - 10.0 ** -float(rng.uniform(1.0, 12.0))
        want = float(mpmath.hyp2f1(a, b, c, z))
        assert _rel(float(_hyp2f1(a, b, c, z)), want) < 1e-11, (a, b, c, z)


# Both routes of _hyp2f1 on either side of z = 0.9, out to the branch point.
_BRANCH_Z = (0.9, float(np.nextafter(0.9, 1.0)), 0.95, 0.99, 1.0 - 1e-6, 1.0 - 1e-12)


def _profile_parameters():
    """(a, b, c) of the sphere profile (c = d/2, m = c - a - b = d + g - 1)
    and the ball profile (c = 2 - g/2, m = (2 + g + d)/2), d = 2..6, at
    exponents g that put m at an integer or 1e-3 or 1e-2 to either side
    of one, and at the g that make a = -g/2 or b = (2-g-d)/2 a
    non-positive integer."""
    out = []
    for d in range(2, 7):
        sphere, ball = [], []
        for n in range(1, d + 4):
            for off in (0.0, 1e-3, -1e-3, 1e-2, -1e-2):
                sphere.append(n + off + 1.0 - d)
                ball.append(2.0 * (n + off) - 2.0 - d)
        for k in range(d + 2):
            sphere += [2.0 * k, 2.0 + 2.0 * k - d]
            ball += [-2.0 * k, 2.0 - 2.0 * k - d]
        out += [(-g / 2.0, (2.0 - g - d) / 2.0, d / 2.0) for g in sphere if 2.0 - d < g <= 4.0]
        out += [(-g / 2.0, (2.0 - g - d) / 2.0, 2.0 - g / 2.0) for g in ball if -d < g < 4.0 - d]
    return out


def test_hyp2f1_matches_mpmath_near_the_branch_point_on_both_profiles():
    """Within 1e-14 relative of 40-digit mpmath on both routes: the ufunc
    at z = 0.9, at integer c - a - b and at a terminating series, and the
    z -> 1 - z connection formula above 0.9, also 1e-3 from an integer
    c - a - b, where its two terms, added as written, would cancel."""
    cases = _profile_parameters()
    assert len(cases) > 200
    for a, b, c in cases:
        got = _hyp2f1(a, b, c, np.array(_BRANCH_Z))
        for z, value in zip(_BRANCH_Z, got):
            want = float(mpmath.hyp2f1(a, b, c, z))
            assert _rel(float(value), want) <= 1e-14, (a, b, c, z)


@pytest.mark.parametrize("d", [150, 200, 300])
def test_sphere_profile_at_large_d_stays_finite(d):
    """At large d, c - a - b = d + g - 1 is far above 10, where the
    Gamma factors of the connection formula overflow: every node above
    z = 0.9 takes the Gauss series instead of scipy's ufunc, stays within
    1e-13 of the ufunc's value at these nodes, and none raises
    NonConvergence."""
    from scipy.special import hyp2f1 as ufunc

    for g in (1.5, 3.3):
        a, b, c = -g / 2.0, (2.0 - g - d) / 2.0, d / 2.0
        for z in (0.95, 0.999, 1.0 - 1e-9):
            got = float(_hyp2f1(a, b, c, z))
            assert math.isfinite(got)
            assert _rel(got, float(ufunc(a, b, c, z))) <= 1e-13, (d, g, z)


# Nodes above the 0.9 at which the Gauss series takes over for c - a - b >= 10.
_SERIES_Z = (float(np.nextafter(0.9, 1.0)), 0.95, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9,
             1.0 - 1e-12)


@pytest.mark.parametrize("d", [130, 200, 400, 1000])
def test_series_route_at_large_d_matches_mpmath(d):
    """The sphere profile above z = 0.9 in d = 130..1000, where scipy's
    ufunc reads inf (d = 400, g = 1.9, z just above 0.9): within 1e-15
    relative of 50-digit mpmath up to z = 1 - 1e-12, also where a + k
    sits next to 0 (g = 4 - 1e-15 and 2 + 1e-15), a dip in the terms
    that must not end the sum."""
    z = np.array(_SERIES_Z)
    for g in (1.9, 3.0, 0.5 + 1e-14, 4.0 - 1e-15, 4.0 - 1e-12, 2.0 + 1e-15, 2.0 - 1e-13):
        a, b, c = -g / 2.0, (2.0 - g - d) / 2.0, d / 2.0
        got = _hyp2f1(a, b, c, z)
        with mpmath.workdps(50):
            for node, value in zip(_SERIES_Z, got):
                want = mpmath.hyp2f1(a, b, c, node)
                assert abs(float((value - want) / want)) <= 1e-15, (d, g, node)


def test_series_route_declines_past_its_budget():
    """A series that has not settled within _SERIES_TERMS terms at the
    largest node gives nan at every node."""
    assert np.isnan(_series(0.5, 0.5, 3.5, np.array([0.5, 1.0 - 1e-15]))).all()


@pytest.mark.parametrize("d, gamma", [(11, -10.7), (12, -11.5), (12, -11.99)])
def test_connection_route_keeps_24_terms_for_the_ball_profile_in_d_11_and_12(d, gamma):
    """The ball's outer profile, F(-gamma/2, (2-gamma-d)/2; 2-gamma/2; z),
    next to gamma = -d in d = 11 and 12 keeps 24 terms of the connection
    series, the most that any sphere or ball profile in d = 1..12 keeps.
    Above z = 0.9 it stays within the module's 4.6e-15 of 40-digit
    mpmath there, with w = 1 - z as the caller's gap."""
    a, b, c = -gamma / 2.0, (2.0 - gamma - d) / 2.0, 2.0 - gamma / 2.0
    w = np.array([0.099, 0.05, 0.02, 1e-2, 1e-3, 1e-5, 1e-8, 1e-12])
    got = _hyp2f1(a, b, c, 1.0 - w, w)
    with mpmath.workdps(40):
        for value, gap in zip(got, w):
            want = mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(gap))
            assert abs(value - want) <= 4.6e-15 * abs(want), gap


def test_hyp2f1_overflow_raises_nonconvergence():
    """c - a - b = -30 next to z = 1: the value exceeds the float range."""
    with pytest.raises(NonConvergence):
        float(_hyp2f1(1.0, 40.0, 11.0, 1.0 - 1e-16))


def test_hyp2f1_terminating_equals_horner():
    """Non-positive integer b reduces to an exact degree-m polynomial."""
    rng = np.random.default_rng(5)
    for m in range(7):
        a = float(rng.uniform(-4.0, 4.0))
        c = float(rng.uniform(0.5, 5.0))
        z = float(rng.uniform(0.0, 0.95))
        coeffs = [
            float(mpmath.rf(a, n) * mpmath.rf(-m, n) / (mpmath.rf(c, n) * mpmath.factorial(n)))
            for n in range(m + 1)
        ]
        horner = 0.0
        scale = 0.0
        for cf in reversed(coeffs):
            horner = horner * z + cf
            scale = scale * z + abs(cf)
        got = float(_hyp2f1(a, -float(m), c, z))
        # Relative to the cancellation-free magnitude of the polynomial,
        # since both routes round at that scale.
        assert abs(got - horner) < 1e-14 * max(scale, 1e-300), m


def test_hyp2f1_symmetry_in_upper_parameters():
    for a, b, c, z in ((1.3, -2.6, 4.0, 0.55), (0.2, 5.8, 2.1, 0.88)):
        assert float(_hyp2f1(a, b, c, z)) == pytest.approx(
            float(_hyp2f1(b, a, c, z)), rel=1e-13
        )


def _at_one(a: float, b: float, c: float) -> float:
    return float(_hyp2f1(a, b, c, 1.0))


def test_hyp2f1_at_one_values():
    assert _at_one(0.0, 2.4, 3.1) == pytest.approx(1.0, rel=1e-14)
    assert _at_one(-1.0, 1.2, 4.0) == pytest.approx(1.0 - 1.2 / 4.0, rel=1e-13)
    assert _at_one(-0.5, -0.5, 1.0) == pytest.approx(4.0 / math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        _at_one(2.0, 2.0, 3.0)
    with pytest.raises(DomainError):
        _at_one(0.5, 0.5, -1.0)


def test_hyp2f1_at_one_is_series_limit():
    for a, b, c in ((-0.5, -0.5, 1.0), (0.7, 1.1, 3.9), (-2.5, 1.3, 2.2)):
        limit = float(_hyp2f1(a, b, c, 1.0 - 1e-8))
        assert _rel(_at_one(a, b, c), limit) < 1e-6, (a, b, c)


@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    gap=st.floats(1.5, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_hyp2f1_gauss_boundary_property(a, b, gap):
    """Near z=1 the series approaches the Gauss boundary value.

    The approach rate is (1 - z)**(c - a - b), so agreement at the 1e-5
    level for z = 1 - 1e-7 needs c - a - b comfortably above 1; smaller
    gaps are exercised by the exact at-one evaluations instead.
    """
    assume(abs(gap - round(gap)) > 0.05)
    c = a + b + gap
    for v in (c, c - a, c - b):
        assume(not (v < 0.5 and abs(v - round(v)) < 0.05))
    at1 = _at_one(a, b, c)
    assume(abs(at1) > 1e-6)
    near = float(_hyp2f1(a, b, c, 1.0 - 1e-7))
    assert abs(near - at1) <= 1e-5 * abs(at1)


@given(
    a=st.floats(-8.0, 5.0),
    b=st.floats(-8.0, 5.0),
    c_off=st.floats(0.05, 5.0),
    z=st.floats(0.0, 0.99),
)
@settings(max_examples=300, deadline=None)
def test_hyp2f1_positivity_property(a, b, c_off, z):
    """F(a,b;c;z) stays nonnegative whenever c > 0 and c >= max(a, b)."""
    c = max(a, b, 0.0) + c_off
    assert float(_hyp2f1(a, b, c, z)) >= -1e-10


@given(
    a=st.floats(-6.0, 4.0),
    b=st.floats(-6.0, 4.0),
    c_off=st.floats(0.05, 4.0),
)
@settings(max_examples=150, deadline=None)
def test_hyp2f1_convexity_sign_property(a, b, c_off):
    """Second differences in z carry the sign of a(a+1)b(b+1)."""
    c = max(a, b, 0.0) + c_off
    zs = np.linspace(0.0, 0.95, 12)
    vals = np.array([float(_hyp2f1(a, b, c, z)) for z in zs])
    second = np.diff(vals, n=2)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(vals))))
    if a * (a + 1.0) * b * (b + 1.0) >= 0.0:
        assert float(np.min(second)) >= -tol
    else:
        assert float(np.max(second)) <= tol
