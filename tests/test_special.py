"""Tests for the gamma family and the hypergeometric evaluators.

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

from aggremin import (
    DomainError,
    Hyp2F1Input,
    NonConvergence,
    PoleError,
    digamma,
    gamma_fn,
    hyp2f1,
)
from aggremin.special import _hyp2f1

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
    with pytest.raises(DomainError):
        Hyp2F1Input(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        Hyp2F1Input(1.0, 1.0, 2.0, -0.1)
    with pytest.raises(DomainError):
        Hyp2F1Input(1.0, 1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        Hyp2F1Input(2.0, 2.0, 3.0, 1.0)
    inp = Hyp2F1Input(0.5, -1.3, 2.0, 0.25)
    assert inp.z == 0.25


def test_array_evaluator_equals_scalar_calls():
    """One array call gives, bit for bit, what hyp2f1 gives node by node,
    the Gauss value at z = 1 included."""
    z = np.array([0.0, 1e-300, 0.2, 0.75, 0.9, 1.0 - 1e-12, 1.0])
    for a, b, c in ((-1.25, -0.75, 1.5), (0.3, 1.7, 2.9), (-2.0, 0.4, 2.5)):
        want = [hyp2f1(Hyp2F1Input(a, b, c, float(x))) for x in z]
        assert _hyp2f1(a, b, c, z).tolist() == want, (a, b, c)


def test_array_evaluator_gate_is_the_scalar_gate():
    """The array call names its first bad node with the scalar text, and
    the z = 1 gate on c - a - b still fires through hyp2f1."""
    for a, b, c, bad in ((1.0, 1.0, -2.0, 0.5), (1.0, 1.0, 2.0, -0.1), (1.0, 1.0, 2.0, 1.5),
                         (1.0, 1.0, 2.0, math.nan), (2.0, 2.0, 3.0, 1.0)):
        with pytest.raises(DomainError) as scalar:
            hyp2f1(Hyp2F1Input(a, b, c, bad))
        with pytest.raises(DomainError) as array:
            _hyp2f1(a, b, c, np.array([0.25, bad, 0.5 if bad == 1.0 else 7.0]))
        assert str(array.value) == str(scalar.value)
    with pytest.raises(DomainError, match="c-a-b > 0"):
        hyp2f1(Hyp2F1Input(2.0, 2.0, 3.0, 1.0))
    with pytest.raises(NonConvergence) as array:
        _hyp2f1(1.0, 40.0, 11.0, np.array([0.5, 1.0 - 1e-16]))
    assert "0.9999999999999999" in str(array.value)


def test_hyp2f1_spot_values():
    """Leading term, the log closed form, and a degree-1 polynomial."""
    assert hyp2f1(Hyp2F1Input(2.2, -0.7, 1.3, 0.0)) == 1.0
    got = hyp2f1(Hyp2F1Input(1.0, 1.0, 2.0, 0.5))
    assert _rel(got, 2.0 * math.log(2.0)) < 1e-13
    got = hyp2f1(Hyp2F1Input(3.0, -1.0, 5.0, 0.4))
    assert _rel(got, 0.76) < 1e-14


def test_hyp2f1_arcsin_identity():
    """z F(1/2, 1/2; 3/2; z^2) equals arcsin(z) on (0, 1)."""
    for z in (0.1, 0.4, 0.7, 0.9):
        got = z * hyp2f1(Hyp2F1Input(0.5, 0.5, 1.5, z * z))
        assert _rel(got, math.asin(z)) < 1e-12, z


def test_hyp2f1_matches_mpmath_direct_path():
    cases = [
        (0.3, 1.7, 2.9, 0.5),
        (-2.3, 4.1, 1.5, 0.7),
        (5.5, -6.5, 3.2, 0.3),
        (1.25, 0.75, 0.5, 0.6),
    ]
    for a, b, c, z in cases:
        want = float(mpmath.hyp2f1(a, b, c, z))
        assert _rel(hyp2f1(Hyp2F1Input(a, b, c, z)), want) < 1e-11, (a, b, c, z)


def test_hyp2f1_matches_mpmath_connection_path():
    """Arguments past 0.75, where the series converges slowly and
    evaluators switch to a z -> 1-z connection formula."""
    cases = [
        (1.1, 0.6, 3.45, 0.85),
        (-1.7, 2.2, 2.83, 0.97),
        (0.4, 0.9, 2.6, 0.999),
    ]
    for a, b, c, z in cases:
        want = float(mpmath.hyp2f1(a, b, c, z))
        assert _rel(hyp2f1(Hyp2F1Input(a, b, c, z)), want) < 1e-11, (a, b, c, z)


def test_hyp2f1_integer_gap_fallback():
    """Integer and near-integer c-a-b, where the two terms of the z -> 1-z
    connection formula cancel catastrophically.

    The near-integer case keeps its original 1e-7 bound.
    """
    want = float(mpmath.hyp2f1(0.5, 1.5, 3.0, 0.9))
    assert _rel(hyp2f1(Hyp2F1Input(0.5, 1.5, 3.0, 0.9)), want) < 1e-10
    c = 3.0 + 3e-9
    want = float(mpmath.hyp2f1(1.0, 1.0, c, 0.9))
    assert _rel(hyp2f1(Hyp2F1Input(1.0, 1.0, c, 0.9)), want) < 1e-7


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
        assert _rel(hyp2f1(Hyp2F1Input(a, b, c, z)), want) < 1e-11, (a, b, c, z)


def test_hyp2f1_overflow_raises_nonconvergence():
    """c - a - b = -30 next to z = 1: the value exceeds the float range."""
    with pytest.raises(NonConvergence):
        hyp2f1(Hyp2F1Input(1.0, 40.0, 11.0, 1.0 - 1e-16))


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
        got = hyp2f1(Hyp2F1Input(a, -float(m), c, z))
        # Relative to the cancellation-free magnitude of the polynomial,
        # since both routes round at that scale.
        assert abs(got - horner) < 1e-14 * max(scale, 1e-300), m


def test_hyp2f1_symmetry_in_upper_parameters():
    for a, b, c, z in ((1.3, -2.6, 4.0, 0.55), (0.2, 5.8, 2.1, 0.88)):
        assert hyp2f1(Hyp2F1Input(a, b, c, z)) == pytest.approx(
            hyp2f1(Hyp2F1Input(b, a, c, z)), rel=1e-13
        )


def _at_one(a: float, b: float, c: float) -> float:
    return hyp2f1(Hyp2F1Input(a, b, c, 1.0))


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
        limit = hyp2f1(Hyp2F1Input(a, b, c, 1.0 - 1e-8))
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
    near = hyp2f1(Hyp2F1Input(a, b, c, 1.0 - 1e-7))
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
    assert hyp2f1(Hyp2F1Input(a, b, c, z)) >= -1e-10


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
    vals = np.array([hyp2f1(Hyp2F1Input(a, b, c, float(z))) for z in zs])
    second = np.diff(vals, n=2)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(vals))))
    if a * (a + 1.0) * b * (b + 1.0) >= 0.0:
        assert float(np.min(second)) >= -tol
    else:
        assert float(np.max(second)) <= tol
