"""Gamma-family functions and the Gauss hypergeometric function 2F1.

Everything here is real-argument and restricted to z in [0, 1], which is
all the radial potential formulas need.  ``_hyp2f1`` is the package's
one 2F1 evaluator: it takes F(a,b;c;z) at one z or over an array of z in
one call, behind one gate.  z = 0 is exactly 1.  z = 1 takes the first
route below, and a node in (0, 1) the first of the other three that
gives it a finite value; a route returns nan at a node it declines:

* z = 1 is the Gauss summation formula (DLMF 15.4.20), the Gamma
  product while its arguments are below 10 and, where c, c-a, c-b and
  c-a-b are all positive and one of them is larger, two lgamma ratios
  that stay exact to rounding and finite where the Gamma values
  overflow (``_gauss_value``, by ``_gamma_quotient``, which every
  closed form's Gamma ratio shares);
* the Gauss series, summed by ``_horner``, unless its terms cancel
  (``_series``): at a node in (0, 1) where a or b is a non-positive
  integer, as the polynomial the series is, and above z = 0.9 where
  c-a-b >= 10, where its terms fall like k^(a+b-c-1) up to z = 1;
* above z = 0.9, with c-a-b below 10 and not an integer, the z -> 1 - z
  connection formula (DLMF 15.8.4) as two short series in w = 1 - z,
  its cancelling terms paired so that c-a-b next to an integer costs
  no digits, summed by ``_horner`` (``_connection``); w is the caller's
  gap where it passes one, so that a z rounded from 1/rho costs w
  nothing; a node whose terms still cancel, as for large a and b at w
  near 0.1, stays with the ufunc;
* every other node is one call of scipy's ``hyp2f1`` ufunc at z, where
  its direct Gauss series is fast.  Above 0.9 where c-a-b >= 10 it
  gets only the nodes that ``_series`` declines: there it read inf
  just above 0.9 on the sphere profile in d = 400.  Above 0.9 with
  c-a-b below 10 the ufunc takes up to 54 us a node (one core of a
  2-core Xeon) and errs by up to 3.7e-13 relative.

On the parameters the potentials use (a = -gamma/2, b = (2-gamma-d)/2,
c in {d/2, 2-gamma/2}, d = 2..12, z up to 1 - 1e-12) the value agrees
with mpmath within 4.6e-15 relative, and the Gauss value of the sphere
profile within 2.1e-15 up to d = 300; above z = 0.9 the sphere
profile is within 1e-15 of 50-digit mpmath from d = 130 to 1000.  The
outer branch of a profile meets that bound only with w from the exact
rho - 1: 1 - fl(1/rho) put psi_gamma 2e-11 off next to the sphere.
A non-finite result raises NonConvergence.

The connection formula's coefficients depend on (a, b, c) alone and are
planned once per triple: ``_connection_plan`` keeps the last 256
triples, so that a profile evaluated again (the audit, the forced audit
and the convexity grid of one point share theirs) pays only for its
nodes.  The cached arrays are read-only.

``_horner`` is the one series summer of the two routes and of
``potentials._log_series``: Horner's rule in two levels, in blocks of 8
terms, so that a series costs few array calls, and each node's value
still depends on that node alone.

The gamma function is ``math.gamma``, and ``digamma`` is a finite sum at
the integer and half-integer arguments the closed forms use, so the
closed forms of the power-law and logarithmic kernels need no scipy.
``_gamma_quotient`` is the ratio Gamma(x + delta)Gamma(y) /
(Gamma(x)Gamma(y + delta)), at any step delta, and the package's one
evaluator of a Gamma ratio: the Gauss value, the sphere's radius and
energy, and the ball's radius and interior constant take it, finite at
any d.
``scipy.special`` is imported at the first call that needs it: the 2F1
ufunc on a node inside (0, 1), or ``digamma`` at any other argument.
``import aggremin`` loads no scipy module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NonConvergence, PoleError

__all__ = ["gamma_fn", "digamma"]


_EULER_GAMMA = 0.5772156649015329
_EULER_GAMMA_2LN2 = 1.9635100260214235  # euler_gamma + 2 ln 2, rounded once
# Largest integer or half-integer argument that digamma sums term by term;
# the closed forms stop at d of a few hundred, where gamma overflows.
_EXACT_DIGAMMA_MAX = 1000.0
# The 2F1 nodes above _CONNECTION_Z take the z -> 1 - z connection formula
# when c - a - b < _CONNECTION_M; its series in w = 1 - z get at most
# _CONNECTION_TERMS terms.  From c - a - b of about 10 on, the Gauss
# series (``_series``) is fast and accurate there, while the formula's
# Gamma factors amplify the rounding of c - a - b.
_CONNECTION_Z = 0.9
_CONNECTION_M = 10.0
_CONNECTION_TERMS = 64
# ``_connection_plan`` keeps the last _PLAN_CACHE parameter triples, more
# than a batch of about 100 points asks for.
_PLAN_CACHE = 256
# The Gauss series (``_series``) gets at most _SERIES_TERMS terms.
_SERIES_TERMS = 4096
# ``_horner`` sums its coefficients in blocks of _HORNER_BLOCK terms, in at
# most _HORNER_MAX_BLOCKS blocks.
_HORNER_BLOCK = 8
_HORNER_MAX_BLOCKS = 8
# A node whose connection terms cancel by more than this factor takes the
# ufunc instead: the error of the sum grows with the cancellation.
_CONNECTION_CANCEL = 16.0
# A Gamma quotient is the Gamma product while all of its arguments are
# below this: there the product is as accurate as the lgamma ratios that
# take over above it, in under half their time.
_GAUSS_PRODUCT_MAX = 10.0
# (B_2k / (2k (2k - 1)), 1 - 2k), k = 1..8: the Stirling series of
# ln Gamma, sum_k B_2k / (2k (2k - 1)) x^(1 - 2k).
_STIRLING = tuple(zip((1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
                       1 / 156, -3617 / 122400), range(-1, -17, -2)))


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles excluded.

    Backed by ``math.gamma`` (Lanczos plus reflection): against mpmath its
    worst relative error on (-20.5, 60) is 7.8e-16.  A value beyond float
    range (x above 171.6, or |x| below 5.6e-309) is an infinity of Gamma's
    sign, and Gamma(-inf) is nan.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)
    except ValueError:
        return math.nan


def _rgamma(x: float) -> float:
    """1/Gamma(x): exactly 0.0 at the poles x = 0, -1, -2, ..., and an
    infinity where Gamma(x) underflows to zero (x below about -178)."""
    if _is_nonpositive_integer(x):
        return 0.0
    g = gamma_fn(x)
    return 1.0 / g if g else math.copysign(math.inf, g)


def digamma(x: float) -> float:
    """Logarithmic derivative Gamma'(x)/Gamma(x).

    At a positive integer or half-integer up to 1000, the arguments the
    closed forms use, it is a finite sum, rounded once by ``math.fsum``:
    psi(n) = -euler_gamma + H_(n-1) and
    psi(n + 1/2) = -euler_gamma - 2 ln 2 + sum_(k=1..n) 2/(2k-1); against
    mpmath these read within 1.9e-15 relative on 0.5, 1, ..., 200.5.  Any
    other argument takes scipy's ``psi``.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at {x}")
    if 0.0 < x <= _EXACT_DIGAMMA_MAX and (2.0 * x).is_integer():
        n = int(x)
        if x == n:
            return math.fsum([-_EULER_GAMMA] + [1.0 / k for k in range(1, n)])
        return math.fsum([-_EULER_GAMMA_2LN2] + [2.0 / (2 * k - 1) for k in range(1, n + 1)])
    from scipy.special import psi

    return float(psi(x))


def _lgamma_split(x: float, delta: float) -> tuple[float, float]:
    """(y, rest) with ln(Gamma(x + delta)/Gamma(x)) = rest + delta ln y,
    for x > 0 and x + delta > 0, and delta >= -1/2.

    The error is a few roundings of delta ln x, not of ln Gamma(x), so the
    ratio stays exact to rounding as delta -> 0: the arguments are
    raised past 10 (x + delta past 9.5) by Gamma(y + 1) = y Gamma(y),
    then the two Stirling series are subtracted term by term through
    log1p and expm1.  y is the raised x + delta.  The large term
    delta ln y is left to the caller, so that two ratios with the same
    delta can take it as one logarithm of a quotient.
    """
    rest = 0.0
    while x < 10.0:
        rest -= math.log1p(delta / x)
        x += 1.0
    shift = math.log1p(delta / x)
    rest += (x - 0.5) * shift - delta
    for coefficient, power in _STIRLING:
        rest += coefficient * x ** power * math.expm1(power * shift)
    return x + delta, rest


def _lgamma_ratio(x: float, delta: float) -> float:
    """ln(Gamma(x + delta)/Gamma(x)) for x > 0, x + delta > 0 and
    delta >= -1/2 (``_lgamma_split``)."""
    y, rest = _lgamma_split(x, delta)
    return rest + delta * math.log(y)


def _gamma_quotient(x: float, y: float, delta: float, power: float = 1.0) -> float:
    """(Gamma(x + delta)Gamma(y) / (Gamma(x)Gamma(y + delta)))^power for
    x, y > 0 and x + delta, y + delta > 0, at any step delta: the
    package's one evaluator of a Gamma ratio.

    The Gamma product, rounded factor by factor, errs by about
    eps x psi(x) at each rounded argument: within 2.4e-15 of mpmath on
    the potentials' parameters while all four arguments are below
    _GAUSS_PRODUCT_MAX, but 3.3e-14 at the sphere profile in d = 100,
    and from d = 129 on a factor overflows.  From _GAUSS_PRODUCT_MAX on
    it is the exponential of two lgamma ratios, each a step up by delta
    (``_lgamma_split``): its error grows with delta, not with psi at the
    rounded arguments, and it stays finite where the Gamma factors
    overflow.  A step below -1/2, where ``_lgamma_split`` does not
    reach, is taken by reflection, Q(x, y, delta)^p =
    Q(x + delta, y + delta, -delta)^(-p), the same four arguments.
    ``power`` is applied to the logarithm there, so that a radius, the
    quotient to a power, stays finite where the quotient itself
    overflows (the sphere's at beta_star from d of about 1035).
    """
    if max(x, y, x + delta, y + delta) < _GAUSS_PRODUCT_MAX:
        return (gamma_fn(x + delta) * gamma_fn(y) * _rgamma(x) * _rgamma(y + delta)) ** power
    if delta < -0.5:
        return _gamma_quotient(x + delta, y + delta, -delta, -power)
    y_x, rest_x = _lgamma_split(x, delta)
    y_y, rest_y = _lgamma_split(y, delta)
    return math.exp(power * (rest_x - rest_y + delta * math.log(y_x / y_y)))


def _gauss_value(a: float, b: float, c: float) -> float:
    """F(a,b;c;1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)), DLMF 15.4.20.

    Where c, c-a, c-b and c-a-b are all positive it is a
    ``_gamma_quotient`` with x = c - step, y = c - a - b and delta the
    step, the one of a and b smaller in magnitude (F is symmetric in
    them).  Elsewhere it is the Gamma product with its poles and signs:
    exactly 0.0 at a pole of c-a or c-b, and inf or nan where a factor
    leaves the float range.
    """
    m = c - a - b
    if not min(c, c - a, c - b, m) > 0:
        return gamma_fn(c) * gamma_fn(m) * _rgamma(c - a) * _rgamma(c - b)
    step = min(a, b, key=abs)
    return _gamma_quotient(c - step, m, step)


def _horner(coefficients: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coefficients[i, k] z^k for every row i at every node of z.

    Horner's rule in two levels: the coefficients are cut into blocks of
    _HORNER_BLOCK, every block is summed at once by Horner's rule in z,
    and the block sums by Horner's rule in z^_HORNER_BLOCK (one ``pow``,
    which rounds once where repeated squaring rounds three times), so K
    terms cost about 2 _HORNER_BLOCK + 2 K / _HORNER_BLOCK array calls
    instead of 2K.  Past _HORNER_MAX_BLOCKS blocks the blocks widen, so
    that the block sums stay within _HORNER_MAX_BLOCKS arrays of the
    nodes' size.  A series of at most _HORNER_BLOCK terms is one block,
    plain Horner's rule.  Trailing zero coefficients change no bit, and
    a node's value does not depend on the other nodes of the call.  No
    nodes cost no columns.
    """
    rows, k = coefficients.shape
    if not (z.size and k):
        return np.zeros((rows, z.size))
    width = max(min(k, _HORNER_BLOCK), -(-k // _HORNER_MAX_BLOCKS))
    blocks = -(-k // width)
    padded = np.zeros((rows, blocks * width))
    padded[:, :k] = coefficients
    sums = np.zeros((blocks, rows, z.size))
    for column in padded.reshape(rows, blocks, width).T[::-1]:
        sums *= z
        sums += column[..., None]
    total = sums[-1]
    if blocks > 1:
        step = z**width
        for block in sums[-2::-1]:
            total *= step
            total += block
    return total


def _series(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """F(a,b;c;z) at nodes 0 < z < 1 by its Gauss series (DLMF 15.2.1),
    sum_k (a)_k (b)_k / ((c)_k k!) z^k, summed by ``_horner``.

    The sum ends at the first term whose bound at the largest node falls
    to 1e-17 of the largest term there, or at a zero term: a polynomial
    (a or b a non-positive integer -n, DLMF 15.2.4) ends after z^n.  The
    bound leaves out each factor a + k or b + k below 1 in magnitude, so
    that a term that dips because a + k sits next to 0 (a = -2 + 5e-16)
    does not end the sum.  nan at every node where it does not end
    within _SERIES_TERMS terms, and at a node where the sum of the
    terms' magnitudes exceeds _CONNECTION_CANCEL times the value, or is
    not finite: there the sum is no better than its cancellation allows
    (the polynomial of (300.5, -500; 100) at z = 0.3 is 1e-97 from terms
    of 1e90).  No nodes give an empty array.
    """
    top = float(np.max(z, initial=0.0))
    coefficients, term, bound, largest = [], 1.0, 1.0, 0.0
    for k in range(_SERIES_TERMS):
        if term == 0.0 or bound * top**k <= 1e-17 * largest:
            break
        coefficients.append(term)
        largest = max(largest, abs(term) * top**k)
        term *= (a + k) * (b + k) / ((c + k) * (k + 1))
        bound *= max(abs(a + k), 1.0) * max(abs(b + k), 1.0) / abs((c + k) * (k + 1))
    else:
        return np.full(z.shape, np.nan)
    with np.errstate(all="ignore"):
        value, magnitude = _horner(np.array([coefficients, np.abs(coefficients)]), z)
        fine = np.isfinite(magnitude) & (magnitude <= _CONNECTION_CANCEL * np.abs(value))
    return np.where(fine, value, np.nan)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _connection_plan(a: float, b: float, c: float):
    """The scalar half of ``_connection``: (eps, rows), or None where the
    route declines at every node.

    m = c - a - b = n + eps, n = round(m).  rows is the (3, K) array that
    ``_horner`` sums over the nodes: the terms of the regular series
    (k < n) followed by the paired ones, the V_j behind n zeros, and the
    terms' magnitudes.  None when eps is 0 or m is outside
    [-1/2, _CONNECTION_M), when any of a + n, b + n, c - a, c - b is
    below 1/4 (the logarithms need ratios bounded away from 0), when A or
    C leaves the float range, or when the series in w do not settle
    within _CONNECTION_TERMS terms.  The plan depends on
    (a, b, c) alone, so it is cached per triple: the audit, the
    convexity grid and the forced audit of one point share its two
    profiles' triples, and points of one d and alpha share the
    attraction's.  _PLAN_CACHE holds the triples of a batch of about 100
    points with room to spare (98 distinct among a certify round's 165
    plans); an LRU smaller than a batch's set evicts a shared triple
    before its reuse.  At most _PLAN_CACHE x 3 x _CONNECTION_TERMS
    floats, about 0.4 MB.  rows is read-only, because the cache hands it
    to every caller.
    """
    m = c - a - b
    n = round(m)
    eps = m - n
    if eps == 0.0 or not -0.5 <= m < _CONNECTION_M or not min(a + n, b + n, c - a, c - b) >= 0.25:
        return None
    gauss = _gauss_value(a, b, c)
    scale = ((-1) ** n * math.pi / math.sin(math.pi * eps)
             * gamma_fn(c) * _rgamma(a) * _rgamma(b) * _rgamma(m + 1.0))
    if not (math.isfinite(gauss) and math.isfinite(scale)):
        return None
    # Coefficients of the regular series (k < n) and of the paired series
    # (j >= 0), the latter until a term at w = 0.1 falls below 1e-18 of
    # the largest.
    regular, term = [], gauss
    for k in range(n):
        regular.append(term)
        term *= (a + k) * (b + k) / ((k + 1 - m) * (k + 1))
    paired, plain = [], []
    v = scale
    s = (_lgamma_ratio(n + 1.0, eps) - _lgamma_ratio(a + n, eps)
         - _lgamma_ratio(b + n, eps) - _lgamma_ratio(1.0, -eps))
    largest = 0.0
    for j in range(_CONNECTION_TERMS):
        bound = abs(v) * (1.0 - _CONNECTION_Z) ** j
        if not math.isfinite(bound):
            return None
        largest = max(largest, bound)
        if bound <= 1e-18 * largest:
            break
        paired.append(v * math.expm1(s))
        plain.append(v)
        s += (math.log1p(eps / (n + 1 + j)) - math.log1p(eps / (a + n + j))
              - math.log1p(eps / (b + n + j)) - math.log1p(-eps / (1 + j)))
        v *= (c - a + j) * (c - b + j) / ((m + 1 + j) * (j + 1))
    else:
        return None
    terms = regular + paired
    rows = np.array([terms, [0.0] * n + plain, np.abs(terms)])
    rows.setflags(write=False)
    return eps, rows


def _connection(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """F(a,b;c;1-w) at nodes 0 < w < 0.1 by DLMF 15.8.4, nan where it gives none.

    With m = c - a - b = n + eps, n = round(m), the formula reads
    F = A F(a,b;1-m;w) + B w^m F(c-a,c-b;1+m;w), A the Gauss value at
    z = 1 and B = Gamma(c)Gamma(-m)/(Gamma(a)Gamma(b)).  From the w^n term
    on, both series carry a 1/sin(pi eps) pole that cancels in the sum,
    so summed as written they lose digits in proportion to w^n / eps.
    Here the cancelling terms are paired before they are added:

        F = A sum_(k<n) (a)_k (b)_k / ((1-m)_k k!) w^k
            + C w^n sum_j V_j [expm1(s_j) - expm1(eps ln w)] w^j,

    C = (-1)^n pi Gamma(c) / (sin(pi eps) Gamma(a) Gamma(b) Gamma(m+1)),
    V_j = (c-a)_j (c-b)_j / ((m+1)_j j!), so that C V_j w^(n+j) e^(s_j) is
    the w^(n+j) term of the first series and -C V_j w^(m+j) that of the
    second.  s_j is O(eps), summed from lgamma ratios and log1p steps,
    and every term is accurate to rounding at any eps.  The coefficients
    depend on (a, b, c) alone and come from the cached
    ``_connection_plan``; nan at every node where it declines.  This half
    does the work over the nodes: one ``_horner`` call sums the plan's
    three rows (the terms, the V_j and the terms' magnitudes), and nan at
    a node where the sum of the terms' magnitudes exceeds
    _CONNECTION_CANCEL times the value (large a and b at w near 0.1
    cancel by 10^6).  Every V_j has C's sign, since c - a, c - b and
    m + 1 are positive here, so the sum of their magnitudes is
    |sum V_j w^j| bit for bit.
    """
    plan = _connection_plan(a, b, c)
    if plan is None:
        return np.full(w.shape, np.nan)
    eps, rows = plan
    with np.errstate(all="ignore"):
        sums = _horner(rows, w)
        tail = np.expm1(eps * np.log(w))
        value = sums[0] - tail * sums[1]
        magnitude = sums[2] + np.abs(tail * sums[1])
        return np.where(magnitude <= _CONNECTION_CANCEL * np.abs(value), value, np.nan)


def _keep_finite(value: np.ndarray, pending, nodes, found):
    """Store the finite entries of ``found``, a route's values at the
    ``nodes`` of ``value`` (nan where it gives none), and return
    ``pending`` without those nodes."""
    fine = np.isfinite(found)
    taken = np.zeros(value.shape, dtype=bool)
    taken[nodes] = fine
    value[taken] = found[fine]
    return pending & ~taken


def _hyp2f1(a: float, b: float, c: float, z, gap=None) -> np.ndarray:
    """F(a,b;c;z) at every node of z in [0, 1], as an array of z's shape.

    The gate: a, b and c must be finite, c must avoid the non-positive
    integers, every node must lie in [0, 1], and a node at z = 1 needs
    c - a - b > 0 for the series to converge.  A refusal raises
    DomainError naming the first bad node.  The gate reads the smallest
    and the largest node once, and a mask of the nodes at z = 1 or
    above 0.9 is built only where the largest node reaches there.  The
    routes are those of the module docstring: a polynomial takes
    ``_series`` at every node, and a
    node above 0.9 takes ``_series`` where c - a - b >= _CONNECTION_M,
    then ``_connection`` (which declines there), before the ufunc.  Each
    returns an array over the nodes it is given, nan where it gives no
    value, and a node keeps the first finite one.  ``gap``, an array of
    z's shape, is 1 - z as the caller knows it, and the connection route
    takes it as its w: a profile whose z is a rounded 1/rho passes
    (rho - 1)/rho, so that the rounding of z costs w no digits next to
    z = 1.  None is 1 - z.  A value that is not finite (c-a-b strongly
    negative close to z = 1) raises NonConvergence, naming the first
    such node.
    """
    z = np.asarray(z, dtype=float)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"parameters must be finite, got a={a}, b={b}, c={c}")
    if _is_nonpositive_integer(c):
        raise DomainError(f"c={c} is a non-positive integer")
    low, high = z.min(initial=0.0), z.max(initial=0.0)
    if not (low >= 0.0 and high <= 1.0):
        outside = ~((z >= 0.0) & (z <= 1.0))
        raise DomainError(f"z={float(z[outside][0])} outside [0, 1]")
    if high == 1.0 and not c - a - b > 0:
        raise DomainError(f"z=1 requires c-a-b > 0, got c-a-b={c - a - b}")
    value = np.ones(z.shape)
    inside = z > 0.0
    if high == 1.0:
        at_one = z == 1.0
        value[at_one] = _gauss_value(a, b, c)
        inside &= ~at_one
    above = z > _CONNECTION_Z if high > _CONNECTION_Z else None
    polynomial = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    if polynomial or above is not None and c - a - b >= _CONNECTION_M:
        series = inside if polynomial else inside & above
        if series.any():
            inside = _keep_finite(value, inside, series, _series(a, b, c, z[series]))
    if above is not None:
        near = inside & above
        if near.any():
            w = 1.0 - z[near] if gap is None else gap[near]
            inside = _keep_finite(value, inside, near, _connection(a, b, c, w))
    if inside.any():
        from scipy.special import hyp2f1 as ufunc

        value[inside] = ufunc(a, b, c, z[inside])
    finite = np.isfinite(value)
    if not finite.all():
        bad = float(z[~finite][0])
        raise NonConvergence(f"hyp2f1({a!r}, {b!r}; {c!r}; {bad!r}) is not finite")
    return value
