"""Computations made apart from the package, against which its outputs are checked.

Nothing here imports aggremin.  The continuum checks are one-dimensional
quadratures of the candidate measures' potentials (scipy's QUADPACK,
with the endpoint singularities put into the quadrature weight); the
particle checks are a plain O(N^2) pair sum written row by row.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=200)


def _quad(f, a, b, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, **_QUAD, **kw)
    return value


def _sphere_chord_mean(d: int, gamma: float | None) -> float:
    """Mean of |x - y|^gamma (of ln|x - y| when gamma is None) over y
    uniform on the unit sphere of R^d, for a fixed x on that sphere.

    With theta the angle between x and y, |x - y| = 2 sin(theta/2) and y
    has density proportional to sin(theta)^(d-2).  The power theta^(gamma+d-2)
    goes into the weight, so the integrand left is smooth on [0, pi].
    """
    def sinc_ratio(t):
        return np.sinc(t / math.pi) ** (d - 2)  # (sin t / t)^(d-2)

    def half_chord(t):
        return np.sinc(t / (2.0 * math.pi))  # 2 sin(t/2) / t

    norm = _quad(sinc_ratio, 0.0, math.pi, weight="alg", wvar=(d - 2.0, 0.0))
    if gamma is None:
        log_t = _quad(sinc_ratio, 0.0, math.pi, weight="alg-loga", wvar=(d - 2.0, 0.0))
        rest = _quad(
            lambda t: np.log(half_chord(t)) * sinc_ratio(t),
            0.0,
            math.pi,
            weight="alg",
            wvar=(d - 2.0, 0.0),
        )
        return (log_t + rest) / norm
    num = _quad(
        lambda t: half_chord(t) ** gamma * sinc_ratio(t),
        0.0,
        math.pi,
        weight="alg",
        wvar=(gamma + d - 2.0, 0.0),
    )
    return num / norm


def sphere_energy(d: int, alpha: float, beta: float, beta_log: bool, r: float) -> float:
    """Interaction energy of the uniform probability measure on the sphere of radius r.

    Every point of the sphere sees the same potential, so the energy is
    half of it: E(r) = (r^alpha m_alpha / alpha - r^beta m_beta / beta) / 2,
    with ln r + m_log in place of the second term for the log kernel.
    """
    attract = r**alpha * _sphere_chord_mean(d, alpha) / alpha
    if beta_log:
        repel = math.log(r) + _sphere_chord_mean(d, None)
    else:
        repel = r**beta * _sphere_chord_mean(d, beta) / beta
    return 0.5 * (attract - repel)


def ball_centre_potential(d: int, alpha: float, beta: float, beta_log: bool, r: float) -> float:
    """Potential at the centre of the Theorem-2 ball profile of radius r.

    The profile is proportional to (r^2 - |x|^2)^p with p = (2 - beta - d)/2;
    in u = |x|/r the centre potential is the ratio of
    int_0^1 W(r u) (1 - u)^p (1 + u)^p u^(d-1) du to the same integral
    with W = 1.  The powers of u and (1 - u) go into the weight.
    """
    p = (2.0 - beta - d) / 2.0

    def moment(gamma, log=False):
        weight = "alg-loga" if log else "alg"
        return _quad(lambda u: (1.0 + u) ** p, 0.0, 1.0, weight=weight, wvar=(d - 1.0 + gamma, p))

    mass = moment(0.0)
    attract = r**alpha * moment(alpha) / alpha
    if beta_log:
        repel = math.log(r) * mass + moment(0.0, log=True)
    else:
        repel = r**beta * moment(beta) / beta
    return (attract - repel) / mass


def log_ball_energy(d: int) -> float:
    """Energy of the alpha = 2, log-repulsion ball minimizer, by quadrature.

    The log-kernel ball radius sqrt(2/d) is the beta -> 0 limit of the
    Theorem-2 radius; the energy is half the (constant) potential on the
    support, taken at the centre.
    """
    return 0.5 * ball_centre_potential(d, 2.0, 0.0, True, math.sqrt(2.0 / d))


def pair_energy_and_force(alpha: float, beta: float, beta_log: bool, x: np.ndarray):
    """Discrete energy (1/N^2) sum_{i<j} W(|x_i - x_j|) and the per-particle
    force -(1/N) sum_{j != i} grad W(x_i - x_j), one row at a time."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    total = 0.0
    forces = np.empty_like(x)
    for i in range(n):
        z = x[i] - np.delete(x, i, axis=0)
        r = np.sqrt(np.einsum("ij,ij->i", z, z))
        repel = np.log(r) if beta_log else r**beta / beta
        total += float(np.sum(r**alpha / alpha - repel))
        grad = r ** (alpha - 2.0) - (r**-2.0 if beta_log else r ** (beta - 2.0))
        forces[i] = -(grad[:, None] * z).sum(axis=0) / n
    return 0.5 * total / n**2, forces
