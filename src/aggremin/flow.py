"""Particle descent on the discrete interaction energy.

The continuum energy is discretized over N equal point masses with the
self-interaction excluded.  One kernel gives the energy and the
per-particle forces together, from a single pass over the N(N-1)/2
particle pairs i < j; when alpha = 2 the attraction goes through the
centroid in O(N) instead.  The pass walks the pairs in blocks of whole
rows (all partners j of one i), so the share of the forces that falls
on each row's own particle is one contiguous sum.  It sums the energy
from the force coefficients r^(p-2), one dot product with r^2 a term,
so it builds no array of W: the energy differs from a sum of W by
rounding alone, the forces by no bit, and reruns are bit-identical.
Each ``ParticleSystem`` keeps the energy and forces of the one pass
that made it.  ``run_to_convergence`` drives a random cloud to a
critical point with limited-memory BFGS (Liu & Nocedal 1989) and an
Armijo backtracking line search, and ``step`` is the first iteration
of that descent, a steepest-descent step, so the recorded energies never
increase.  Converged configurations act as an empirical cross-check on
the closed-form minimizers: in the sphere regime the particles should
ring up at the predicted radius, in the ball regime they should fill
it.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .closed_form import radius
from .errors import DomainError, IllConditioned, NonConvergence, RegimeError, StallError
from .params import KernelParams, _whole

__all__ = [
    "ParticleSystem",
    "RadialStats",
    "discrete_energy",
    "max_force",
    "step",
    "radial_stats",
    "run_to_convergence",
]

_MIN_STEP = 1e-16
_START_STEP = 0.5
# Most pairs in one block of whole rows of the kernel (a longer row is a
# block alone): its temporaries stay small enough to be reused from one
# block to the next instead of being mapped afresh.
_BLOCK = 8192
# Limited-memory BFGS: curvature pairs kept, and the Armijo constant.
_HISTORY = 10
_ARMIJO = 1e-4


@functools.lru_cache(maxsize=4)
def _plan(n: int) -> tuple:
    """The condensed upper triangle i < j in blocks of whole rows.

    Row i holds the pairs (i, i+1), ..., (i, n-1).  A block takes the
    rows a..b-1 whose pairs number at most _BLOCK together, and row a
    alone when it is longer.  Each block is (a, b, j, starts, lengths):
    the partner of each pair less a + 1, where each row begins in the
    block, and the row lengths.  The arrays are read-only, because the
    cache hands them to every caller.
    """
    lengths = np.arange(n - 1, 0, -1)
    ends = np.cumsum(lengths)
    lengths.setflags(write=False)
    blocks, a = [], 0
    while a < n - 1:
        limit = ends[a] - lengths[a] + _BLOCK
        b = max(a + 1, int(np.searchsorted(ends, limit, "right")))
        rows = lengths[a:b]
        starts = np.cumsum(rows) - rows
        # Pair q of row a + r has partner a + 1 + r + q, stored as r + q.
        j = np.arange(ends[b - 1] - ends[a] + rows[0])
        j -= np.repeat(starts - np.arange(b - a), rows)
        starts.setflags(write=False)
        j.setflags(write=False)
        blocks.append((a, b, j, starts, rows))
        a = b
    return tuple(blocks)


def _coefficient(r2: np.ndarray, p: float, is_log: bool) -> np.ndarray:
    """r^(p-2) from r^2, or r^-2 for the log kernel: the gradient
    coefficient of one term of W, grad = coef * z."""
    return 1.0 / r2 if is_log else r2 ** (0.5 * p - 1.0)


def _term_sum(r2: np.ndarray, coef: np.ndarray, p: float, is_log: bool) -> float:
    """The sum of one term of W over the pairs: of r^p / p, which is
    r^2 . r^(p-2) / p, one dot product with the coefficient, or of
    ln r = ln(r^2) / 2 for the log kernel."""
    return 0.5 * float(np.sum(np.log(r2))) if is_log else float(r2 @ coef) / p


@np.errstate(over="ignore", invalid="ignore")
def _energy_and_forces(params: KernelParams, x: np.ndarray):
    """Energy (1/N^2) sum_{i<j} W(|x_i - x_j|) and the per-particle mean
    force F_i = -(1/N) sum_{j != i} grad W(x_i - x_j), in one pair pass.

    The pairs are taken in the blocks of whole rows of ``_plan``.  In a
    block the row side x_i is each row's particle repeated along its
    row, the partner side x_j one ``take`` for all d coordinates, and
    r^2 comes from their (d, pairs) difference, once per pair.  The
    force coefficient of each term, r^(p-2), comes from it, and the
    term's energy is summed from that coefficient as r^2 . r^(p-2) / p
    (the log term as sum ln(r^2) / 2), so no array of W is built; the
    energy differs from a sum of W by rounding alone.  The pair
    coefficient is repulsion minus attraction, so the alpha = 2 case
    needs no negation pass.  Each pair's push coef (x_i - x_j) is taken
    from its partner per coordinate with ``np.bincount``, and goes to
    its row's particle by one ``np.add.reduceat`` over the block's
    contiguous rows: a bincount there would add runs of up to N - 1
    values into one bin, each add waiting on the one before.  The
    blocks and all summation orders depend on N alone, so reruns with
    the same inputs are bit-identical.  (The dot products are BLAS
    calls, which split a sum of more than 10^4 terms over the BLAS
    threads, so from N = 10^4 on, where one row is such a block, the
    energy's last bits also follow the BLAS thread count.)  For
    alpha = 2 the attraction is sum_i |x_i - c|^2 / (2N) in energy and
    -(x_i - c) in force, with c the centroid, and stays out of the pair
    pass.  Raises DomainError if two particles coincide or the energy or
    a force is not finite.
    """
    n, d = x.shape
    cols = np.ascontiguousarray(x.T)
    centroid = params.alpha == 2.0 and not params.alpha_is_log
    pair_sum = 0.0
    acc = np.zeros((d, n))
    for a, b, j, starts, lengths in _plan(n):
        diff = np.repeat(cols[:, a:b], lengths, axis=1)
        diff -= cols[:, a + 1:].take(j, axis=1)
        r2 = diff[0] * diff[0]
        for dk in diff[1:]:
            r2 += dk * dk
        # The minimum is nan, and fails the test, where any r^2 is nan.
        if not r2.min() > 0.0:
            raise DomainError("coincident particles")
        push = _coefficient(r2, params.beta, params.beta_is_log)
        block = -_term_sum(r2, push, params.beta, params.beta_is_log)
        if not centroid:
            pull = _coefficient(r2, params.alpha, params.alpha_is_log)
            block += _term_sum(r2, pull, params.alpha, params.alpha_is_log)
            push -= pull
        pair_sum += block
        diff *= push
        for k in range(d):
            acc[k, a + 1:] -= np.bincount(j, diff[k], n - a - 1)
        acc[:, a:b] += np.add.reduceat(diff, starts, axis=1)
    energy = pair_sum / n**2
    forces = np.ascontiguousarray(acc.T)
    forces /= n
    if centroid:
        dev = x - x.mean(axis=0)
        energy += float(np.sum(dev * dev)) / (2 * n)
        forces -= dev
    if not (math.isfinite(energy) and np.all(np.isfinite(forces))):
        raise DomainError(
            f"the energy or a force is not finite at the start (energy {energy})"
        )
    return energy, forces


def _max_norm(forces: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        peak = float(np.max(np.sum(forces * forces, axis=1)))
    if peak != math.inf:
        return math.sqrt(peak)
    # A component above about 1e154 overflows its square but not hypot;
    # abs, since a lone d = 1 component reduces to itself.
    return float(np.max(np.hypot.reduce(np.abs(forces), axis=1)))


@dataclass(frozen=True, eq=False)
class ParticleSystem:
    """State of the N-particle descent.

    Positions are an N x d array of pairwise-distinct finite points;
    ``forces`` (N x d) and the last ``energy_trace`` entry are one
    finite kernel pass at them (the constructor's, or the accepted
    line-search trial's); both arrays are read-only so they stay paired.
    ``energy_trace`` holds the energy after every accepted iteration
    starting from the initial state; ``step_trace`` the accepted
    line-search multiplier that produced each entry (the first entry,
    for the initial state, is 0.5: the first direction is 0.5 F).
    ``energy_evals`` counts the kernel passes, the constructor's
    included, and ``backtracks`` the rejected line-search trials.  The
    constructor takes only ``positions`` and ``params`` and refuses a
    non-finite energy or force with DomainError; the other records are
    set by the descent of ``step`` and ``run_to_convergence``.
    """

    positions: np.ndarray
    params: KernelParams
    forces: np.ndarray = field(init=False)
    iteration: int = field(default=0, init=False)
    energy_trace: tuple = field(default=(), init=False)
    step_trace: tuple = field(default=(_START_STEP,), init=False)
    energy_evals: int = field(default=1, init=False)
    backtracks: int = field(default=0, init=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 2:
            raise DomainError(
                f"positions must be an N x d array with N >= 2, got shape {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise DomainError("positions must be finite")
        energy, forces = _energy_and_forces(self.params, pos)
        _set_records(self, pos, forces, energy_trace=(energy,))


@dataclass(frozen=True)
class RadialStats:
    """Radial summary of a configuration about its mass centroid."""

    mean_radius: float
    std_radius: float
    max_radius: float
    center: tuple


def discrete_energy(sys: ParticleSystem) -> float:
    """Energy (1/(2 N^2)) sum over ordered pairs i != j of W(|x_i - x_j|)."""
    return sys.energy_trace[-1]


def max_force(sys: ParticleSystem) -> float:
    """Largest per-particle force magnitude; zero at a critical point."""
    return _max_norm(sys.forces)


def _set_records(state, positions, forces, **records) -> ParticleSystem:
    # A descent state is an object.__new__(ParticleSystem), skipping
    # __post_init__'s pass: the accepted line-search trial brings its own.
    positions.setflags(write=False)
    forces.setflags(write=False)
    for name, value in dict(records, positions=positions, forces=forces).items():
        object.__setattr__(state, name, value)
    return state


def _line_search(params, x, direction, e0, slope, iteration):
    """Backtrack t from 1 until x + t * direction is accepted.

    A trial is accepted when the kernel passes it and its energy is at
    most e0 + _ARMIJO * t * slope (slope = 0 asks only that the energy
    not rise).  Each rejection halves t; t below 1e-16 raises
    StallError.  Returns the accepted (t, x, energy, forces) and the
    number of rejected trials.
    """
    t, rejected = 1.0, 0
    while True:
        if t < _MIN_STEP:
            raise StallError(
                f"step size underflowed below {_MIN_STEP} at iteration {iteration}"
            )
        trial = x + t * direction
        try:
            e1, f1 = _energy_and_forces(params, trial)
        except DomainError:
            e1 = math.nan
        if e1 <= e0 + _ARMIJO * t * slope:
            return t, trial, e1, f1, rejected
        rejected += 1
        t *= 0.5


# Where a force is above about 1e154, grad @ direction and the L-BFGS
# products overflow: inf or nan here, not a warning, and no trial passes.
@np.errstate(over="ignore", invalid="ignore")
def _descend(sys, max_iter, tol):
    """Limited-memory BFGS from the state ``sys``, starting with an empty
    curvature history.

    The two-loop recursion over the last 10 curvature pairs (a pair
    enters only when y.s > 0) gives the direction, falling back to
    steepest descent when that is not a descent direction; the first
    direction is 0.5 F.  An Armijo line search halves its multiplier
    from 1 until the energy drops enough and no particles collide.  The
    descent stops when the largest per-particle force is at most ``tol``
    or after ``max_iter`` iterations, and returns the state reached,
    extending the records of ``sys``.  It starts from the energy and
    forces ``sys`` holds, so the kernel runs only in the line search.
    """
    params, x, forces = sys.params, sys.positions, sys.forces
    n = x.shape[0]
    # Appended lists, made tuples once: arrays of max_iter + 1 would
    # allocate a large iteration budget up front.
    energies, steps = list(sys.energy_trace), list(sys.step_trace)
    energy = energies[-1]
    evals, backtracks = sys.energy_evals, sys.backtracks
    # The energy gradient is -F / N, so H0 = 0.5 N I makes the first
    # direction 0.5 F.
    grad = forces.ravel() / -n
    scale = _START_STEP * n
    history = deque(maxlen=_HISTORY)
    k = sys.iteration
    stop = k + max_iter
    while k < stop and _max_norm(forces) > tol:
        direction = _lbfgs_direction(grad, history, scale)
        slope = float(grad @ direction)
        if not slope < 0.0:
            history.clear()
            direction = -scale * grad
            slope = float(grad @ direction)
        t, x_new, energy, forces, rejected = _line_search(
            params, x, direction.reshape(x.shape), energy, slope, k
        )
        evals += 1 + rejected
        backtracks += rejected
        grad_new = forces.ravel() / -n
        s = (x_new - x).ravel()
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:
            history.append((s, y, 1.0 / sy))
            scale = sy / float(y @ y)
        x, grad = x_new, grad_new
        k += 1
        energies.append(energy)
        steps.append(t)
    return _set_records(
        object.__new__(ParticleSystem), x, forces, params=params, iteration=k,
        energy_trace=tuple(energies), step_trace=tuple(steps),
        energy_evals=evals, backtracks=backtracks,
    )


def step(sys: ParticleSystem) -> ParticleSystem:
    """One accepted steepest-descent step: the first iteration of
    ``run_to_convergence``'s descent, taken from ``sys``.

    The proposal x + t 0.5 F has its multiplier t halved from 1 until
    the energy drops by the Armijo margin and no particles collide; the
    accepted t is recorded; its kernel passes are these trials, as it
    starts from the forces ``sys`` holds.  Underflow of t below 1e-16
    raises StallError; by construction the energy trace never rises.
    """
    # A tol of -inf runs the iteration even at a critical point.
    return _descend(sys, 1, -math.inf)


def radial_stats(sys: ParticleSystem) -> RadialStats:
    """Mean, spread, and maximum of particle radii about the centroid."""
    center = sys.positions.mean(axis=0)
    radii = np.sqrt(np.sum((sys.positions - center) ** 2, axis=1))
    return RadialStats(
        mean_radius=float(np.mean(radii)),
        std_radius=float(np.std(radii)),
        max_radius=float(np.max(radii)),
        center=tuple(float(c) for c in center),
    )


def _initial_positions(
    params: KernelParams, n_particles: int, rng: np.random.Generator
) -> np.ndarray:
    try:
        scale = 2.0 * radius(params)
    except (RegimeError, IllConditioned):
        scale = 1.0
    d = params.d
    directions = rng.normal(size=(n_particles, d))
    norms = np.sqrt(np.sum(directions * directions, axis=1))
    radii = scale * rng.random(n_particles) ** (1.0 / d)
    return directions * (radii / norms)[:, None]


def _lbfgs_direction(grad: np.ndarray, history: deque, scale: float) -> np.ndarray:
    """-H grad by the two-loop recursion, with H0 = scale * I and the
    (s, y, 1 / y.s) pairs of ``history``, oldest first."""
    q = grad.copy()
    coeffs = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        q -= a * y
        coeffs.append(a)
    q *= scale
    for (s, y, rho), a in zip(history, reversed(coeffs)):
        q += (a - rho * float(y @ q)) * s
    return -q


def run_to_convergence(
    params: KernelParams,
    n_particles: int,
    seed: int,
    tol: float = 1e-6,
    max_iter: int = 2000,
):
    """Descend from a random cloud until the forces are negligible.

    Particles start uniformly distributed in a ball of twice the
    predicted radius (the unit ball where the closed form gives none: out
    of regime, or a power-law beta too close to 0) and move by
    limited-memory BFGS on the energy (see ``_descend``); its first
    iteration is ``step``.  The descent stops when the largest
    per-particle force drops to ``tol``; ``energy_evals`` counts all its
    kernel passes, the starting cloud's included.  The default tol is
    one the descent reaches: an iteration at a largest force f lowers
    an energy of order 1 by about f^2 / 10, so near f = 1e-8 the Armijo
    test compares energies that differ by rounding, and the line search
    can halve its multiplier thousands of times without converging.
    Returns the converged system with its radial statistics; if the
    iteration budget runs out first, raises NonConvergence whose
    ``partial`` attribute carries the best-so-far pair.  Raises
    DomainError if the energy or a force is not finite on the starting
    cloud, if ``tol`` is not positive, or if ``n_particles``, ``seed``
    or ``max_iter`` is not a whole number of at least 16, 0 and 1 in
    turn (16.0 is taken as 16).
    """
    n_particles = _whole("n_particles", n_particles, 16)
    seed = _whole("seed", seed, 0)
    max_iter = _whole("max_iter", max_iter, 1)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    x = _initial_positions(params, n_particles, np.random.default_rng(seed))
    sys = _descend(ParticleSystem(x, params), max_iter, tol)
    if _max_norm(sys.forces) <= tol:
        return sys, radial_stats(sys)
    raise NonConvergence(
        f"force norm still above {tol} after {max_iter} iterations",
        partial=(sys, radial_stats(sys)),
    )
