"""Particle descent: kernel, forces, descent loops, statistics.

Exact pair values pin the kernel and force conventions of the scalar
pair oracles defined here, and the fused energy-and-force pair pass is
held to a plain row-by-row sum; the steepest-descent step and the
L-BFGS driver are checked for their contract properties (monotone
energy, determinism, conserved centroid) and for converging toward the
predicted minimizers as the particle count grows.
"""

import inspect
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggremin import (
    DomainError,
    IllConditioned,
    KernelParams,
    NonConvergence,
    ParticleSystem,
    RadialStats,
    StallError,
    discrete_energy,
    energy,
    max_force,
    radial_stats,
    radius,
    run_to_convergence,
    step,
)
from aggremin import flow
from aggremin.flow import _energy_and_forces, _initial_positions, _line_search


# Scalar pair oracles: one pair at a time, independent of the blocked
# kernel in aggremin.flow that they check.
def _kernel_singular_at_zero(params: KernelParams) -> bool:
    return (
        params.alpha_is_log
        or params.beta_is_log
        or params.beta <= 0
        or params.alpha <= 0
    )


def kernel_w(params: KernelParams, r: float) -> float:
    """Pair interaction at distance r: r^alpha/alpha - r^beta/beta.

    Either power law degrades to ln(r) when the corresponding log flag
    is set.  Distance zero is only meaningful when both exponents are
    positive (the value is then 0); otherwise the kernel blows up there
    and a DomainError is raised.
    """
    r = float(r)
    if r < 0:
        raise DomainError(f"distance must be >= 0, got {r}")
    if r == 0.0:
        if _kernel_singular_at_zero(params):
            raise DomainError("kernel is singular at distance 0")
        return 0.0
    attract = math.log(r) if params.alpha_is_log else r**params.alpha / params.alpha
    repel = math.log(r) if params.beta_is_log else r**params.beta / params.beta
    return attract - repel


def force(params: KernelParams, z) -> np.ndarray:
    """Force -grad W(z) exerted on a particle at offset z from a source.

    Radial kernels give (|z|^(alpha-2) - |z|^(beta-2)) z for the
    gradient, with |z|^(-2) z replacing either term in log mode; the
    force is its negation.  It vanishes on the unit sphere, where
    attraction and repulsion balance.
    """
    z = np.asarray(z, dtype=float)
    r2 = float(np.dot(z, z))
    if r2 == 0.0:
        raise DomainError("force is undefined at zero offset")
    r = math.sqrt(r2)
    ca = 1.0 / r2 if params.alpha_is_log else r ** (params.alpha - 2.0)
    cb = 1.0 / r2 if params.beta_is_log else r ** (params.beta - 2.0)
    return -(ca - cb) * z


def test_kernel_w_values():
    assert kernel_w(KernelParams(2, 2.0, 1.0), 1.0) == -0.5
    assert kernel_w(KernelParams(2, 2.0, 0.0, beta_is_log=True), 1.0) == 0.5
    log_attract = KernelParams(2, 0.0, -1.0, alpha_is_log=True)
    assert kernel_w(log_attract, 1.0) == 1.0
    assert kernel_w(KernelParams(2, 2.0, 1.0), 0.0) == 0.0


def test_kernel_w_gates():
    with pytest.raises(DomainError):
        kernel_w(KernelParams(2, 2.0, -1.0), 0.0)
    with pytest.raises(DomainError):
        kernel_w(KernelParams(2, 2.0, 0.0, beta_is_log=True), 0.0)
    with pytest.raises(DomainError):
        kernel_w(KernelParams(2, 2.0, 1.0), -0.5)


def test_kernel_w_is_stationary_at_unit_distance():
    h = 1e-6
    for params in (KernelParams(3, 2.5, 0.7), KernelParams(2, 3.0, 1.75)):
        slope = (kernel_w(params, 1.0 + h) - kernel_w(params, 1.0 - h)) / (2.0 * h)
        assert abs(slope) < 1e-9, params


def test_force_balances_exactly_on_the_unit_sphere():
    params = KernelParams(3, 2.5, 0.7)
    for z in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.8, 0.0]):
        assert np.all(force(params, z) == 0.0), z


def test_force_value_and_antisymmetry():
    params = KernelParams(2, 2.0, 0.0, beta_is_log=True)
    got = force(params, [2.0, 0.0])
    assert np.allclose(got, [-1.5, 0.0], rtol=0.0, atol=1e-15)
    z = np.array([0.4, -1.1])
    assert np.all(force(params, z) + force(params, -z) == 0.0)
    with pytest.raises(DomainError):
        force(params, [0.0, 0.0])


@given(
    zx=st.floats(-3.0, 3.0),
    zy=st.floats(-3.0, 3.0),
)
@settings(max_examples=100, deadline=None)
def test_force_antisymmetry_property(zx, zy):
    params = KernelParams(2, 3.0, 1.0)
    z = np.array([zx, zy])
    if float(np.dot(z, z)) == 0.0:
        return
    assert np.all(force(params, z) + force(params, -z) == 0.0)


def test_force_matches_kernel_gradient():
    params = KernelParams(3, 2.5, 0.7)
    z = np.array([1.3, 0.4, -0.2])
    r = float(np.linalg.norm(z))
    h = 1e-7
    slope = (kernel_w(params, r + h) - kernel_w(params, r - h)) / (2.0 * h)
    want = -slope * z / r
    assert np.allclose(force(params, z), want, rtol=1e-7, atol=1e-12)


def test_discrete_energy_of_a_pair_at_unit_distance():
    def pair(params):
        return ParticleSystem(
            positions=[[0.0, 0.0], [1.0, 0.0]], params=params
        )

    assert discrete_energy(pair(KernelParams(2, 2.0, 1.0))) == -0.125
    got = discrete_energy(pair(KernelParams(2, 2.5, 0.7)))
    assert abs(got - (1.0 / 2.5 - 1.0 / 0.7) / 4.0) < 1e-15
    log_params = KernelParams(2, 2.0, 0.0, beta_is_log=True)
    assert discrete_energy(pair(log_params)) == 0.125


def test_discrete_energy_is_translation_invariant():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(12, 2))
    params = KernelParams(2, 3.0, 1.75)
    a = discrete_energy(ParticleSystem(positions=pos, params=params))
    b = discrete_energy(
        ParticleSystem(positions=pos + np.array([5.0, -7.0]), params=params)
    )
    assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_particle_system_validation_and_trace_defaults():
    params = KernelParams(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        ParticleSystem(positions=[[0.0, 0.0], [0.0, 0.0]], params=params)
    with pytest.raises(DomainError):
        ParticleSystem(positions=[[0.0, math.nan], [1.0, 0.0]], params=params)
    with pytest.raises(DomainError):
        ParticleSystem(positions=[[0.0, 0.0]], params=params)
    # The records are set by the kernel pass and the descent, not by the
    # caller, and a step size is not among them: every iteration starts
    # from 1.
    for record in ("step_size", "iteration", "forces"):
        with pytest.raises(TypeError):
            ParticleSystem(positions=[[0.0, 0.0], [1.0, 0.0]], params=params, **{record: 1})
    assert list(inspect.signature(ParticleSystem).parameters) == ["positions", "params"]
    start = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    sys0 = ParticleSystem(positions=start, params=params)
    energy, forces = _energy_and_forces(params, start)
    assert sys0.energy_trace == (energy,)
    assert sys0.forces.tobytes() == forces.tobytes()
    assert sys0.energy_evals == 1
    assert not hasattr(sys0, "step_size")
    assert sys0.step_trace == (0.5,)
    assert sys0.positions.shape[0] == 3
    # The positions and forces of one pass are read-only, so they stay
    # paired; the caller's array is copied, not frozen.
    for record in (sys0.positions, sys0.forces):
        with pytest.raises(ValueError):
            record[0, 0] = 1.0
    start[0, 0] = 1.0


def test_step_leaves_an_equilibrium_pair_unchanged():
    params = KernelParams(2, 2.0, 1.0)
    sys0 = ParticleSystem(positions=[[0.0, 0.0], [1.0, 0.0]], params=params)
    assert max_force(sys0) == 0.0
    sys1 = step(sys0)
    assert np.array_equal(sys1.positions, sys0.positions)
    assert sys1.iteration == 1
    assert sys1.energy_trace == (-0.125, -0.125)


def test_energy_trace_never_increases():
    rng = np.random.default_rng(3)
    sys0 = ParticleSystem(
        positions=rng.normal(size=(24, 2)), params=KernelParams(2, 2.0, -1.0)
    )
    cur = sys0
    for _ in range(500):
        cur = step(cur)
    trace = np.array(cur.energy_trace)
    assert len(trace) == 501
    assert np.all(np.diff(trace) <= 0.0)


def test_descent_is_deterministic():
    rng = np.random.default_rng(11)
    start = rng.normal(size=(20, 2))
    params = KernelParams(2, 2.0, -1.0)
    outs = []
    for _ in range(2):
        cur = ParticleSystem(positions=start.copy(), params=params)
        for _ in range(50):
            cur = step(cur)
        outs.append(cur)
    assert outs[0].positions.tobytes() == outs[1].positions.tobytes()
    assert outs[0].energy_trace == outs[1].energy_trace


def test_centroid_is_conserved():
    rng = np.random.default_rng(7)
    start = rng.normal(size=(24, 2))
    cur = ParticleSystem(positions=start, params=KernelParams(2, 2.0, -1.0))
    before = cur.positions.mean(axis=0)
    for _ in range(200):
        cur = step(cur)
    after = cur.positions.mean(axis=0)
    scale = float(np.max(np.abs(cur.positions)))
    assert np.max(np.abs(after - before)) <= 1e-12 * scale


def test_ring_discretization_force_shrinks_with_n():
    params = KernelParams(2, 3.0, 1.75)
    big_r = radius(params)
    radial = []
    for n in (64, 256, 1024):
        ang = 2.0 * math.pi * np.arange(n) / n
        pos = big_r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        total = np.zeros(2)
        for j in range(1, n):
            total += force(params, pos[0] - pos[j])
        total /= n
        radial.append(float(np.dot(total, pos[0] / big_r)))
    mags = [abs(v) for v in radial]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 1e-8


def test_converged_cloud_rings_at_the_predicted_radius():
    params = KernelParams(2, 3.0, 1.75)
    system, stats = run_to_convergence(params, 64, seed=0, tol=1e-5)
    big_r = radius(params)
    assert system.iteration <= 300
    assert abs(stats.mean_radius - big_r) / big_r < 1e-4
    assert stats.std_radius / stats.mean_radius < 1e-4


def test_ball_energy_gap_shrinks_with_n():
    params = KernelParams(2, 2.0, -1.0)
    target = energy(params)
    big_r = radius(params)
    e_gaps, r_gaps = [], []
    for n, budget in ((64, 400), (256, 500), (1024, 260)):
        try:
            system, stats = run_to_convergence(
                params, n, seed=2, tol=1e-3, max_iter=budget
            )
        except NonConvergence as exc:
            system, stats = exc.partial
        e_gaps.append(abs(discrete_energy(system) - target) / abs(target))
        r_gaps.append(abs(stats.max_radius - big_r) / big_r)
    assert e_gaps[0] > e_gaps[1] > e_gaps[2]
    assert r_gaps[0] > r_gaps[1] > r_gaps[2]
    assert e_gaps[2] < 0.05


def test_radial_stats_hand_built():
    pos = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]
    system = ParticleSystem(positions=pos, params=KernelParams(2, 2.0, 1.0))
    stats = radial_stats(system)
    assert stats.mean_radius == 0.8
    assert abs(stats.std_radius - 0.4) < 1e-15
    assert stats.max_radius == 1.0
    assert stats.center == (0.0, 0.0)
    assert asdict(stats) == {
        "mean_radius": 0.8,
        "std_radius": stats.std_radius,
        "max_radius": 1.0,
        "center": (0.0, 0.0),
    }
    assert isinstance(stats, RadialStats)


def test_initial_positions_fill_twice_the_predicted_radius():
    rng = np.random.default_rng(0)
    params = KernelParams(2, 3.0, 1.75)
    pos = _initial_positions(params, 200, rng)
    norms = np.sqrt(np.sum(pos * pos, axis=1))
    assert np.max(norms) <= 2.0 * radius(params) + 1e-12
    unsupported = KernelParams(3, 3.0, 0.1)
    pos = _initial_positions(unsupported, 200, rng)
    norms = np.sqrt(np.sum(pos * pos, axis=1))
    assert np.max(norms) <= 1.0 + 1e-12


def test_descent_starts_from_the_unit_ball_where_the_closed_form_refuses():
    """A power-law beta within 1e-6 of 0 has no closed-form radius
    (IllConditioned), but the particles need none: the descent starts
    from the unit ball, converges, and lands next to the log kernel's
    cloud, since r^beta/beta is 1/beta + ln r + O(beta)."""
    near = KernelParams(2, 2.0, 1e-7)
    with pytest.raises(IllConditioned):
        radius(near)
    state, stats = run_to_convergence(near, 32, 0)
    assert max_force(state) <= 1e-6
    _, log_stats = run_to_convergence(KernelParams(2, 2.0, 0.0, beta_is_log=True), 32, 0)
    assert abs(stats.mean_radius - log_stats.mean_radius) <= 0.02 * log_stats.mean_radius


def test_descent_in_a_large_dimension_starts_from_the_sphere_radius():
    """At d = 200 the sphere radius is a finite Gamma quotient, so the
    descent starts from it.  16 points fit a regular simplex there with
    every pair at W's minimum r = 1, whose radius is sqrt(15/32)."""
    params = KernelParams(200, 3.0, 1.9)
    assert 0.7 < radius(params) < 0.71
    state, stats = run_to_convergence(params, 16, 0)
    assert max_force(state) <= 1e-6
    assert abs(stats.mean_radius - math.sqrt(15 / 32)) <= 1e-5


def test_run_to_convergence_gates_and_partial_state():
    params = KernelParams(2, 2.0, -1.0)
    with pytest.raises(DomainError):
        run_to_convergence(params, 2, seed=0)
    with pytest.raises(DomainError):
        run_to_convergence(params, 32, seed=0, tol=0.0)
    with pytest.raises(DomainError):
        run_to_convergence(params, 32, seed=0, max_iter=0)
    with pytest.raises(DomainError):
        run_to_convergence(params, 32, seed=-1)
    with pytest.raises(NonConvergence) as exc:
        run_to_convergence(params, 16, seed=1, tol=1e-12, max_iter=3)
    system, stats = exc.value.partial
    assert system.iteration == 3
    assert isinstance(stats, RadialStats)


def test_run_to_convergence_takes_only_whole_counts():
    """A count that is not a whole number is refused, where numpy raised
    a TypeError for 16.5 particles and a budget of 2.5 iterations ran;
    a whole float is taken as its int."""
    params = KernelParams(2, 2.0, -1.0)
    counts = dict(n_particles=16, seed=0, max_iter=3)
    for name, bad in (("n_particles", 16.5), ("seed", 1.5), ("max_iter", 2.5),
                      ("seed", None), ("max_iter", math.inf)):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            run_to_convergence(params, **dict(counts, **{name: bad}), tol=1e-12)
    runs = []
    for whole in (counts, {k: float(v) for k, v in counts.items()}):
        with pytest.raises(NonConvergence, match="after 3 iterations$") as exc:
            run_to_convergence(params, **whole, tol=1e-12)
        runs.append(exc.value.partial[0])
    assert runs[0].positions.tobytes() == runs[1].positions.tobytes()


def _row_by_row(params, x):
    """Energy, forces and their magnitude scales by a plain O(N^2) loop.

    The scales are the sums of absolute pair contributions: the energy's
    over all pairs, the force's over the pairs of the busiest particle.
    """
    n = x.shape[0]
    total = scale_e = scale_f = 0.0
    forces = np.empty_like(x)
    for i in range(n):
        z = x[i] - np.delete(x, i, axis=0)
        r = np.sqrt(np.sum(z * z, axis=1))
        attract = np.log(r) if params.alpha_is_log else r**params.alpha / params.alpha
        repel = np.log(r) if params.beta_is_log else r**params.beta / params.beta
        total += float(np.sum(attract - repel))
        scale_e += float(np.sum(np.abs(attract) + np.abs(repel)))
        ca = r**-2.0 if params.alpha_is_log else r ** (params.alpha - 2.0)
        cb = r**-2.0 if params.beta_is_log else r ** (params.beta - 2.0)
        forces[i] = -np.sum((ca - cb)[:, None] * z, axis=0) / n
        scale_f = max(scale_f, float(np.sum((np.abs(ca) + np.abs(cb)) * r)) / n)
    return 0.5 * total / n**2, forces, 0.5 * scale_e / n**2, scale_f


@given(
    d=st.integers(1, 3),
    kind=st.sampled_from(["power", "log_alpha", "log_beta"]),
    alpha_two=st.booleans(),
    n=st.integers(2, 160),
    seed=st.integers(0, 2**32 - 1),
    u=st.floats(0.05, 0.95),
)
@example(d=2, kind="power", alpha_two=False, n=160, seed=0, u=0.7)
@example(d=3, kind="log_beta", alpha_two=True, n=160, seed=1, u=0.5)
@example(d=2, kind="power", alpha_two=False, n=128, seed=2, u=0.3)
@example(d=2, kind="power", alpha_two=True, n=129, seed=3, u=0.6)
@example(d=3, kind="log_alpha", alpha_two=False, n=130, seed=4, u=0.4)
@settings(max_examples=60, deadline=None)
def test_fused_kernel_matches_a_row_by_row_sum(d, kind, alpha_two, n, seed, u):
    """Both the O(N) centroid attraction (alpha = 2) and the pair pass,
    over one and several pair blocks, agree with the plain sum to 1e-12
    of the summed absolute contributions.  At the default block size
    N = 128 (8128 pairs) is one block and N = 129 (8256) the first N
    with two."""
    alpha = 2.0 if alpha_two else 2.0 + 1.5 * u
    if kind == "log_alpha":
        params = KernelParams(d, 0.0, -d * u, alpha_is_log=True)
    elif kind == "log_beta":
        params = KernelParams(d, alpha, 0.0, beta_is_log=True)
    else:
        beta = -d + (alpha + d) * u
        if abs(beta) < 1e-3:
            beta = 0.5
        params = KernelParams(d, alpha, beta)
    x = np.random.default_rng(seed).normal(size=(n, d))
    e, f = _energy_and_forces(params, x)
    e_ref, f_ref, scale_e, scale_f = _row_by_row(params, x)
    assert abs(e - e_ref) <= 1e-12 * scale_e
    assert np.max(np.abs(f - f_ref)) <= 1e-12 * scale_f


@pytest.mark.parametrize("block", [1, 5, 64])
def test_kernel_blocks_of_whole_rows(block, monkeypatch):
    """At a small block size the plan has rows longer than a block (each
    then a block alone), blocks of one row and of several, and a ragged
    last block; the pass over them agrees with the plain sum and gives
    the same bits on a second call, for the pair pass alone, with the
    centroid attraction (alpha = 2) and with each log kernel."""
    monkeypatch.setattr(flow, "_BLOCK", block)
    flow._plan.cache_clear()
    try:
        for n in (2, 3, 6, 17, 40):
            plan = flow._plan(n)
            assert [blk[0] for blk in plan] == [0] + [blk[1] for blk in plan[:-1]]
            assert plan[-1][1] == n - 1
            for a, b, j, starts, lengths in plan:
                assert j.size <= block or b - a == 1
                assert np.array_equal(lengths, np.arange(n - 1 - a, n - 1 - b, -1))
                assert np.array_equal(starts, np.cumsum(lengths) - lengths)
            partners = np.concatenate([j + a + 1 for a, _, j, _, _ in plan])
            assert np.array_equal(partners, np.triu_indices(n, k=1)[1])
            for d in (1, 2, 3):
                x = np.random.default_rng(n + 10 * d).normal(size=(n, d))
                for params in (
                    KernelParams(d, 3.0, 1.75),
                    KernelParams(d, 2.0, 0.5),
                    KernelParams(d, 0.0, -0.5, alpha_is_log=True),
                    KernelParams(d, 2.0, 0.0, beta_is_log=True),
                ):
                    e, f = _energy_and_forces(params, x)
                    e_ref, f_ref, scale_e, scale_f = _row_by_row(params, x)
                    assert abs(e - e_ref) <= 1e-12 * scale_e, (n, params)
                    assert np.max(np.abs(f - f_ref)) <= 1e-12 * scale_f, (n, params)
                    e2, f2 = _energy_and_forces(params, x)
                    assert e2 == e and f2.tobytes() == f.tobytes(), (n, params)
    finally:
        monkeypatch.undo()
        flow._plan.cache_clear()


BALL = KernelParams(2, 2.0, -1.0)


def test_driver_reruns_are_bit_identical():
    outs = [run_to_convergence(BALL, 64, seed=3, tol=1e-6)[0] for _ in range(2)]
    assert outs[0].positions.tobytes() == outs[1].positions.tobytes()
    assert outs[0].energy_trace == outs[1].energy_trace
    assert outs[0].step_trace == outs[1].step_trace


def test_driver_trace_is_monotone_and_counted(monkeypatch):
    calls = _count_kernel_passes(monkeypatch)
    system, _ = run_to_convergence(KernelParams(2, 3.0, 1.75), 48, seed=6, tol=1e-7)
    assert len(calls) == system.energy_evals
    trace = np.array(system.energy_trace)
    steps = np.array(system.step_trace)
    assert len(trace) == len(steps) == system.iteration + 1
    assert np.all(np.diff(trace) <= 0.0)
    assert np.all(np.isfinite(steps)) and np.all(steps > 0.0)
    assert system.energy_evals == system.iteration + 1 + system.backtracks
    assert max_force(system) <= 1e-7


def test_driver_converges_at_the_default_tol():
    """The default force tolerance is one the descent reaches: the N = 100
    ball cloud of seed 0 gets there in about 215 iterations."""
    tol = inspect.signature(run_to_convergence).parameters["tol"].default
    assert tol == 1e-6
    system, _ = run_to_convergence(BALL, 100, seed=0)
    assert max_force(system) <= tol


def test_driver_converges_on_the_ball_benchmark_cloud():
    """The N = 100 ball cloud of seed 1 at tol 1e-4: steepest descent
    needs about 2900 iterations, the quasi-Newton driver about 200."""
    system, _ = run_to_convergence(BALL, 100, seed=1, tol=1e-4, max_iter=20000)
    assert system.iteration < 500
    assert max_force(system) <= 1e-4


def _count_kernel_passes(monkeypatch) -> list:
    """Record every call of the pair kernel in the returned list."""
    calls = []
    kernel = flow._energy_and_forces

    def counted(params, x):
        calls.append(x.shape)
        return kernel(params, x)

    monkeypatch.setattr(flow, "_energy_and_forces", counted)
    return calls


def test_step_counts_its_kernel_passes(monkeypatch):
    """A state is made by one kernel pass and keeps its result: reading
    its energy or largest force runs none, and a step runs only its
    line-search trials."""
    calls = _count_kernel_passes(monkeypatch)
    # A cloud of width 1e-2 feels repulsive forces of order 1e4, so the
    # starting multiplier 1 on 0.5 F overshoots and has to be halved.
    rng = np.random.default_rng(8)
    sys0 = ParticleSystem(positions=1e-2 * rng.normal(size=(20, 2)), params=BALL)
    assert len(calls) == sys0.energy_evals == 1
    discrete_energy(sys0)
    max_force(sys0)
    assert len(calls) == 1
    sys1 = step(sys0)
    assert sys1.backtracks > 0
    assert len(calls) - 1 == 1 + sys1.backtracks
    assert sys1.energy_evals == 2 + sys1.backtracks
    assert sys1.step_trace[-1] == 1 / 2**sys1.backtracks


@pytest.mark.parametrize(
    "params, n, seed",
    [(BALL, 100, 1), (KernelParams(2, 3.0, 1.75), 64, 0), (KernelParams(3, 2.5, 0.7), 32, 4)],
)
def test_step_is_the_first_iteration_of_the_driver(params, n, seed):
    """One descent path: ``step`` from the driver's starting cloud is,
    bit for bit, the driver's state after its first iteration."""
    x0 = _initial_positions(params, n, np.random.default_rng(seed))
    stepped = step(ParticleSystem(positions=x0, params=params))
    with pytest.raises(NonConvergence) as exc:
        run_to_convergence(params, n, seed, max_iter=1)
    driven, _ = exc.value.partial
    assert stepped.positions.tobytes() == driven.positions.tobytes()
    assert stepped.energy_trace == driven.energy_trace
    assert stepped.step_trace == driven.step_trace
    assert stepped.iteration == driven.iteration == 1
    assert stepped.energy_evals == driven.energy_evals
    assert stepped.backtracks == driven.backtracks


def test_descent_refuses_a_kernel_that_is_not_finite_at_the_start():
    """r^3000 overflows on any cloud wider than 1: the energy is inf and
    the forces are nan, so no state is built there and no descent
    starts (nor warns, which the RuntimeWarning filter would turn into
    an error: the kernel handles the overflow)."""
    params = KernelParams(2, 3000.0, 1.0)
    with pytest.raises(DomainError, match="not finite at the start"):
        run_to_convergence(params, 16, seed=0, max_iter=5)
    with pytest.raises(DomainError, match=r"not finite at the start \(energy inf\)"):
        ParticleSystem(positions=[[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]], params=params)


def test_max_force_of_a_force_whose_square_overflows():
    """At (1, 80, 1) the points 0, 100, 300 have a finite energy near
    2e195 and finite forces near 1e195, whose squares overflow; where
    the squares are finite, the norm is the plain one bit for bit."""
    params = KernelParams(1, 80.0, 1.0)
    points = [0.0, 100.0, 300.0]
    huge = ParticleSystem(positions=[[p] for p in points], params=params)
    assert math.isfinite(discrete_energy(huge))
    want = max(
        abs(sum(force(params, [p - q])[0] for q in points if q != p)) / 3
        for p in points
    )
    assert math.isfinite(want)
    assert max_force(huge) == pytest.approx(want, rel=1e-14)
    # A step from there: the slope grad . direction overflows to -inf, so
    # no trial meets the Armijo test, and the overflow is no warning
    # (which the RuntimeWarning filter would turn into an error).
    with pytest.raises(StallError):
        step(huge)
    cloud = ParticleSystem(
        positions=np.random.default_rng(2).normal(size=(12, 3)), params=KernelParams(3, 2.5, 0.7)
    )
    f = cloud.forces
    assert max_force(cloud) == float(np.sqrt(np.max(np.sum(f * f, axis=1))))


def test_line_search_rejects_a_collision_and_stalls_uphill():
    """A trial that makes two particles coincide is rejected like a rising
    energy, and a direction that never descends underflows the step."""
    params = KernelParams(2, 2.0, 1.0)
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    e0, _ = _energy_and_forces(params, x)
    inward = np.array([[1.0, 0.0], [-1.0, 0.0]])
    # t = 1 puts both particles at (1, 0); t = 0.5 is the unit-distance
    # equilibrium, energy -1/8 against 0 at distance 2.
    t, trial, e1, _, rejected = _line_search(params, x, inward, e0, 0.0, 0)
    assert (t, rejected) == (0.5, 1)
    assert np.array_equal(trial, [[0.5, 0.0], [1.5, 0.0]])
    assert e1 == -0.125 < e0
    # Moving apart raises the energy, so a claimed negative slope is
    # never met and t halves below 1e-16.
    with pytest.raises(StallError):
        _line_search(params, x, -inward, e0, -1.0, 0)
