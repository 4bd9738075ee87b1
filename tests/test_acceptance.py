"""Acceptance gate: nine end-to-end checks, one per numbered criterion,
and the particle energy as an upper bound on the closed-form energy.

Each test does its full workload, prints a single ``criterion N: PASS/FAIL``
line with the relevant numbers and its runtime, and then asserts.  The
eighth criterion's ball sub-check compares a continuum minimizer with
finite particle systems: at N = 400 the discrete energy sits about 4% and
the max radius about 10% under the continuum values, and both gaps close
as N^(-1/2) (the Riesz next-order term with s = -beta in d = 2).  The
check therefore runs a ladder N = 100, 200, 400, extrapolates to N -> oo,
and holds the limit to the stated 2%/3% bounds, reporting the raw
N = 400 gaps next to it.
"""

import json
import math
import time

import numpy as np
import pytest

from aggremin import (
    ELReport,
    KernelParams,
    ParticleSystem,
    ball_potential,
    ball_potential_quad,
    beta_star,
    convexity_report,
    discrete_energy,
    energy,
    max_force,
    psi_capital_dd_at_one,
    psi_values_at_one,
    radius,
    run_to_convergence,
    single_zero_scan,
    sphere_potential,
    sphere_potential_quad,
    step,
    verify_euler_lagrange,
)
from aggremin.cli import main as cli_main
from aggremin.closed_form import (
    _energy_ball,
    _energy_sphere,
    _radius_ball,
    _radius_sphere,
)
from aggremin.errors import NonConvergence
from aggremin.special import _hyp2f1

SPHERE_TRIPLES = [
    (2, 3.0, 1.6), (2, 3.0, 1.95), (2, 3.5, 1.45), (2, 4.0, 1.4), (2, 4.0, 1.95),
    (2, 2.5, 1.8), (3, 2.0, 1.3), (3, 2.0, 1.0), (3, 2.5, 1.1), (3, 3.0, 0.8),
    (3, 3.0, 1.9), (3, 3.5, 0.75), (3, 4.0, 0.6), (3, 4.0, 1.5), (4, 2.0, 0.4),
    (4, 2.0, 0.0), (4, 2.5, -0.1), (4, 3.0, 0.0), (4, 3.0, 1.2), (4, 4.0, -0.2),
    (5, 2.0, -0.7), (5, 2.0, 0.0), (5, 3.0, -0.9), (5, 3.5, 1.3), (5, 4.0, -1.1),
]

BALL_TRIPLES = [
    (2, 2.0, -1.0), (2, 2.0, -1.9), (2, 2.0, -0.5), (2, 2.0, 0.0), (2, 2.0, 1.5),
    (2, 2.0, 0.8), (3, 2.0, -2.5), (3, 2.0, -1.0), (3, 2.0, 0.0), (3, 2.0, 0.6),
    (4, 2.0, -3.5), (1, 2.0, -0.5), (4, 2.0, -0.8), (5, 2.0, -4.5), (5, 2.0, -1.6),
]

BALL_LADDER = (100, 200, 400)


def _params(d, alpha, beta):
    """Kernel parameters with beta = 0 read as the logarithmic case."""
    return KernelParams(d, alpha, beta, beta_is_log=(beta == 0.0))


def _moment_radius(params, sys):
    """Ball radius estimated from the second moment about the centroid.

    The Theorem-2 profile (R^2 - r^2)^((2 - beta - d)/2) has
    <r^2> = d R^2 / (4 - beta), so this is exact for the continuum ball.
    """
    centred = sys.positions - sys.positions.mean(axis=0)
    mean_r2 = float(np.mean(np.sum(centred * centred, axis=1)))
    return math.sqrt((4.0 - params.beta) / params.d * mean_r2)


def _extrapolate(ns, ys, rate):
    """Least-squares fit of y_N = y_inf + K N^rate.

    Returns y_inf and the largest absolute residual over the points.
    """
    design = np.column_stack([np.ones(len(ns)), np.asarray(ns, dtype=float) ** rate])
    ys = np.asarray(ys, dtype=float)
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    return float(coef[0]), float(np.max(np.abs(design @ coef - ys)))


def _verdict(capsys, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    return line


def test_criterion_1(capsys):
    """Randomized positivity and curvature-sign properties of the Gauss
    series, 1000 hypothesis-satisfying draws each."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    min_val = math.inf
    for _ in range(1000):
        a = rng.uniform(-8.0, 5.0)
        b = rng.uniform(-8.0, 5.0)
        c = max(a, b, 0.0) + rng.uniform(0.05, 5.0)
        z = rng.uniform(0.0, 0.999999)
        min_val = min(min_val, float(_hyp2f1(a, b, c, z)))

    grid = np.linspace(0.0, 0.95, 12)
    sign_violations = 0
    for _ in range(1000):
        a = rng.uniform(-8.0, 5.0)
        b = rng.uniform(-8.0, 5.0)
        c = max(a, b, 0.0) + rng.uniform(0.05, 5.0)
        vals = _hyp2f1(a, b, c, grid)
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        tol = 1e-8 * max(1.0, float(np.max(np.abs(vals))))
        if a * (a + 1.0) * b * (b + 1.0) >= 0.0:
            bad = float(np.min(second)) < -tol
        else:
            bad = float(np.max(second)) > tol
        sign_violations += bad

    elapsed = time.perf_counter() - t0
    ok = min_val >= 0.0 and sign_violations == 0 and elapsed < 10.0
    line = _verdict(capsys, 1, ok,
                    f"positivity min {min_val:.2e}, sign violations "
                    f"{sign_violations}/1000, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2(capsys):
    """Closed-form potentials against the independent quadrature oracles,
    1e-8 relative on the declared grids."""
    t0 = time.perf_counter()
    dims = (2, 3, 4)
    gammas = (-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.7)
    points = (0.2, 0.6, 0.9, 1.5, 3.0)

    worst_sphere = 0.0
    n_sphere = 0
    for d in dims:
        for g in gammas:
            for x in points:
                want = sphere_potential_quad(d, g, x)
                rel = abs(sphere_potential(d, g, x) - want) / abs(want)
                worst_sphere = max(worst_sphere, rel)
                n_sphere += 1

    worst_ball = 0.0
    n_ball = 0
    for d in dims:
        for g in gammas:
            if not (-d < g < -d + 4.0):
                continue
            for x in points:
                want = ball_potential_quad(d, g, x)
                rel = abs(ball_potential(d, g, x) - want) / abs(want)
                worst_ball = max(worst_ball, rel)
                n_ball += 1

    elapsed = time.perf_counter() - t0
    ok = (n_sphere == 105 and n_ball == 60
          and worst_sphere <= 1e-8 and worst_ball <= 1e-8 and elapsed < 30.0)
    line = _verdict(capsys, 2, ok,
                    f"sphere {n_sphere} pts worst {worst_sphere:.1e}, ball "
                    f"{n_ball} pts worst {worst_ball:.1e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_3(capsys):
    """Exact closed-form anchors, including both formula routes at the
    points where the two regimes meet."""
    t0 = time.perf_counter()
    failures = []

    for d in (3, 4, 5):
        r = radius(KernelParams(d, 2.0, 2.0 - d))
        if abs(r - 1.0) > 1e-14:
            failures.append(f"R(d={d}) = {r!r}")
    r_log = radius(KernelParams(2, 2.0, 0.0, beta_is_log=True))
    if abs(r_log - 1.0) > 1e-14:
        failures.append(f"R log = {r_log!r}")

    r_s, r_b = _radius_sphere(3, 2.0, 1.0), _radius_ball(3, 1.0)
    e_s = _energy_sphere(3, 2.0, 1.0, False, r_s)
    e_b = _energy_ball(3, 1.0, False, r_b)
    for name, got, want in (
        ("R sphere route", r_s, 2.0 / 3.0),
        ("R ball route", r_b, 2.0 / 3.0),
        ("E sphere route", e_s, -2.0 / 9.0),
        ("E ball route", e_b, -2.0 / 9.0),
    ):
        if abs(got - want) > 1e-12:
            failures.append(f"{name} = {got!r}")
    if abs(r_s - r_b) > 1e-12 or abs(e_s - e_b) > 1e-12:
        failures.append("route disagreement at (3, 2, 1)")

    want_log = 0.25 * (0.5 + math.log(2.0))
    e_ls = _energy_sphere(4, 2.0, 0.0, True, _radius_sphere(4, 2.0, 0.0))
    e_lb = _energy_ball(4, 0.0, True, _radius_ball(4, 0.0))
    if abs(e_ls - want_log) > 1e-12 or abs(e_lb - want_log) > 1e-12:
        failures.append(f"log junction: {e_ls!r} vs {e_lb!r}")

    e_disc = energy(KernelParams(2, 2.0, 0.0, beta_is_log=True))
    if abs(e_disc - 0.375) > 1e-14:
        failures.append(f"E(2, 2, log) = {e_disc!r}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    line = _verdict(capsys, 3, ok,
                    f"{'all anchors exact' if not failures else '; '.join(failures)}, "
                    f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_4(capsys):
    """Stationarity audits at default resolution (2000 nodes, rho up to 800)
    for 25 sphere triples and 15 ball triples, tolerance 1e-9 times eta."""
    t0 = time.perf_counter()
    failing = []
    worst = 0.0
    for d, a, b in SPHERE_TRIPLES + BALL_TRIPLES:
        report = verify_euler_lagrange(_params(d, a, b))
        strict = 1e-9 * abs(report.eta)
        margin_bad = max(0.0, -report.exterior_min_margin)
        worst = max(worst, report.support_max_abs_dev / strict, margin_bad / strict)
        if not (report.passed
                and report.support_max_abs_dev <= strict
                and report.exterior_min_margin >= -strict):
            failing.append((d, a, b))
    elapsed = time.perf_counter() - t0
    ok = not failing and elapsed < 120.0
    line = _verdict(capsys, 4, ok,
                    f"{len(SPHERE_TRIPLES)} sphere + {len(BALL_TRIPLES)} ball "
                    f"triples, worst dev/tol {worst:.1e}, failing {failing}, "
                    f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_5(capsys):
    """Sign of the curvature instrument at rho = 1 flips across the
    critical exponent curve; on the curve itself it vanishes.

    At (d, alpha) = (2, 2) the curve meets the edge of the parameter
    set (the critical value equals alpha) and the zero is a double one,
    so the instrument stays negative on both sides there; that corner is
    checked against the degenerate statement instead of a sign flip.
    """
    t0 = time.perf_counter()
    failures = []
    for d in (2, 3, 5):
        for a in (2.0, 3.0, 4.0):
            bs = beta_star(d, a)
            lo = psi_capital_dd_at_one(KernelParams(d, a, bs - 0.05))
            if d == 2 and a == 2.0:
                v_a = psi_values_at_one(d, a)
                v_hi = psi_values_at_one(d, bs + 0.05)
                v_at = psi_values_at_one(d, bs)
                hi = (v_hi[1] / v_a[1] * v_a[2] - v_hi[2]) / (bs + 0.05)
                at = (v_at[1] / v_a[1] * v_a[2] - v_at[2]) / bs
                if not (lo < 0.0 and hi < 0.0):
                    failures.append(f"degenerate corner: lo={lo:.2e} hi={hi:.2e}")
            else:
                hi = psi_capital_dd_at_one(KernelParams(d, a, bs + 0.05))
                at = psi_capital_dd_at_one(
                    KernelParams(d, a, bs, beta_is_log=(bs == 0.0)))
                if not (lo < 0.0 < hi):
                    failures.append(f"no flip at d={d} alpha={a}: "
                                    f"lo={lo:.2e} hi={hi:.2e}")
            if abs(at) > 1e-9 * min(abs(lo), abs(hi)):
                failures.append(f"nonzero on curve at d={d} alpha={a}: {at:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    line = _verdict(capsys, 5, ok,
                    f"8 flips + 1 degenerate corner, "
                    f"{'clean' if not failures else '; '.join(failures)}, "
                    f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_6(capsys):
    """1000 randomized difference-of-series scans: at most one sign change
    per pattern, always negative to positive."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    counts = {}
    violations = 0
    for _ in range(1000):
        a2 = rng.uniform(0.1, 2.0)
        a1 = a2 + rng.uniform(0.1, 2.0)
        b2 = rng.uniform(0.1, 2.0)
        b1 = b2 + rng.uniform(0.1, 2.0)
        c = a1 + b1 + rng.uniform(0.2, 3.0)
        q = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        pattern = single_zero_scan(a1, b1, a2, b2, c, q).replace("0", "")
        counts[pattern] = counts.get(pattern, 0) + 1
        if pattern not in ("", "-", "+", "-+"):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and "-+" in counts and elapsed < 20.0
    line = _verdict(capsys, 6, ok,
                    f"patterns {counts}, violations {violations}/1000, "
                    f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_7(capsys):
    """Convexity instrument: nonnegative second differences on [0, 10]
    for every sphere-regime triple; control triples below the critical
    curve fail with the dip located at rho = 1."""
    t0 = time.perf_counter()
    failures = []

    for d, a, b in SPHERE_TRIPLES:
        report = convexity_report(_params(d, a, b))
        if not report.passed or report.min_second_difference < -1e-7:
            failures.append(f"({d},{a},{b}) min {report.min_second_difference:.1e}")

    for d, a, b in ((3, 2.0, 0.5), (2, 3.0, 1.3), (5, 3.0, -1.4)):
        params = KernelParams(d, a, b)
        report = convexity_report(params)
        rho_min = report.rho_min_second_difference
        if report.passed or abs(rho_min - 1.0) > 0.05:
            failures.append(f"control ({d},{a},{b}): passed={report.passed} "
                            f"dip at {rho_min:.3f}")

    for d, a, b, log in ((2, 4.0, 4.0 / 3.0, False), (4, 2.0, 0.0, True)):
        report = convexity_report(KernelParams(d, a, b, beta_is_log=log))
        if not report.passed:
            failures.append(f"on-curve ({d},{a},{b}) unexpectedly failed")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    line = _verdict(capsys, 7, ok,
                    f"25 pass, 3 controls dip at rho=1, 2 on-curve pass"
                    f"{'' if not failures else '; ' + '; '.join(failures)}, "
                    f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_8(capsys):
    """Particle-flow spot checks against the continuum answers.

    The two-body check converges to unit distance and energy -1/8; the
    256-particle ring sits on the predicted radius.

    The ball (d, alpha, beta) = (2, 2, -1) is a continuum object that the
    particle flow reaches only as N -> oo.  At N = 400 the discrete energy
    lands about -4% and the max radius about -10% from the continuum
    values: the excluded self-interaction is an O(N**-0.5) energy term
    (Riesz next order, N^(s/d - 1) with s = -beta), and the density
    vanishes like a square root at the edge, so the outermost particle
    sits a slowly shrinking boundary layer inside R.  The check runs
    N = 100, 200, 400 (seed 2, tol 1e-4, max_iter 6000), fits
    y_N = y_inf + K N^(-1/2) to the energy and to the moment radius
    sqrt((4 - beta)/d <|x - c|^2>), which is exact for the Theorem-2
    profile, and holds the limits to the 2%/3% bounds.  The fit residual
    must stay within 0.5% of the continuum value, so a ladder that stops
    following the N^(-1/2) law fails the check.  A rung that does not
    reach tol fails it too, since an extrapolation from a partial state
    means nothing.
    """
    t0 = time.perf_counter()

    pair = ParticleSystem(
        positions=np.array([[0.0, 0.0], [1.6, 0.0]]),
        params=KernelParams(2, 2.0, 1.0),
    )
    for _ in range(4000):
        if max_force(pair) <= 1e-12:
            break
        pair = step(pair)
    dist = float(np.linalg.norm(pair.positions[1] - pair.positions[0]))
    pair_energy = discrete_energy(pair)
    pair_ok = abs(dist - 1.0) <= 1e-10 and abs(pair_energy - (-0.125)) <= 1e-10

    p_ring = KernelParams(2, 3.0, 1.75)
    r_ring = radius(p_ring)
    _, ring_stats = run_to_convergence(p_ring, 256, seed=0, tol=1e-5, max_iter=4000)
    ring_mean_rel = abs(ring_stats.mean_radius - r_ring) / r_ring
    ring_spread = ring_stats.std_radius / ring_stats.mean_radius
    ring_ok = ring_mean_rel <= 0.02 and ring_spread <= 0.02

    p_ball = KernelParams(2, 2.0, -1.0)
    e_ball = energy(p_ball)
    r_ball = radius(p_ball)
    rungs = []
    unconverged = []
    for n in BALL_LADDER:
        try:
            ball_sys, ball_stats = run_to_convergence(
                p_ball, n, seed=2, tol=1e-4, max_iter=6000)
        except NonConvergence:
            unconverged.append(n)
            continue
        rungs.append((n, discrete_energy(ball_sys), ball_stats.max_radius,
                      _moment_radius(p_ball, ball_sys)))
    rung_text = "; ".join(
        f"N={n} E_N={e_n:.6f} energy gap {abs(e_n - e_ball) / abs(e_ball):.1%} "
        f"max-radius gap {abs(r_max - r_ball) / r_ball:.1%} "
        f"moment-radius gap {abs(r_mom - r_ball) / r_ball:.1%}"
        for n, e_n, r_max, r_mom in rungs)
    if unconverged:
        ball_ok = False
        ball_text = f"{rung_text}; no extrapolation, unconverged N={unconverged}"
    else:
        ns = [rung[0] for rung in rungs]
        rate = -p_ball.beta / p_ball.d - 1.0  # Riesz s/d - 1 with s = -beta
        e_inf, e_res = _extrapolate(ns, [rung[1] for rung in rungs], rate)
        r_inf, r_res = _extrapolate(ns, [rung[3] for rung in rungs], rate)
        e_gap = abs(e_inf - e_ball) / abs(e_ball)
        r_gap = abs(r_inf - r_ball) / r_ball
        e_res_rel = e_res / abs(e_ball)
        r_res_rel = r_res / r_ball
        ball_ok = (e_gap <= 0.02 and r_gap <= 0.03
                   and e_res_rel <= 0.005 and r_res_rel <= 0.005)
        ball_text = (f"{rung_text}; E_inf={e_inf:.6f} gap {e_gap:.2%} (bound 2%) "
                     f"R_inf={r_inf:.6f} gap {r_gap:.2%} (bound 3%) "
                     f"fit residual {e_res_rel:.1e}/{r_res_rel:.1e} (bound 5e-3)")

    elapsed = time.perf_counter() - t0
    ok = pair_ok and ring_ok and ball_ok and elapsed < 180.0
    line = _verdict(capsys, 8, ok,
                    f"pair |d-1|={abs(dist - 1.0):.1e} ok={pair_ok}; ring "
                    f"mean_rel={ring_mean_rel:.1e} spread={ring_spread:.1e} "
                    f"ok={ring_ok}; ball {ball_text} ok={ball_ok}; "
                    f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_9(tmp_path, capsys):
    """Command-line contract: exit codes, lossless JSON reports, and
    byte-identical reruns under a fixed seed."""
    t0 = time.perf_counter()
    failures = []

    rc = cli_main(["closed-form", "--d", "3", "--alpha", "2", "--beta", "1"])
    out = capsys.readouterr().out
    if rc != 0 or json.loads(out)["regime"] != "SphereTheorem1":
        failures.append(f"success path rc={rc}")

    rc = cli_main(["closed-form", "--d", "3", "--alpha", "3", "--beta", "0.1"])
    out = capsys.readouterr().out
    if rc != 2 or json.loads(out)["error"]["type"] != "RegimeError":
        failures.append(f"regime refusal rc={rc}")

    rc = cli_main(["verify-el", "--d", "3", "--alpha", "2", "--beta", "0.7",
                   "--force-sphere"])
    out = capsys.readouterr().out
    if rc != 3 or json.loads(out)["passed"] is not False:
        failures.append(f"failed-audit rc={rc}")

    rc = cli_main(["closed-form", "--d", "3", "--alpha", "2"])
    capsys.readouterr()
    if rc != 64:
        failures.append(f"usage rc={rc}")

    rc = cli_main(["verify-el", "--d", "3", "--alpha", "2", "--beta", "1.5"])
    payload = json.loads(capsys.readouterr().out)
    fields = {k: v for k, v in payload.items() if k not in ("schema", "report")}
    fresh = verify_euler_lagrange(KernelParams(3, 2.0, 1.5))
    if rc != 0 or ELReport(**fields) != fresh:
        failures.append("JSON round-trip drifted")

    sim = ["simulate", "--d", "2", "--alpha", "2", "--beta", "-1", "--n", "16",
           "--seed", "5", "--tol", "1e-12", "--max-iter", "40", "--allow-partial"]
    rc1 = cli_main(sim + ["--out", str(tmp_path / "r1")])
    rc2 = cli_main(sim + ["--out", str(tmp_path / "r2")])
    capsys.readouterr()
    same = all(
        (tmp_path / f"r1{suffix}").read_bytes() == (tmp_path / f"r2{suffix}").read_bytes()
        for suffix in ("_positions.csv", "_trace.csv")
    )
    if rc1 != 0 or rc2 != 0 or not same:
        failures.append(f"rerun not identical (rc {rc1}/{rc2})")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    line = _verdict(capsys, 9, ok,
                    f"{'exit codes, round-trip, reruns clean' if not failures else '; '.join(failures)}, "
                    f"{elapsed:.1f}s")
    assert ok, line


def test_particle_energy_bounds_the_closed_form_energy_from_above():
    """For alpha, beta > 0, W(0) = 0, so the excluded self-interaction is
    zero and the discrete energy E_N is exactly the energy of the
    admissible measure (1/N) sum delta_{x_i}: E_N >= E at every N and
    every configuration, with no extrapolation.  The descent shares no
    gamma function, 2F1 or potential with the closed form, so a closed
    form that reads too high shows as E_N < E.  Held at the acceptance
    triples with beta > 0, N = 64, to within 1e-12 |E|."""
    failures = []
    for d, a, b in SPHERE_TRIPLES + BALL_TRIPLES:
        if not b > 0.0:
            continue
        params = KernelParams(d, a, b)
        system, _ = run_to_convergence(params, 64, seed=0, tol=1e-6)
        e_n, e = discrete_energy(system), energy(params)
        if not e_n >= e - 1e-12 * abs(e):
            failures.append(((d, a, b), e_n, e))
    assert failures == []
