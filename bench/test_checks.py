"""Tests of the benchmark itself: each check passes the package's real
output and rejects a perturbed copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import aggremin as ag  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPHERE = dict(d=3, alpha=3.0, beta=0.8, log=False, kind="regime")
BALL = dict(d=2, alpha=2.0, beta=-1.0, log=False, kind="regime")
LOG_SPHERE = dict(d=4, alpha=3.0, beta=0.0, log=True, kind="regime")
FORCED = dict(d=3, alpha=3.0, beta=0.5, log=False, kind="forced")


def certify_out(point):
    return ops.certify_ops(ag, [point])[0].run()


@pytest.mark.parametrize("point", [SPHERE, BALL, LOG_SPHERE, FORCED])
def test_certify_accepts_the_package_output(point):
    assert checks.check_certify(point, certify_out(point)) == []


@pytest.mark.parametrize("point", [SPHERE, BALL, LOG_SPHERE])
def test_certify_rejects_energy_times_1_01(point):
    out = certify_out(point)
    out["E"] *= 1.01
    assert checks.check_certify(point, out)


@pytest.mark.parametrize("point", [SPHERE, BALL])
def test_certify_rejects_eta_off_the_quadrature(point):
    out = certify_out(point)
    out["eta"] *= 1.01
    out["E"] *= 1.01
    assert any("quadrature" in p for p in checks.check_certify(point, out))


def test_certify_rejects_a_sphere_radius_that_is_not_the_minimizing_scale():
    out = certify_out(SPHERE)
    out["R"] *= 1.01
    assert any("minimizing scale" in p for p in checks.check_certify(SPHERE, out))


def test_certify_rejects_failed_reports_and_a_passing_forced_sphere():
    out = certify_out(SPHERE)
    assert checks.check_certify(SPHERE, dict(out, el_passed=False))
    assert checks.check_certify(SPHERE, dict(out, conv_passed=False))
    forced = certify_out(FORCED)
    assert checks.check_certify(FORCED, dict(forced, el_passed=True, el_margin=1e-3))


def converged(case):
    """A descent op, its case as the checks see it, and one real output."""
    op = ops.descent_ops(ag, [case])[0]
    return op, ops.descent_case(ag, case), op.run()


@pytest.fixture(scope="module")
def ring():
    return converged(dict(inputs.SIMULATE, n=32, seed=5))


@pytest.fixture(scope="module")
def ball():
    return converged(dict(inputs.BALL, seed=3))


def test_descent_accepts_the_package_output(ring, ball):
    for op, _, out in (ring, ball):
        assert op.check(out) == []


def test_descent_rejects_energy_times_1_01(ring, ball):
    for op, _, out in (ring, ball):
        trace = out["energy_trace"][:-1] + (out["energy_trace"][-1] * 1.01,)
        assert op.check(dict(out, energy_trace=trace))


def test_descent_rejects_a_force_above_tol(ring):
    op, _, out = ring
    positions = out["positions"].copy()
    positions[0] *= 1.0 + 1e-3
    assert any("above tol" in p for p in op.check(dict(out, positions=positions)))


def test_descent_rejects_a_rising_trace(ring):
    op, _, out = ring
    trace = list(out["energy_trace"])
    trace[1] = trace[0] + 1.0
    assert any("rises" in p for p in op.check(dict(out, energy_trace=tuple(trace))))


def test_descent_rejects_a_ring_off_the_sphere_and_a_ball_energy_off_its_band(ring, ball):
    _, case, out = ring
    assert checks.check_descent(dict(case, R=case["R"] * 1.01), out)
    _, case, out = ball
    assert any("outside" in p for p in checks.check_descent(dict(case, E=case["E"] + 0.05), out))


def cli_round(kinds):
    seq = [inv for inv in inputs.cli_sequence(0) if inv["kind"] in kinds]
    out_dir = BENCH.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    return ops.cli_ops(ag, seq, BENCH.parent, out_dir), seq


def test_cli_accepts_the_package_output_except_the_known_fault():
    cli_ops, seq = cli_round({"closed-form", "refused", "verify-el-forced", "phase-scan-zero"})
    for op, inv in zip(cli_ops, seq):
        problems = op.check(op.run())
        assert bool(problems) == inv.get("known_fault", False), (inv["kind"], problems)


def test_cli_rejects_a_wrong_exit_code():
    cli_ops, _ = cli_round({"refused"})
    out = cli_ops[0].run()
    assert out["returncode"] == 2
    assert any("exit code" in p for p in cli_ops[0].check(dict(out, returncode=0)))


def test_phase_scan_zero_row():
    inv = next(i for i in inputs.cli_sequence(0) if i["kind"] == "phase-scan-zero")
    log_e = checks.ref.log_ball_energy(3)
    header = "alpha,beta,regime,beta_star,R,E\n"
    row = "2.0,1.1102230246251565e-16,BallTheorem2,1.0,0.816496580927726,{}\n"
    good = dict(inv, n_rows=1)
    assert checks.check_cli(good, dict(returncode=0, stdout=header + row.format(repr(log_e)))) == []
    assert checks.check_cli(good, dict(returncode=0, stdout=header + row.format("-4.5e15")))
    refused = '{"schema": "aggremin/1", "error": {"type": "IllConditioned", "reason": "x"}}'
    assert checks.check_cli(good, dict(returncode=2, stdout=refused)) == []
    assert checks.check_cli(good, dict(returncode=1, stdout=""))


def test_hyp2f1_branch_rules():
    assert tracing.BRANCHES[tracing.hyp2f1_branch(-2.0, 0.3, 1.5, 0.9)] == "terminating"
    assert tracing.BRANCHES[tracing.hyp2f1_branch(-0.4, 0.3, 1.5, 0.75)] == "direct"
    assert tracing.BRANCHES[tracing.hyp2f1_branch(-1.5, -1.5, 1.0, 0.9)] == "fallback"
    assert tracing.BRANCHES[tracing.hyp2f1_branch(-0.4, -0.9, 1.5, 0.9)] == "connection"


def test_backtracks_are_read_from_the_step_sizes():
    h0 = 0.5
    h1 = h0 / 4  # two halvings
    h2 = h1 * 1.1  # none
    h3 = h2 * 1.1 / 8  # three
    assert run.backtracks((h0, h1, h2, h3)) == 5


def test_tracer_reports_a_missing_name_as_absent_and_self_times_add_up():
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + [("aggremin", "no_such_function", "closed_form.gone")])
    try:
        ag.eta(ops.kernel(ag, SPHERE))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["aggremin.no_such_function"]
    spans = tracer.spans()
    roots = spans.parent < 0
    assert math.isclose(spans.self_time.sum(), spans.duration[roots].sum(), rel_tol=1e-9)
    assert spans.select("potentials.total_potential").any()
    assert ag.eta is not None and not hasattr(ag.eta, "__wrapped__")


def test_reference_quadrature_matches_the_closed_forms_it_checks():
    point = dict(SPHERE)
    p = ops.kernel(ag, point)
    e = checks.continuum_energy(point, "SphereTheorem1", ag.radius(p))
    assert math.isclose(e, ag.energy(p), rel_tol=1e-12)
    assert np.isclose(checks.ref.log_ball_energy(3), 0.322940, atol=1e-6)
