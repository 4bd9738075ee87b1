"""Command-line interface checks: payload contents, artifact files,
and the exit-code contract (0 success, 2 rejected parameters,
3 honest negative results, 64 usage mistakes).

Everything runs in process through ``main`` so stdout and stderr can
be captured per call; one test shells out to confirm the installed
entry points actually resolve.
"""

import importlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from aggremin import (
    ELReport,
    KernelParams,
    beta_star,
    classify,
    errors,
    flow,
    psi_capital_dd_at_one,
    radius,
    verify_euler_lagrange,
)
from aggremin import cli
from aggremin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _strict_json(text):
    """Parse a payload or stats file; NaN and Infinity fail the test."""
    return json.loads(text, parse_constant=_reject_constant)


def _run(argv, capsys):
    """Invoke the CLI in process and capture both output streams."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_closed_form_sphere_payload(capsys):
    """The sphere-regime report carries the exact rational answers."""
    rc, out, _ = _run(["closed-form", "--d", "3", "--alpha", "2", "--beta", "1"], capsys)
    assert rc == 0
    payload = _strict_json(out)
    assert list(payload) == [
        "schema", "regime", "detail", "d", "alpha", "beta", "alpha_is_log",
        "beta_is_log", "beta_star", "R", "E", "eta", "density_description",
    ]
    assert payload["schema"] == "aggremin/1"
    assert payload["regime"] == "SphereTheorem1"
    assert payload["d"] == 3
    assert payload["alpha"] == 2.0
    assert payload["beta"] == 1.0
    assert payload["alpha_is_log"] is False
    assert payload["beta_is_log"] is False
    assert payload["beta_star"] == 1.0
    assert payload["R"] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert payload["E"] == pytest.approx(-2.0 / 9.0, rel=1e-14)
    assert payload["eta"] == 2.0 * payload["E"]
    assert "sphere of radius" in payload["density_description"]


def test_closed_form_log_ball_payload(capsys):
    """Logarithmic attraction at alpha = 2 lands in the ball regime."""
    rc, out, _ = _run(["closed-form", "--d", "2", "--alpha", "2", "--log-beta"], capsys)
    assert rc == 0
    payload = _strict_json(out)
    assert payload["regime"] == "BallTheorem2"
    assert payload["beta"] == 0.0
    assert payload["beta_is_log"] is True
    assert payload["beta_star"] == 2.0
    assert payload["R"] == 1.0
    assert payload["E"] == 0.375
    assert "ball of radius 1.0" in payload["density_description"]


def test_closed_form_in_one_dimension_has_no_beta_star(capsys):
    """beta_star exists only from d = 2; a d = 1 ball point writes null."""
    rc, out, _ = _run(["closed-form", "--d", "1", "--alpha", "2", "--beta", "0.5"], capsys)
    assert rc == 0
    payload = _strict_json(out)
    assert payload["regime"] == "BallTheorem2"
    assert payload["beta_star"] is None


def test_closed_form_out_file(tmp_path, capsys):
    """--out redirects the report to a file and leaves stdout quiet."""
    target = tmp_path / "report.json"
    rc, out, _ = _run(
        ["closed-form", "--d", "3", "--alpha", "2", "--beta", "1", "--out", str(target)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    payload = _strict_json(target.read_text())
    assert payload["R"] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_closed_form_in_a_large_dimension(capsys):
    """At d = 400 the Gamma products of the sphere overflow, but its
    closed forms are Gamma quotients: R, E and eta are finite, exit 0."""
    rc, out, err = _run(["closed-form", "--d", "400", "--alpha", "3", "--beta", "1.9"], capsys)
    assert rc == 0
    assert err == ""
    payload = _strict_json(out)
    assert 0 < payload["R"] < 1
    assert payload["eta"] == 2.0 * payload["E"] < 0


@pytest.mark.parametrize("d", [400, 1000])
def test_verify_el_in_a_large_dimension_passes(d, capsys):
    """At d = 400 and 1000 the audit's profile has c - a - b far above
    the connection route's limit, where scipy's 2F1 reads inf next to
    z = 0.9; the Gauss series takes those nodes, and the sphere passes
    with its exterior margin at rounding level: exit 0."""
    rc, out, err = _run(["verify-el", "--d", str(d), "--alpha", "3", "--beta", "1.9"], capsys)
    assert rc == 0
    assert err == ""
    payload = _strict_json(out)
    assert payload["passed"] is True
    assert payload["exterior_min_margin"] >= -1e-14 * max(1.0, abs(payload["eta"]))


def test_closed_form_past_d_340_matches_mpmath(capsys):
    """At d = 341 the Gamma factors of the ball's R, K and C_beta
    overflow, and every ratio of them is a Gamma quotient: R and E are
    within 1e-14 relative of 40-digit mpmath, and eta, held to the
    potential at the center, is 2E."""
    rc, out, err = _run(["closed-form", "--d", "341", "--alpha", "2", "--beta", "-339.5"], capsys)
    assert rc == 0
    assert err == ""
    payload = _strict_json(out)
    with mpmath.workdps(40):
        b, g = mpmath.mpf(-339.5), mpmath.gamma
        r = (g((4 - b) / 2) * g((b + 341) / 2) / g(1 + mpmath.mpf(341) / 2)) ** (1 / (2 - b))
        want_r, want_e = float(r), float(-341 * (2 - b) / (2 * b * (4 - b)) * r * r)
    assert abs(payload["R"] - want_r) <= 1e-14 * want_r
    assert abs(payload["E"] - want_e) <= 1e-14 * abs(want_e)
    assert payload["eta"] == 2.0 * payload["E"]


def test_verify_el_past_d_340_is_a_nonconvergence(capsys):
    """The ball's audit at d = 341 still refuses: on the outer branch
    the connection route's scale Gamma(c) overflows, and its series in w
    would not settle at c - b of about 171.5, so the ufunc reads inf.
    One typed refusal, exit 3."""
    rc, out, err = _run(["verify-el", "--d", "341", "--alpha", "2", "--beta", "-339.5"], capsys)
    assert rc == 3
    assert err == ""
    assert _strict_json(out)["error"] == {
        "type": "NonConvergence",
        "reason": "hyp2f1(169.75, 0.25; 171.75; 0.9999999995978686) is not finite",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--d", "3", "--alpha", "2", "--beta", "1"],
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "16",
         "--max-iter", "3", "--allow-partial"],
    ],
)
def test_unwritable_out_path_exits_64(argv, tmp_path, capsys):
    """An --out path in a missing directory is one error line, not a traceback."""
    target = tmp_path / "missing" / "x"
    rc, out, err = _run(argv + ["--out", str(target)], capsys)
    assert rc == 64
    assert out == ""
    assert err.startswith("aggremin: error: cannot write ")
    assert str(target) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_simulate_checks_the_prefix_before_descending(tmp_path, capsys, monkeypatch):
    """An unwritable prefix exits 64 before any descent is run."""

    def no_descent(*args, **kwargs):
        raise AssertionError("descent ran before the prefix was checked")

    monkeypatch.setattr(flow, "run_to_convergence", no_descent)
    target = tmp_path / "missing" / "x"
    rc, out, err = _run(
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "16",
         "--out", str(target)],
        capsys,
    )
    assert rc == 64
    assert out == ""
    assert err.startswith("aggremin: error: cannot write ")


def test_closed_form_out_of_scope_exits_2(capsys):
    """Parameters outside both regimes produce a structured refusal."""
    rc, out, _ = _run(["closed-form", "--d", "3", "--alpha", "3", "--beta", "0.1"], capsys)
    assert rc == 2
    payload = _strict_json(out)
    assert payload["schema"] == "aggremin/1"
    assert payload["error"]["type"] == "RegimeError"
    assert payload["error"]["reason"] == classify(KernelParams(3, 3.0, 0.1)).detail


def test_closed_form_domain_error_exits_2(capsys):
    """Integrability violations surface as DomainError, not a traceback."""
    rc, out, _ = _run(["closed-form", "--d", "3", "--alpha", "2", "--beta", "-7"], capsys)
    assert rc == 2
    payload = _strict_json(out)
    assert payload["error"]["type"] == "DomainError"
    assert "beta" in payload["error"]["reason"]


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--d", "3", "--alpha", "2"],
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "8", "--out", "x"],
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "32", "--tol", "-1", "--out", "x"],
        ["nope"],
        [],
        ["phase-scan", "--d", "3", "--beta-min", "1.0", "--beta-max", "0.5"],
        ["phase-scan", "--d", "3", "--beta-min", "-1.0", "--alpha-min", "1.5"],
        ["phase-scan", "--d", "3", "--beta-min", "-3.0"],
        ["phase-scan", "--d", "3", "--beta-min", "-1.0", "--alpha-steps", "0"],
        ["phase-scan", "--d", "3", "--beta-min", "-1.0", "--alpha-min", "nan"],
        ["phase-scan", "--d", "3", "--beta-min", "-1.0", "--alpha-max", "nan"],
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "16", "--seed", "-1", "--out", "x"],
        ["verify-el", "--d", "3", "--alpha", "2", "--beta", "1.5", "--rho-max", "8"],
        ["verify-el", "--d", "3", "--alpha", "2", "--beta", "1.5", "--grid", "300"],
        ["convexity", "--d", "3", "--alpha", "2", "--beta", "1.5", "--grid", "400"],
        ["convexity", "--d", "3", "--alpha", "2", "--beta", "1.5", "--rho-max", "8"],
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "16", "--max-iter", "0", "--out", "x"],
        ["closed-form", "--d", "3", "--alpha", "2", "--beta", "1.5", "--log-alpha"],
        ["convexity", "--d", "3", "--alpha", "2", "--beta", "1.5", "--log-alpha"],
    ],
)
def test_usage_mistakes_exit_64(argv, capsys):
    """Malformed invocations exit 64 with a message on stderr."""
    rc, out, err = _run(argv, capsys)
    assert rc == 64
    assert "error:" in err


def test_missing_beta_message_names_the_flag(capsys):
    rc, _, err = _run(["closed-form", "--d", "3", "--alpha", "2"], capsys)
    assert rc == 64
    assert "--beta is required (or pass --log-beta)" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closed-form", "--d", "3", "--beta", "1"],
         "--alpha is required (or, for simulate, --log-alpha)"),
        (["simulate", "--d", "2", "--beta", "1.75", "--n", "16", "--out", "x"],
         "--alpha is required (or, for simulate, --log-alpha)"),
        (["verify-el", "--d", "3", "--alpha", "2", "--beta", "1.5", "--log-alpha"],
         "unrecognized arguments: --log-alpha"),
    ],
)
def test_alpha_flags_messages(argv, message, capsys):
    """--alpha is required, except on simulate, whose --log-alpha stands
    in for it; the other commands do not know --log-alpha."""
    rc, out, err = _run(argv, capsys)
    assert rc == 64
    assert out == ""
    assert message in err


def test_verify_el_payload_rebuilds_the_report(capsys):
    """The JSON payload loses nothing: rebuilding it reproduces the
    report object field for field, floats included."""
    rc, out, _ = _run(["verify-el", "--d", "3", "--alpha", "2", "--beta", "1.5"], capsys)
    assert rc == 0
    payload = _strict_json(out)
    assert list(payload) == [
        "schema", "report", "eta", "support_max_abs_dev", "rho_worst_support",
        "exterior_min_margin", "rho_worst_exterior", "passed", "tol",
    ]
    assert payload["schema"] == "aggremin/1"
    assert payload["report"] == "euler-lagrange"
    assert payload["passed"] is True
    fields = {k: v for k, v in payload.items() if k not in ("schema", "report")}
    rebuilt = ELReport(**fields)
    fresh = verify_euler_lagrange(KernelParams(3, 2.0, 1.5))
    assert rebuilt == fresh


def test_verify_el_forced_sphere_exits_3(capsys):
    """Forcing the sphere candidate below beta_star reports the dip."""
    rc, out, _ = _run(
        ["verify-el", "--d", "3", "--alpha", "2", "--beta", "0.7", "--force-sphere"],
        capsys,
    )
    assert rc == 3
    payload = _strict_json(out)
    assert payload["passed"] is False
    assert payload["exterior_min_margin"] < -1e-3


@pytest.mark.parametrize(
    "d, alpha, delta",
    [(2, 3.0, 1e-2), (2, 3.0, 3e-3), (2, 3.0, 1e-3), (3, 3.0, 3e-3), (3, 3.0, 1e-3),
     (4, 2.5, 3e-3), (4, 2.5, 1e-3)],
)
def test_forced_sphere_fails_on_a_negative_seam_curvature(d, alpha, delta, capsys):
    """Just below beta_star the exterior dip is shallower than tol
    (-4.3e-10 at (2, 3, 1.49)), but Psi''(1) < 0 proves the sphere is no
    minimizer, so the forced audit fails and the command exits 3."""
    beta = beta_star(d, alpha) - delta
    params = KernelParams(d, alpha, beta)
    assert psi_capital_dd_at_one(params) < 0
    assert verify_euler_lagrange(params, force_sphere=True).passed is False
    argv = ["verify-el", "--force-sphere", "--d", str(d), "--alpha", repr(alpha),
            "--beta", repr(beta)]
    rc, out, _ = _run(argv, capsys)
    assert rc == 3
    assert _strict_json(out)["passed"] is False


def test_audit_payloads_hold_only_small_scalars(capsys):
    """The audit reports say where their worst figure sits, not the
    whole grid: every value is a scalar and each payload is under 1 KB."""
    runs = {
        "plain": ["verify-el", "--d", "3", "--alpha", "2", "--beta", "1.5"],
        "forced": ["verify-el", "--d", "3", "--alpha", "2", "--beta", "0.7",
                   "--force-sphere"],
        "convexity": ["convexity", "--d", "3", "--alpha", "2", "--beta", "1.5"],
    }
    payloads = {}
    for name, argv in runs.items():
        _, out, _ = _run(argv, capsys)
        assert len(out.encode()) < 1024, name
        payloads[name] = _strict_json(out)
        for key, value in payloads[name].items():
            assert isinstance(value, (str, bool, int, float)), (name, key)
    # Below the critical curve the forced sphere's deepest dip is the centre.
    assert payloads["forced"]["rho_worst_exterior"] == 0.0


def test_convexity_exit_codes(capsys):
    rc, out, _ = _run(["convexity", "--d", "3", "--alpha", "2", "--beta", "1.5"], capsys)
    assert rc == 0
    payload = _strict_json(out)
    assert list(payload) == [
        "schema", "report", "min_second_difference", "rho_min_second_difference",
        "psi_dd_at_one", "passed", "tol",
    ]
    assert payload["report"] == "convexity"
    assert payload["passed"] is True

    rc, out, _ = _run(["convexity", "--d", "3", "--alpha", "2", "--beta", "0.5"], capsys)
    assert rc == 3
    assert _strict_json(out)["passed"] is False


@pytest.mark.parametrize(
    "exponent, rc_want",
    [(["--beta", "0.9"], 3), (["--log-beta"], 0)],
)
def test_convexity_without_curvature_is_valid_json(exponent, rc_want, capsys):
    """In d + beta <= 3 there is no Psi''(1); the report says null, not NaN."""
    rc, out, _ = _run(["convexity", "--d", "2", "--alpha", "2"] + exponent, capsys)
    assert rc == rc_want
    payload = _strict_json(out)
    assert payload["psi_dd_at_one"] is None


def test_simulate_writes_artifacts(tmp_path, capsys, monkeypatch):
    """A converging run leaves positions, trace, and stats behind, and
    the stats agree with the closed-form prediction; the run makes
    exactly the kernel passes it counts, none after the descent."""
    calls = []
    kernel = flow._energy_and_forces

    def counted(params, x):
        calls.append(x.shape)
        return kernel(params, x)

    monkeypatch.setattr(flow, "_energy_and_forces", counted)
    prefix = tmp_path / "sim"
    rc, _, _ = _run(
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75",
         "--n", "32", "--seed", "4", "--tol", "1e-4", "--out", str(prefix)],
        capsys,
    )
    assert rc == 0

    pos_lines = (tmp_path / "sim_positions.csv").read_text().splitlines()
    assert pos_lines[0] == "x0,x1"
    assert len(pos_lines) == 1 + 32
    for line in pos_lines[1:]:
        cells = line.split(",")
        assert len(cells) == 2
        assert all(math.isfinite(float(c)) for c in cells)

    trace_lines = (tmp_path / "sim_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,energy,step_size"
    energies = [float(line.split(",")[1]) for line in trace_lines[1:]]
    assert trace_lines[1].startswith("0,")
    assert all(b <= a for a, b in zip(energies, energies[1:]))

    stats = _strict_json((tmp_path / "sim_stats.json").read_text())
    assert list(stats) == [
        "schema", "d", "alpha", "beta", "alpha_is_log", "beta_is_log",
        "n_particles", "seed", "tol", "max_iter", "converged", "iterations",
        "energy_evals", "backtracks", "final_energy", "final_max_force",
        "mean_radius", "std_radius", "max_radius", "center",
        "regime", "R", "E", "radius_rel_err", "energy_rel_err",
    ]
    assert stats["schema"] == "aggremin/1"
    assert stats["converged"] is True
    assert stats["final_max_force"] <= 1e-4
    assert len(trace_lines) - 1 == stats["iterations"] + 1
    assert stats["energy_evals"] == stats["iterations"] + 1 + stats["backtracks"]
    assert len(calls) == stats["energy_evals"]
    assert stats["regime"] == "SphereTheorem1"
    assert stats["R"] == radius(KernelParams(2, 3.0, 1.75))
    assert stats["radius_rel_err"] == pytest.approx(
        abs(stats["mean_radius"] - stats["R"]) / stats["R"], rel=1e-12
    )
    assert stats["radius_rel_err"] < 1e-3
    assert stats["energy_rel_err"] < 1e-3


def test_simulate_tol_defaults_to_the_driver_tol(tmp_path, capsys):
    """Without --tol, simulate stops at the driver's default force
    tolerance, 1e-6, and records it in the stats."""
    rc, _, _ = _run(
        ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "32",
         "--seed", "4", "--out", str(tmp_path / "sim")],
        capsys,
    )
    assert rc == 0
    stats = _strict_json((tmp_path / "sim_stats.json").read_text())
    assert stats["tol"] == 1e-6
    assert stats["converged"] is True
    assert stats["final_max_force"] <= 1e-6


def test_simulate_takes_a_log_attraction(tmp_path, capsys):
    """--log-alpha selects ln r for the attraction; no closed form
    covers it, so the stats carry no prediction."""
    rc, _, _ = _run(
        ["simulate", "--d", "2", "--log-alpha", "--beta", "-1", "--n", "16",
         "--max-iter", "20", "--allow-partial", "--out", str(tmp_path / "log")],
        capsys,
    )
    assert rc == 0
    stats = _strict_json((tmp_path / "log_stats.json").read_text())
    assert stats["alpha"] == 0.0
    assert stats["alpha_is_log"] is True
    assert stats["regime"] == "OutOfScope"
    assert "R" not in stats


def test_simulate_runs_where_the_closed_form_refuses_beta(tmp_path, capsys):
    """A power-law beta within 1e-6 of 0 has no closed form (R, E and
    the audits raise IllConditioned), but the descent needs none: exit
    0, all three artifacts, and stats without a prediction."""
    rc, _, _ = _run(
        ["simulate", "--d", "2", "--alpha", "2", "--beta", "1e-7", "--n", "32",
         "--seed", "0", "--out", str(tmp_path / "near")],
        capsys,
    )
    assert rc == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["near_positions.csv", "near_stats.json", "near_trace.csv"]
    stats = _strict_json((tmp_path / "near_stats.json").read_text())
    assert stats["converged"] is True
    assert stats["regime"] == "BallTheorem2"
    assert not {"R", "E", "radius_rel_err", "energy_rel_err"} & set(stats)


def test_simulate_seed_reproducibility(tmp_path, capsys):
    """Identical seeds write byte-identical artifacts, even for a run
    that stops at the iteration cap."""
    argv = ["simulate", "--d", "2", "--alpha", "2", "--beta", "-1",
            "--n", "32", "--seed", "9", "--tol", "1e-12", "--max-iter", "120",
            "--allow-partial"]
    rc1, _, _ = _run(argv + ["--out", str(tmp_path / "a")], capsys)
    rc2, _, _ = _run(argv + ["--out", str(tmp_path / "b")], capsys)
    assert rc1 == 0 and rc2 == 0

    for suffix in ("_positions.csv", "_trace.csv"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()

    stats = _strict_json((tmp_path / "a_stats.json").read_text())
    assert stats["converged"] is False
    assert stats["iterations"] == 120


@pytest.mark.parametrize(
    "alpha, reason",
    [
        ("3000", "the energy or a force is not finite at the start (energy inf)"),
        ("inf", "alpha must be finite, got inf"),
    ],
)
def test_simulate_refuses_a_kernel_that_is_not_finite(alpha, reason, tmp_path, capsys):
    """r^3000 overflows on the starting cloud, and alpha = inf is no
    kernel: one JSON refusal, exit 2, even with --allow-partial, and no
    artifact with a NaN in it."""
    rc, out, err = _run(
        ["simulate", "--d", "2", "--alpha", alpha, "--beta", "1", "--n", "16",
         "--max-iter", "5", "--allow-partial", "--out", str(tmp_path / "big")],
        capsys,
    )
    assert rc == 2
    assert err == ""
    assert _strict_json(out)["error"] == {"type": "DomainError", "reason": reason}
    assert list(tmp_path.iterdir()) == []


def test_simulate_unconverged_exits_3_without_flag(tmp_path, capsys):
    """Without --allow-partial the iteration cap is a hard failure: no
    artifact file appears, and one that was there is left as it was."""
    kept = tmp_path / "hard_trace.csv"
    kept.write_text("earlier run\n")
    rc, out, _ = _run(
        ["simulate", "--d", "2", "--alpha", "2", "--beta", "-1",
         "--n", "32", "--seed", "9", "--tol", "1e-12", "--max-iter", "120",
         "--out", str(tmp_path / "hard")],
        capsys,
    )
    assert rc == 3
    payload = _strict_json(out)
    assert payload["error"]["type"] == "NonConvergence"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard_trace.csv"]
    assert kept.read_text() == "earlier run\n"


def test_phase_scan_csv_grid(capsys):
    """A 5 x 9 scan in d = 3: full row count, labeled junction, empty
    cells where no closed form applies."""
    rc, out, _ = _run(
        ["phase-scan", "--d", "3", "--beta-min", "-2.5", "--beta-max", "1.5",
         "--beta-steps", "9", "--alpha-steps", "5"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,regime,beta_star,R,E"
    assert len(lines) == 1 + 45

    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[(cells[0], cells[1])] = cells

    junction = rows[("2.0", "1.0")]
    assert junction[2] == "Boundary/Sphere"
    assert float(junction[5]) == pytest.approx(-2.0 / 9.0, rel=1e-14)

    log_row = rows[("2.0", "0.0")]
    assert log_row[2] == "BallTheorem2"
    assert float(log_row[4]) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)

    out_of_scope = rows[("3.0", "-2.5")]
    assert out_of_scope[2] == "OutOfScope"
    assert out_of_scope[4] == "" and out_of_scope[5] == ""


def test_phase_scan_grid_zero_is_the_log_kernel(capsys):
    """linspace(-0.7, 2, 28) passes 0 as 1.1e-16; that row is the
    logarithmic kernel (E = 0.322940 in d = 3), not the -1/(2 beta)
    divergence."""
    rc, out, _ = _run(
        ["phase-scan", "--d", "3", "--alpha-min", "2", "--alpha-max", "2",
         "--alpha-steps", "1", "--beta-min", "-0.7", "--beta-max", "2",
         "--beta-steps", "28"],
        capsys,
    )
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    near_zero = [row for row in rows if abs(float(row[1])) < 0.05]
    assert len(near_zero) == 1
    zero = near_zero[0]
    assert zero[1] == "0.0" and zero[2] == "BallTheorem2"
    assert float(zero[5]) == pytest.approx(0.3229398673070137, rel=1e-12)
    assert all(abs(float(row[5])) < 100.0 for row in rows if row[5])


def test_phase_scan_skips_beta_at_or_above_alpha(capsys):
    """Grid points with beta >= alpha are dropped, not reported."""
    rc, out, _ = _run(
        ["phase-scan", "--d", "2", "--beta-min", "1.5", "--beta-steps", "2",
         "--alpha-steps", "3"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    pairs = {(c[0], c[1]) for c in (line.split(",") for line in lines[1:])}
    assert pairs == {
        ("2.0", "1.5"), ("3.0", "1.5"), ("3.0", "2.0"), ("4.0", "1.5"), ("4.0", "2.0"),
    }
    corner = [line for line in lines[1:] if line.startswith("4.0,2.0,")]
    assert corner[0].split(",")[2] == "Boundary"


def test_phase_scan_json_payload(capsys):
    rc, out, _ = _run(
        ["phase-scan", "--d", "3", "--beta-min", "-2.5", "--beta-max", "1.5",
         "--beta-steps", "9", "--alpha-steps", "5", "--format", "json"],
        capsys,
    )
    assert rc == 0
    payload = _strict_json(out)
    assert payload["schema"] == "aggremin/1"
    assert payload["d"] == 3
    assert len(payload["rows"]) == 45
    for row in payload["rows"]:
        assert set(row) == {"alpha", "beta", "regime", "beta_star", "R", "E"}
        if row["regime"] == "OutOfScope":
            assert row["R"] is None and row["E"] is None
        else:
            assert math.isfinite(row["R"]) and math.isfinite(row["E"])


def test_phase_scan_out_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    rc, out, _ = _run(
        ["phase-scan", "--d", "2", "--beta-min", "1.5", "--beta-steps", "2",
         "--alpha-steps", "3", "--out", str(target)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "alpha,beta,regime,beta_star,R,E"


def test_module_invocation_help():
    """python -m aggremin resolves and prints usage.  The child finds the
    package where this test imported it, so a checkout needs no install."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "aggremin", "--help"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


@pytest.mark.skipif(shutil.which("aggremin") is None, reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(["aggremin", "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_console_script_maps_to_main(capsys):
    """The console script named in pyproject.toml resolves to ``main``,
    checked without installing the package."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["aggremin"] == "aggremin.cli:main"
    module, _, attr = scripts["aggremin"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main
    assert entry(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


# Every error class of the package and the exit code its base class gives.
_EXIT_CODES = {
    "DomainError": 2, "PoleError": 2, "RegimeError": 2, "IllConditioned": 2,
    "NonConvergence": 3, "StallError": 3, "QuadratureFailure": 3,
}


def test_every_error_class_is_a_refusal_or_a_failure():
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.AggreminError)
    }
    classes.pop("AggreminError")
    assert set(classes) == set(_EXIT_CODES)
    for cls in classes.values():
        assert issubclass(cls, ValueError) != issubclass(cls, RuntimeError), cls


@pytest.mark.parametrize("name, rc_want", sorted(_EXIT_CODES.items()))
def test_exit_code_follows_the_error_base_class(name, rc_want, capsys, monkeypatch):
    """A refused input (a ValueError) exits 2 and a failed computation (a
    RuntimeError) exits 3, each with the JSON error payload."""

    def fail(args):
        raise getattr(errors, name)("made up")

    monkeypatch.setattr(cli, "cmd_closed_form", fail)
    rc, out, _ = _run(["closed-form", "--d", "3", "--alpha", "2", "--beta", "1"], capsys)
    assert rc == rc_want
    assert _strict_json(out)["error"] == {"type": name, "reason": "made up"}


def _readme_block(heading: str, language: str) -> str:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_commands_run(tmp_path, capsys):
    """Every ``aggremin`` line of the README's Command line block exits 0;
    ``simulate`` writes its artifacts under tmp_path."""
    block = _readme_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("aggremin ")]
    assert len(commands) == 5
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        rc, _, err = _run(argv, capsys)
        assert rc == 0, (argv, err)
    assert (tmp_path / "run_stats.json").exists()


def test_readme_library_use_runs(capsys):
    exec(_readme_block("Library use", "python"), {})
    assert capsys.readouterr().out.splitlines()[0] == "SphereTheorem1"
