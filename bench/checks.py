"""Checks of the package's outputs against the computations in reference.py.

Each check takes plain data (the operation's inputs and the result the
benchmark recorded) and returns a list of problems; an empty list means
the output is correct.  They never compare against a stored copy of an
earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

SCHEMA = "aggremin/1"
SPHERE_TAGS = ("SphereTheorem1", "Boundary")
# The audit's own tolerance (verify.verify_euler_lagrange): 1e-9 max(1, |eta|).
ETA_RTOL = 1e-9
# A sphere's radius minimizes the energy among dilations: E(R(1 +- 1e-3)) > E(R).
SCALE_STEP = 1e-3
# Rounding slack on the force tolerance and on the energy of the same
# positions summed in another order.
FORCE_SLACK = 1e-9
ENERGY_RTOL = 1e-10
# Sphere regime: Theorem 1 puts all the mass on the sphere.
RING_RADIUS_RTOL = 1e-3
RING_SPREAD_RTOL = 1e-3
RING_ENERGY_RTOL = 1e-4
# Ball regime: the excluded self-interaction leaves E_N below E by the
# Riesz next-order term, (E_N - E) sqrt(N) -> about -0.87 for d = 2,
# beta = -1 (-0.8955 measured at N = 100, -0.89 at N = 200).
BALL_SLOPE_BAND = (-0.95, -0.80)
# A phase-scan grid value this close to 0 is the user's beta = 0: the log kernel.
ZERO_BETA = 1e-9


def _close(value, expected, rtol=ETA_RTOL) -> bool:
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


def continuum_energy(point: dict, regime: str, r: float) -> float:
    """Energy of the point's closed-form candidate at radius r, by quadrature."""
    d, a, b, log = point["d"], point["alpha"], point["beta"], point["log"]
    if regime == "BallTheorem2":
        return 0.5 * ref.ball_centre_potential(d, a, b, log, r)
    return ref.sphere_energy(d, a, b, log, r)


def check_closed_form(point: dict, out: dict) -> list:
    """R, E and eta of a point inside a theorem's range."""
    problems = []
    regime = out["regime"]
    if regime not in SPHERE_TAGS + ("BallTheorem2",):
        return [f"regime {regime!r} for a point inside a theorem's range"]
    if not _close(out["eta"], 2.0 * out["E"]):
        problems.append(f"eta {out['eta']!r} != 2E = {2.0 * out['E']!r}")
    e_quad = continuum_energy(point, regime, out["R"])
    if not _close(out["eta"], 2.0 * e_quad):
        problems.append(f"eta {out['eta']!r} != quadrature {2.0 * e_quad!r}")
    if not _close(out["E"], e_quad):
        problems.append(f"E {out['E']!r} != quadrature {e_quad!r}")
    if regime in SPHERE_TAGS:
        for f in (1.0 - SCALE_STEP, 1.0 + SCALE_STEP):
            if not continuum_energy(point, regime, out["R"] * f) > e_quad:
                problems.append(f"R {out['R']!r} is not the minimizing scale (x{f})")
    return problems


def check_certify(point: dict, out: dict) -> list:
    """One certify operation: closed forms, audit and convexity of a point."""
    if point["kind"] == "forced":
        problems = []
        if out["el_passed"] or not out["el_margin"] < 0:
            problems.append(
                f"forced sphere below beta_star passed its audit (margin {out['el_margin']!r})"
            )
        if math.isfinite(out["psi_dd"]) and not out["psi_dd"] < 0:
            problems.append(f"Psi''(1) = {out['psi_dd']!r} >= 0 below beta_star")
        return problems
    problems = check_closed_form(point, out)
    if not out["el_passed"]:
        problems.append(f"audit failed (margin {out['el_margin']!r})")
    if out["regime"] in SPHERE_TAGS and not out["conv_passed"]:
        problems.append("convexity report failed in the sphere regime")
    return problems


def check_descent(case: dict, out: dict) -> list:
    """A converged particle state: own force and energy, and the continuum limit.

    ``case`` holds the kernel (d, alpha, beta, log), n, tol, regime and
    the package's R and E; ``out`` the positions and energy trace.
    """
    problems = []
    trace = np.asarray(out["energy_trace"], dtype=float)
    if np.any(np.diff(trace) > 0.0):
        problems.append("energy trace rises")
    x = np.asarray(out["positions"], dtype=float)
    e_own, forces = ref.pair_energy_and_force(case["alpha"], case["beta"], case["log"], x)
    f_max = float(np.max(np.sqrt(np.sum(forces * forces, axis=1))))
    if not f_max <= case["tol"] * (1.0 + FORCE_SLACK):
        problems.append(f"max force {f_max!r} above tol {case['tol']!r}")
    if not _close(trace[-1], e_own, ENERGY_RTOL):
        problems.append(f"last trace energy {trace[-1]!r} != pair sum {e_own!r}")
    r_ref, e_ref, n = case["R"], case["E"], x.shape[0]
    if case["regime"] in SPHERE_TAGS:
        radii = np.sqrt(np.sum((x - x.mean(axis=0)) ** 2, axis=1))
        if not abs(radii.mean() - r_ref) <= RING_RADIUS_RTOL * r_ref:
            problems.append(f"mean radius {radii.mean()!r} far from R = {r_ref!r}")
        if not radii.std() <= RING_SPREAD_RTOL * r_ref:
            problems.append(f"radial spread {radii.std()!r} too wide")
        if not abs(e_own - e_ref) <= RING_ENERGY_RTOL * abs(e_ref):
            problems.append(f"E_N {e_own!r} far from E = {e_ref!r}")
    else:
        if not e_own < e_ref:
            problems.append(f"E_N {e_own!r} not below E = {e_ref!r}")
        slope = (e_own - e_ref) * math.sqrt(n)
        lo, hi = BALL_SLOPE_BAND
        if not lo <= slope <= hi:
            problems.append(f"(E_N - E) sqrt(N) = {slope!r} outside [{lo}, {hi}]")
    return problems


def _json(stdout: str):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) and payload.get("schema") == SCHEMA else None


def check_cli(inv: dict, out: dict) -> list:
    """One CLI invocation: exit code, schema and values.

    ``inv`` is the invocation from inputs.cli_sequence; ``out`` has the
    exit code, stdout and, for simulate, the artifacts read back.
    """
    kind, rc = inv["kind"], out["returncode"]
    if kind == "phase-scan-zero":
        return check_phase_scan_zero(inv, out)
    if rc != inv["expect_rc"]:
        return [f"exit code {rc}, expected {inv['expect_rc']}"]
    if kind == "simulate":
        return check_simulate(inv, out)
    if kind == "phase-scan":
        return check_phase_rows(inv, out)
    payload = _json(out["stdout"])
    if payload is None:
        return ["stdout is not an aggremin/1 JSON object"]
    point = inv.get("point")
    if kind == "refused":
        return [] if "error" in payload else ["no error object for a refused point"]
    if kind == "closed-form":
        return check_closed_form(point, payload)
    if kind == "verify-el":
        problems = [] if payload["passed"] else ["audit failed"]
        e_quad = continuum_energy(point, inv["regime"], inv["R"])
        if not _close(payload["eta"], 2.0 * e_quad):
            problems.append(f"eta {payload['eta']!r} != quadrature {2.0 * e_quad!r}")
        return problems
    if kind == "verify-el-forced":
        ok = not payload["passed"] and payload["exterior_min_margin"] < 0
        return [] if ok else ["forced sphere below beta_star passed its audit"]
    if kind == "convexity":
        return [] if payload["passed"] else ["convexity report failed"]
    return [f"unknown invocation kind {kind!r}"]


def check_simulate(inv: dict, out: dict) -> list:
    stats = _json(out["stats"])
    if stats is None:
        return ["stats file is not an aggremin/1 JSON object"]
    problems = check_descent(inv["case"], {"positions": out["positions"],
                                           "energy_trace": out["energy_trace"]})
    if not _close(stats["final_energy"], out["energy_trace"][-1], 0.0):
        problems.append("final_energy differs from the trace file")
    return problems


def _row_energy_problem(d: int, row: dict):
    if row["R"] is None:
        return None
    log = abs(row["beta"]) <= ZERO_BETA
    point = dict(d=d, alpha=row["alpha"], beta=0.0 if log else row["beta"], log=log)
    regime = "BallTheorem2" if row["regime"] == "BallTheorem2" else "SphereTheorem1"
    e_quad = continuum_energy(point, regime, row["R"])
    if not _close(row["E"], e_quad):
        return f"row beta={row['beta']!r}: E {row['E']!r} != quadrature {e_quad!r}"
    return None


def parse_phase_csv(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "alpha,beta,regime,beta_star,R,E":
        raise ValueError("unexpected phase-scan header")
    rows = []
    for line in lines[1:]:
        a, b, regime, bs, r, e = line.split(",")
        rows.append(dict(alpha=float(a), beta=float(b), regime=regime,
                         beta_star=float(bs) if bs else None,
                         R=float(r) if r else None, E=float(e) if e else None))
    return rows


def check_phase_rows(inv: dict, out: dict) -> list:
    if inv["format"] == "json":
        payload = _json(out["stdout"])
        if payload is None:
            return ["stdout is not an aggremin/1 JSON object"]
        rows = payload["rows"]
    else:
        try:
            rows = parse_phase_csv(out["stdout"])
        except ValueError as exc:
            return [str(exc)]
    if len(rows) != inv["n_rows"]:
        return [f"{len(rows)} rows, expected {inv['n_rows']}"]
    return [p for p in (_row_energy_problem(inv["d"], row) for row in rows) if p]


def check_phase_scan_zero(inv: dict, out: dict) -> list:
    """The scan whose beta grid passes through 0: that row must carry the
    log-kernel energy, or the command must refuse the point with exit 2."""
    rc = out["returncode"]
    if rc == 2:
        return [] if _json(out["stdout"]) is not None else ["exit 2 without an error object"]
    if rc != 0:
        return [f"exit code {rc}, expected 0 or 2"]
    return check_phase_rows(inv, out)
