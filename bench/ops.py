"""The operations of each workload, reached only through aggremin's public
functions and the ``aggremin`` command.

An operation is run by ``Op.run``, which returns what the check needs,
and judged by ``Op.check``, which returns a list of problems.  Package
functions are looked up on the module at call time, so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    known_fault: bool = False


def kernel(ag, point: dict):
    return ag.KernelParams(point["d"], point["alpha"], point["beta"], beta_is_log=point["log"])


def certify_ops(ag, points: list) -> list:
    def make(point):
        def run():
            p = kernel(ag, point)
            if point["kind"] == "forced":
                el = ag.verify_euler_lagrange(p, force_sphere=True)
                conv = ag.convexity_report(p)
                return dict(el_passed=el.passed, el_margin=el.exterior_min_margin,
                            psi_dd=conv.psi_dd_at_one)
            out = dict(R=ag.radius(p), E=ag.energy(p), eta=ag.eta(p))
            el = ag.verify_euler_lagrange(p)
            out.update(regime=ag.classify(p).tag, el_passed=el.passed,
                       el_margin=el.exterior_min_margin)
            if out["regime"] in checks.SPHERE_TAGS:
                out["conv_passed"] = ag.convexity_report(p).passed
            return out

        label = f"{point['kind']} d={point['d']} a={point['alpha']:.4g} b={'log' if point['log'] else format(point['beta'], '.4g')}"
        return Op(label, run, lambda out: checks.check_certify(point, out))

    return [make(point) for point in points]


def descent_case(ag, case: dict) -> dict:
    """The case with the package's regime, R and E added, for the checks."""
    p = kernel(ag, case)
    return dict(case, regime=ag.classify(p).tag, R=ag.radius(p), E=ag.energy(p))


def descent_ops(ag, cases: list) -> list:
    def make(case):
        case = descent_case(ag, case)

        def run():
            state, _ = ag.run_to_convergence(kernel(ag, case), case["n"], case["seed"],
                                             tol=case["tol"], max_iter=case["max_iter"])
            return dict(positions=state.positions, energy_trace=state.energy_trace,
                        step_trace=state.step_trace, iterations=state.iteration)

        return Op(f"descent N={case['n']} seed={case['seed']}", run,
                  lambda out: checks.check_descent(case, out))

    return [make(case) for case in cases]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, cwd: Path, env: dict, out_dir: Path) -> dict:
    """Run one child process to its end; return its exit code, stdout and
    peak resident memory (KiB, from wait4)."""
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return dict(returncode=proc.returncode, stdout=out_path.read_text(),
                stderr=err_path.read_text(), maxrss_kb=usage.ru_maxrss)


def _read_simulate(prefix: Path) -> dict:
    positions, trace = [], []
    with open(f"{prefix}_positions.csv", encoding="utf-8") as fh:
        next(fh)
        positions = [[float(v) for v in line.split(",")] for line in fh]
    steps = []
    with open(f"{prefix}_trace.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, e, h = line.split(",")
            trace.append(float(e))
            steps.append(float(h))
    with open(f"{prefix}_stats.json", encoding="utf-8") as fh:
        stats = fh.read()
    return dict(positions=positions, energy_trace=trace, step_trace=steps, stats=stats)


def cli_ops(ag, sequence: list, root: Path, out_dir: Path, traced: bool = False) -> list:
    """One op per invocation.  Traced, each runs through bench/child.py,
    which wraps the package's names in the child and writes its spans to
    ``<out_dir>/cli_<i>.npz`` with its import and main times in ``cli_<i>.json``."""
    env = child_env(root / "src")

    def make(i, inv):
        inv = dict(inv)
        args = list(inv["args"])
        if inv["kind"] == "simulate":
            prefix = out_dir / "cli_sim"
            args += ["--out", str(prefix)]
            inv["case"] = descent_case(ag, inv["case"])
        if inv["kind"] == "verify-el":
            p = kernel(ag, inv["point"])
            inv.update(regime=ag.classify(p).tag, R=ag.radius(p))
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(out_dir / f"cli_{i}")] + args
        else:
            argv = [sys.executable, "-m", "aggremin"] + args

        def run():
            out = run_child(argv, root, env, out_dir)
            if inv["kind"] == "simulate" and out["returncode"] == 0:
                out.update(_read_simulate(prefix))
            return out

        return Op(f"{i}:{inv['kind']}", run,
                  lambda out: checks.check_cli(inv, out), inv.get("known_fault", False))

    return [make(i, inv) for i, inv in enumerate(sequence)]


def read_child_record(out_dir: Path, i: int) -> dict:
    with open(out_dir / f"cli_{i}.json", encoding="utf-8") as fh:
        return json.load(fh)
