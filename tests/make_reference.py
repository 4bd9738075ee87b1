"""Regenerate ``tests/reference_certify.json``, the committed answers that
``tests/test_reference.py`` recomputes.

The parameter points are those of the benchmark's ``certify`` workload
at seed 1 (``bench/inputs.py::certify_points(1)``): the 40 acceptance
triples, stratified draws from both theorem regimes, and sphere
candidates forced just below beta_star.  They are stored in the file,
so the test never imports ``bench/``.  For every point the file holds
the regime tag, then R, E and eta, the plain and the forced-sphere
Euler-Lagrange reports and the convexity report, each as its value or
as the refusal that replaced it.  Two particle descents add their final
energy and radial statistics.  NaN is written as null, as the CLI does.

A change that moves a number on purpose regenerates the file, from the
repository root:

    PYTHONPATH=src python tests/make_reference.py

and the diff of the file is the record of what moved.  It prints a
summary against the file it overwrites: how many floats moved, the
largest relative move on a value (R, E, eta, Psi''(1)) and where, and
every other entry that changed (a tag, a verdict, a refusal, or a
value that became a refusal).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

import aggremin as ag

REFERENCE = Path(__file__).with_name("reference_certify.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"

# The flow cases: the benchmark's ball and a small ring.
FLOW_CASES = [
    dict(d=2, alpha=2.0, beta=-1.0, n=100, seed=0),
    dict(d=2, alpha=3.0, beta=1.75, n=64, seed=0),
]
FLOW_TOL = 1e-6
FLOW_MAX_ITER = 20000
# The record fields that are answers, not audit figures.
VALUES = ("R", "E", "eta", "psi_dd_at_one")


def kernel(point: dict) -> ag.KernelParams:
    return ag.KernelParams(
        point["d"], point["alpha"], point["beta"], beta_is_log=point.get("log", False)
    )


def _outcome(fn, *args, **kwargs):
    """The value of fn(*args, **kwargs) (a report as a dict), or the
    package error that refused it, as its type name and message."""
    try:
        value = fn(*args, **kwargs)
    except ag.AggreminError as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}
    return asdict(value) if is_dataclass(value) else value


def certify_record(point: dict) -> dict:
    p = kernel(point)
    return dict(
        tag=ag.classify(p).tag,
        R=_outcome(ag.radius, p),
        E=_outcome(ag.energy, p),
        eta=_outcome(ag.eta, p),
        el=_outcome(ag.verify_euler_lagrange, p),
        el_forced=_outcome(ag.verify_euler_lagrange, p, force_sphere=True),
        convexity=_outcome(ag.convexity_report, p),
    )


def flow_record(case: dict) -> dict:
    state, stats = ag.run_to_convergence(
        kernel(case), case["n"], case["seed"], tol=FLOW_TOL, max_iter=FLOW_MAX_ITER
    )
    return dict(energy=ag.discrete_energy(state), radial=asdict(stats))


def _null_for_nan(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _null_for_nan(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_for_nan(v) for v in value]
    return value


def _leaves(old, new, path=""):
    """(path, old, new) at every leaf of two records, or where their
    shapes first differ."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        for key in old:
            yield from _leaves(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (o, n) in enumerate(zip(old, new)):
            yield from _leaves(o, n, f"{path}[{k}]")
    else:
        yield path, old, new


def summary(old, new) -> list[str]:
    """What moved from the ``old`` reference payload to the ``new`` one."""
    moved, worst, where, changed = 0, 0.0, None, []
    for path, o, n in _leaves(old, new):
        if o == n and type(o) is type(n):
            continue
        if type(o) is float and type(n) is float:
            moved += 1
            rel = abs(n - o) / (abs(o) or 1.0)
            if path.rsplit(".", 1)[-1] in VALUES and rel > worst:
                worst, where = rel, path
        else:
            changed.append(f"changed {path.lstrip('.')}: {o!r} -> {n!r}")
    lines = [f"{moved} floats moved"]
    if where is not None:
        lines.append(f"largest move on a value: {worst:.2g} relative at {where.lstrip('.')}")
    return lines + (changed or ["no tag, verdict or refusal changed"])


def main() -> None:
    sys.path.insert(0, str(BENCH))
    from inputs import certify_points

    points = [
        {k: pt[k] for k in ("d", "alpha", "beta", "log")} for pt in certify_points(1)
    ]
    payload = {
        "certify": [dict(point=pt, **certify_record(pt)) for pt in points],
        "flow": [dict(case=case, **flow_record(case)) for case in FLOW_CASES],
    }
    # allow_nan=False: an infinity left in a record fails here, not in the file.
    text = json.dumps(_null_for_nan(payload), indent=1, allow_nan=False)
    if REFERENCE.exists():
        print("\n".join(summary(json.loads(REFERENCE.read_text()), json.loads(text))))
    REFERENCE.write_text(text + "\n")


if __name__ == "__main__":
    main()
