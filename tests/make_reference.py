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
largest move of each field in ``test_reference``'s own metric,
|new - old| / max(1, |old|), next to FLOAT_RTOL, and where; how many
location moves that test skips, their figure at rounding level; and
every other entry that changed (a tag, a verdict, a refusal, or a
value that became a refusal).  The tolerances and the skip rule are
defined here and imported by the test.
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
# test_reference holds every float within FLOAT_RTOL max(1, |want|), and
# a location only where its figure is above LOCATION_FLOOR max(1, |eta|).
FLOAT_RTOL = 1e-13
LOCATION_FLOOR = 1e-12
# Each location field and the figure it locates.
LOCATIONS = {
    "rho_worst_support": "support_max_abs_dev",
    "rho_worst_exterior": "exterior_min_margin",
    "rho_min_second_difference": "min_second_difference",
}


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


def sphere_eta(record: dict) -> float:
    """The level of the sphere's Psi that the convexity report describes:
    the forced-sphere audit's eta, 0 where that audit is refused."""
    return record["el_forced"].get("eta", 0.0)


def compared(report: dict, key: str, eta) -> bool:
    """Whether test_reference compares ``report[key]``: every field but a
    location whose figure is at rounding level, where the node is
    arbitrary."""
    figure = report.get(LOCATIONS.get(key))
    return figure is None or abs(figure) > LOCATION_FLOOR * max(1.0, abs(eta))


def _leaves(old, new, path="", eta=0.0, checked=True):
    """(path, old, new, checked) at every leaf of two records, or where
    their shapes first differ; ``checked`` is ``compared`` of the leaf."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        eta = old.get("eta", eta)
        for key in old:
            inner = sphere_eta(old) if key == "convexity" else eta
            yield from _leaves(old[key], new[key], f"{path}.{key}", inner,
                               compared(old, key, eta))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (o, n) in enumerate(zip(old, new)):
            yield from _leaves(o, n, f"{path}[{k}]", eta, checked)
    else:
        yield path, old, new, checked


def summary(old, new) -> list[str]:
    """What moved from the ``old`` reference payload to the ``new`` one."""
    moved, skipped, worst, changed = 0, 0, {}, []
    for path, o, n, checked in _leaves(old, new):
        if o == n and type(o) is type(n):
            continue
        if type(o) is float and type(n) is float:
            if not checked:
                skipped += 1
                continue
            moved += 1
            field = path.rsplit(".", 1)[-1].split("[")[0]
            move = abs(n - o) / max(1.0, abs(o))
            if move > worst.get(field, (-1.0,))[0]:
                worst[field] = (move, path.lstrip("."))
        else:
            changed.append(f"changed {path.lstrip('.')}: {o!r} -> {n!r}")
    lines = [f"{moved} floats moved; {skipped} locations moved at rounding level, "
             "which test_reference skips"]
    lines += [f"largest move of {field}: {move:.2g} (FLOAT_RTOL {FLOAT_RTOL:g}) at {where}"
              for field, (move, where) in sorted(worst.items(), key=lambda kv: -kv[1][0])]
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
