"""Time the 2F1 layer and the three calls of a certify point that reach it.

The cases are one ``_hyp2f1`` call of the d = 2, 4 and 5 sphere profile
(gamma = 2.5, so c - a - b = d + 1.5 and the nodes above z = 0.9 take
the connection formula) on the Euler-Lagrange audit's 1001 folded nodes
and on the convexity grid's 399 folded nodes; one call of the ball's
outer branch (d = 3, gamma = -1) on the audit's 999 outer nodes; and
``eta``, ``verify_euler_lagrange`` and ``convexity_report`` at the
power-law sphere point (4, 3, 1.5) and the log-kernel sphere point
(4, 3, log).  Every timed call follows an untimed call of the same
case, so that its triples' connection plans are cached, as for a
repeated profile.  Each 2F1 case also has a cold row, whose timed call
follows a clearing of the plan cache, as for a fresh (a, b, c).
The cases are timed in turn, round after round, so that a slow spell of
the machine falls on all of them alike, and each row reports its
fastest of the ROUNDS (60) rounds.  Each round takes the rows in its
own order, shuffled with the round's index as seed, so that no row
keeps the place in the round that its time would depend on, and a
rerun repeats the orders.  From the repository root:

    python tests/special_timing.py

It prints one row per case: the fastest call in us.  It times the
``aggremin`` of the checkout it sits in, so a copy of it in another
checkout times that one.  Numerical libraries are held to one thread,
as in the benchmark.
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aggremin import KernelParams, convexity_report, eta, verify_euler_lagrange  # noqa: E402
from aggremin.potentials import _fold  # noqa: E402
from aggremin.special import _connection_plan, _hyp2f1  # noqa: E402
from aggremin.verify import _CONVEXITY_GRID, _EL_FOLD  # noqa: E402

ROUNDS = 60
GAMMA = 2.5


def _profile(d: int, fold):
    a, b, c = -GAMMA / 2.0, (2.0 - GAMMA - d) / 2.0, d / 2.0
    return lambda: _hyp2f1(a, b, c, fold.z, fold.gap)


def _ball_outer(d: int, gamma: float):
    outer = _EL_FOLD.outer
    z, gap = _EL_FOLD.spread(_EL_FOLD.z)[outer], _EL_FOLD.spread(_EL_FOLD.gap)[outer]
    a, b, c = -gamma / 2.0, (2.0 - gamma - d) / 2.0, 2.0 - gamma / 2.0
    return lambda: _hyp2f1(a, b, c, z, gap)


def cases() -> list:
    """(name, call, cold) for every row: a cold row clears the connection
    plan cache before each call."""
    convexity_fold = _fold(_CONVEXITY_GRID)
    special = []
    for d in (2, 4, 5):
        special.append((f"2F1 sphere d={d} audit fold", _profile(d, _EL_FOLD)))
        special.append((f"2F1 sphere d={d} convexity grid", _profile(d, convexity_fold)))
    special.append(("2F1 ball d=3 audit outer nodes", _ball_outer(3, -1.0)))
    rows = []
    for name, call in special:
        rows += [(name, call, False), (f"{name}, cold", call, True)]
    for name, params in (("(4, 3, 1.5)", KernelParams(4, 3.0, 1.5)),
                         ("(4, 3, log)", KernelParams(4, 3.0, 0.0, beta_is_log=True))):
        rows.append((f"eta {name}", lambda p=params: eta(p), False))
        rows.append((f"verify_euler_lagrange {name}", lambda p=params: verify_euler_lagrange(p), False))
        rows.append((f"convexity_report {name}", lambda p=params: convexity_report(p), False))
    return rows


def main() -> None:
    rows = cases()
    best = [float("inf")] * len(rows)
    order = list(enumerate(rows))
    for k in range(ROUNDS):
        random.Random(k).shuffle(order)
        for i, (_, call, cold) in order:
            call()
            if cold:
                _connection_plan.cache_clear()
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    print(f"{'case':<40} {'us/call':>9}")
    for (name, _, _), seconds in zip(rows, best):
        print(f"{name:<40} {seconds * 1e6:>9.1f}")


if __name__ == "__main__":
    main()
