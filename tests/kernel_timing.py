"""Time one pass of the particle flow's pair kernel, at the sizes the
benchmark's descents use.

Constructing ``ParticleSystem(positions, params)`` runs exactly one
kernel pass (the energy and the forces of every particle).  The cases
are the ``descent_ball`` cloud (2, 2, -1) at N = 100, the
``descent_ring`` cloud (2, 3, 1.75) at N = 512, the ``simulate`` cloud
of the ``cli`` workload at N = 64, and a sphere cloud (3, 3, 1.5) at
N = 1024.  Each is the descent's seed-0 starting cloud.  The cases are
timed in turn, round after round, so that a slow spell of the machine
falls on all of them alike, and each row reports its fastest of the
ROUNDS (40) rounds.  From the repository root:

    python tests/kernel_timing.py

It prints one row per case: the fastest pass in ms, and that time per
particle pair, N(N-1)/2 of them, in ns.  It times the ``aggremin`` of
the checkout it sits in, so a copy of it in another checkout times
that one.  Numerical libraries are held to one thread, as in the
benchmark.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from aggremin.flow import ParticleSystem, _initial_positions  # noqa: E402
from aggremin.params import KernelParams  # noqa: E402

CASES = (
    ("ball", KernelParams(2, 2.0, -1.0), 100),
    ("ring", KernelParams(2, 3.0, 1.75), 512),
    ("simulate", KernelParams(2, 3.0, 1.75), 64),
    ("sphere d=3", KernelParams(3, 3.0, 1.5), 1024),
)
ROUNDS = 40


def main() -> None:
    clouds = [_initial_positions(params, n, np.random.default_rng(0)) for _, params, n in CASES]
    best = [float("inf")] * len(CASES)
    for _ in range(ROUNDS):
        for i, ((_, params, _), x) in enumerate(zip(CASES, clouds)):
            start = time.perf_counter()
            ParticleSystem(x, params)
            best[i] = min(best[i], time.perf_counter() - start)
    print(f"{'case':<12} {'d':>2} {'N':>5} {'ms/pass':>9} {'ns/pair':>8}")
    for (name, params, n), seconds in zip(CASES, best):
        pairs = n * (n - 1) // 2
        print(f"{name:<12} {params.d:>2} {n:>5} {seconds * 1e3:>9.3f} {seconds * 1e9 / pairs:>8.2f}")


if __name__ == "__main__":
    main()
