"""Seeded inputs of the four workloads.

Every function here takes the run's seed and returns plain data; the
same seed gives the same inputs.  Nothing here calls the package.
"""

from __future__ import annotations

import numpy as np

# The 40 triples of the acceptance gate (tests/test_acceptance.py), with
# beta = 0 read as the logarithmic kernel.  Their integer exponents take
# the terminating and near-integer-fallback branches of hyp2f1.
ACCEPTANCE_TRIPLES = [
    (2, 3.0, 1.6), (2, 3.0, 1.95), (2, 3.5, 1.45), (2, 4.0, 1.4), (2, 4.0, 1.95),
    (2, 2.5, 1.8), (3, 2.0, 1.3), (3, 2.0, 1.0), (3, 2.5, 1.1), (3, 3.0, 0.8),
    (3, 3.0, 1.9), (3, 3.5, 0.75), (3, 4.0, 0.6), (3, 4.0, 1.5), (4, 2.0, 0.4),
    (4, 2.0, 0.0), (4, 2.5, -0.1), (4, 3.0, 0.0), (4, 3.0, 1.2), (4, 4.0, -0.2),
    (5, 2.0, -0.7), (5, 2.0, 0.0), (5, 3.0, -0.9), (5, 3.5, 1.3), (5, 4.0, -1.1),
    (2, 2.0, -1.0), (2, 2.0, -1.9), (2, 2.0, -0.5), (2, 2.0, 0.0), (2, 2.0, 1.5),
    (2, 2.0, 0.8), (3, 2.0, -2.5), (3, 2.0, -1.0), (3, 2.0, 0.0), (3, 2.0, 0.6),
    (4, 2.0, -3.5), (1, 2.0, -0.5), (4, 2.0, -0.8), (5, 2.0, -4.5), (5, 2.0, -1.6),
]

# Random draws per cell: (regime, d, log kernel, count).
CERTIFY_CELLS = [
    ("sphere", 2, False, 4), ("sphere", 3, False, 4),
    ("sphere", 4, False, 4), ("sphere", 5, False, 4),
    ("sphere", 4, True, 3), ("sphere", 5, True, 3),
    ("ball", 1, False, 5), ("ball", 2, False, 5), ("ball", 3, False, 5),
    ("ball", 4, False, 5), ("ball", 5, False, 5),
    ("ball", 1, True, 1), ("ball", 2, True, 3), ("ball", 3, True, 3),
]
FORCED_DIMS = (2, 2, 3, 3, 4, 4, 5, 5)
# Draws keep clear of the beta = 0 pole of the power kernel and of the
# range ends, where the closed forms are tested by the acceptance triples.
BETA_GAP = 0.05
FORCED_DROP = (0.02, 0.3)


def beta_star(d: int, alpha: float) -> float:
    """The critical curve of Theorem 1, written out apart from the package."""
    return (-10.0 + 3.0 * alpha + 7.0 * d - alpha * d - d * d) / (d + alpha - 3.0)


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k stratified uniforms on [0, 1): one per interval [i/k, (i+1)/k), shuffled."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _off_zero(beta: float) -> float:
    return beta if abs(beta) >= BETA_GAP else float(np.copysign(BETA_GAP, beta))


def certify_points(seed: int) -> list:
    """Parameter points of the certify workload, as dicts.

    Each dict has d, alpha, beta, log (beta is the log kernel) and kind:
    ``regime`` for a point inside a theorem's range and ``forced`` for a
    sphere candidate forced onto a point just below beta_star.
    """
    rng = np.random.default_rng([seed, 1])
    points = [
        dict(d=d, alpha=a, beta=b, log=(b == 0.0), kind="regime", origin="acceptance")
        for d, a, b in ACCEPTANCE_TRIPLES
    ]
    for regime, d, log, k in CERTIFY_CELLS:
        ua, ub = _strata(rng, k), _strata(rng, k)
        for i in range(k):
            if regime == "sphere":
                alpha = 2.0 + 2.0 * float(ua[i])
                lo = max(beta_star(d, alpha), -d + 3.0)
                hi = min(2.0, alpha)
                beta = 0.0 if log else _off_zero(lo + (hi - lo) * (0.02 + 0.96 * float(ub[i])))
            else:
                alpha = 2.0
                lo, hi = -d + BETA_GAP, min(2.0, 4.0 - d) - BETA_GAP
                beta = 0.0 if log else _off_zero(lo + (hi - lo) * float(ub[i]))
            points.append(dict(d=d, alpha=alpha, beta=beta, log=log, kind="regime", origin="draw"))
    u = _strata(rng, len(FORCED_DIMS))
    ua = _strata(rng, len(FORCED_DIMS))
    for i, d in enumerate(FORCED_DIMS):
        alpha = 2.2 + 1.8 * float(ua[i])
        drop = FORCED_DROP[0] + (FORCED_DROP[1] - FORCED_DROP[0]) * float(u[i])
        beta = _off_zero(beta_star(d, alpha) - drop)
        points.append(dict(d=d, alpha=alpha, beta=beta, log=False, kind="forced", origin="forced"))
    return points


# Descent workloads: (d, alpha, beta), N, tol, iteration budget.
BALL = dict(d=2, alpha=2.0, beta=-1.0, log=False, n=100, tol=1e-4, max_iter=20000)
RING = dict(d=2, alpha=3.0, beta=1.75, log=False, n=512, tol=1e-4, max_iter=2000)
# A descent's iteration count depends on its starting cloud more than on
# anything else: 913 to 5088 iterations over seeds 0-9 for the ball at
# N = 100, and 110 to 138 for two ring descents at N = 512 over run seeds
# 1-10.  Seed-drawn clouds would so measure the seed, not the code; the
# clouds are therefore fixed, and the run's seed only orders them.
BALL_CLOUD_SEEDS = (0, 1, 2, 3)
RING_CLOUD_SEEDS = (0, 1)


def _fixed_clouds(base: dict, cloud_seeds: tuple, seed: int, stream: int) -> list:
    order = np.random.default_rng([seed, stream]).permutation(len(cloud_seeds))
    return [dict(base, seed=cloud_seeds[i]) for i in order]


def ball_descents(seed: int) -> list:
    return _fixed_clouds(BALL, BALL_CLOUD_SEEDS, seed, 2)


def ring_descents(seed: int) -> list:
    return _fixed_clouds(RING, RING_CLOUD_SEEDS, seed, 3)


# The scan whose beta grid passes through 0 (linspace gives 1.1e-16 there).
PHASE_SCAN_ZERO = dict(d=3, alpha_min=2.0, alpha_max=2.0, alpha_steps=1,
                       beta_min=-0.7, beta_max=2.0, beta_steps=28)
PHASE_SCAN_GRID = dict(d=2, alpha_min=2.0, alpha_max=4.0, alpha_steps=3,
                       beta_min=-1.25, beta_max=1.75, beta_steps=7)
SIMULATE = dict(d=2, alpha=3.0, beta=1.75, log=False, n=64, tol=1e-4, max_iter=2000)


def _param_flags(point: dict) -> list:
    flags = ["--d", str(point["d"]), "--alpha", repr(point["alpha"])]
    return flags + (["--log-beta"] if point["log"] else ["--beta", repr(point["beta"])])


def _scan_flags(scan: dict) -> list:
    flags = []
    for key, value in scan.items():
        flags += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
    return flags


def _scan_rows(scan: dict) -> int:
    alphas = np.linspace(scan["alpha_min"], scan["alpha_max"], scan["alpha_steps"])
    betas = np.linspace(scan["beta_min"], scan["beta_max"], scan["beta_steps"])
    return int(sum(1 for a in alphas for b in betas if b < a))


def cli_sequence(seed: int) -> list:
    """The fixed order of ``python -m aggremin`` invocations of one round.

    Each entry has ``args`` (after ``python -m aggremin``), ``kind`` (how
    the output is checked), ``expect_rc`` and, where values are checked,
    the parameter point.  The sphere point has d = 2, alpha = 3, so its
    attraction profile takes the fallback branch of hyp2f1 and its
    repulsion profile the direct and connection branches; the convexity
    point (d = 5, alpha = 3, log kernel) has a terminating attraction
    series and reaches the log profile tilde_psi0.
    """
    rng = np.random.default_rng([seed, 4])
    u = rng.random(3)
    sphere = dict(d=2, alpha=3.0, beta=beta_star(2, 3.0) + 0.05 + 0.4 * float(u[0]), log=False)
    convex = dict(d=5, alpha=3.0, beta=0.0, log=True)
    forced = dict(d=3, alpha=3.0, beta=beta_star(3, 3.0) - 0.05 - 0.25 * float(u[1]), log=False)
    refused = dict(forced, beta=beta_star(3, 3.0) - 1.0 - 0.5 * float(u[2]))
    sim = dict(SIMULATE, seed=int(rng.integers(0, 2**31)))
    sim_flags = _param_flags(sim) + ["--n", str(sim["n"]), "--seed", str(sim["seed"]),
                                     "--tol", repr(sim["tol"]), "--max-iter", str(sim["max_iter"])]
    return [
        dict(kind="closed-form", args=["closed-form"] + _param_flags(sphere), point=sphere, expect_rc=0),
        dict(kind="refused", args=["closed-form"] + _param_flags(refused), point=refused, expect_rc=2),
        dict(kind="verify-el", args=["verify-el"] + _param_flags(sphere), point=sphere, expect_rc=0),
        dict(kind="verify-el-forced", args=["verify-el", "--force-sphere"] + _param_flags(forced),
             point=forced, expect_rc=3),
        dict(kind="convexity", args=["convexity"] + _param_flags(convex), point=convex, expect_rc=0),
        dict(kind="simulate", args=["simulate"] + sim_flags, case=sim, expect_rc=0),
        dict(kind="phase-scan", args=["phase-scan"] + _scan_flags(PHASE_SCAN_GRID) + ["--format", "json"],
             d=PHASE_SCAN_GRID["d"], format="json", n_rows=_scan_rows(PHASE_SCAN_GRID), expect_rc=0),
        dict(kind="phase-scan-zero", args=["phase-scan"] + _scan_flags(PHASE_SCAN_ZERO),
             d=PHASE_SCAN_ZERO["d"], format="csv", n_rows=_scan_rows(PHASE_SCAN_ZERO), expect_rc=0,
             known_fault=True),
    ]
