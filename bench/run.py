#!/usr/bin/env python3
"""Benchmark of aggremin: the certify pipeline, the particle flow and the CLI.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One process with one numerical thread runs the
workload's operations in a closed loop, in whole rounds whose number
``--seconds`` sets, and checks every output (checks.py).  CLI invocations
run one at a time as child processes.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones from a traced
run (tracing.py).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``.bench_out/``.
See bench/README.md for the workloads and metrics.
"""

import os

# One numerical thread, set before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import inputs
import ops as opsmod
import tracing
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "descent_ball", "descent_ring", "cli")
# Set-up imports per run; their median is the import part of setup_s.
SETUP_IMPORTS = 5
SETUP_SPEED_SAMPLES = 3
SCIPY_IMPORTTIME_RUNS = 3
# A run makes floor(--seconds / ROUND_S) rounds, at least MIN_ROUNDS: the
# same number in every run of a workload, since the fastest of n repeats
# reads lower the larger n is.  ROUND_S is about one round's wall time on
# the host of the reference figures.
ROUND_S = {"certify": 10.0, "descent_ball": 7.0, "descent_ring": 5.5, "cli": 5.5}
MIN_ROUNDS = 2
# The calibration kernel (speed.py) that resembles each workload's work.
SPEED_KERNEL = {"certify": "compute", "descent_ball": "compute",
                "descent_ring": "memory", "cli": "compute"}
CLI_COMMANDS = ("closed-form", "verify-el", "convexity", "simulate", "phase-scan")
# The layer probes of a traced run: used only for the layers that the
# workload's own operations do not reach (see README).
PROBE_POINTS = [
    dict(d=2, alpha=3.0, beta=1.6, log=False, kind="regime"),
    dict(d=3, alpha=4.0, beta=0.6, log=False, kind="regime"),
    dict(d=4, alpha=3.0, beta=0.0, log=True, kind="regime"),
    dict(d=2, alpha=2.0, beta=-1.0, log=False, kind="regime"),
    dict(d=3, alpha=2.0, beta=0.0, log=True, kind="regime"),
]
PROBE_DESCENT = dict(d=2, alpha=2.0, beta=-1.0, log=False, n=64, tol=1e-3, max_iter=20000, seed=0)
KERNEL_REPS = 5
POINT_REPS, POINT_BATCH = 5, 10


class Tally:
    """Times per operation over rounds, and the outcome counts."""

    def __init__(self, n_ops: int):
        self.times = [[] for _ in range(n_ops)]
        self.speed_index = [[] for _ in range(n_ops)]
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = []
        self.maxrss_kb = 0
        self.rounds = 0

    def op_times(self, speed: Speed | None = None) -> list:
        """Each operation's fastest time over the rounds, in reference
        seconds when ``speed`` is given, else as measured.

        Other tenants of the machine only ever slow an operation down
        (README, "Steadiness"); the fastest repeat is the least disturbed
        reading of the operation's own cost.
        """
        if speed is None:
            return [min(t) for t in self.times]
        return [min(t / speed.factor(k) for t, k in zip(ts, ks))
                for ts, ks in zip(self.times, self.speed_index)]

    def wall(self) -> float:
        """Time of one round as measured: the sum over operations of their time."""
        return sum(self.op_times())


def run_round(ops: list, tally: Tally, speed: Speed | None = None) -> list:
    outs = []
    for i, op in enumerate(ops):
        if speed:
            tally.speed_index[i].append(speed.sample())
        t0 = time.perf_counter()
        try:
            out, problems = op.run(), None
        except Exception as exc:  # a raising operation is a failed one
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        tally.times[i].append(time.perf_counter() - t0)
        if problems is None:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        tally.attempted += 1
        if problems:
            tally.failed += 1
            (tally.known if op.known_fault else tally.unexpected).append((op.label, problems))
        if out:
            tally.maxrss_kb = max(tally.maxrss_kb, out.get("maxrss_kb", 0))
        outs.append(out)
    if speed:
        speed.sample()
    tally.rounds += 1
    return outs


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds // ROUND_S[workload]))


def measure(ops: list, rounds: int, speed: Speed) -> Tally:
    tally = Tally(len(ops))
    for _ in range(rounds):
        run_round(ops, tally, speed)
    return tally


def child_import_seconds(env: dict) -> float:
    out = opsmod.run_child([sys.executable, str(ROOT / "bench" / "child.py"), "import"],
                           ROOT, env, OUT)
    if out["returncode"] != 0:
        raise RuntimeError(f"import aggremin failed in a child:\n{out['stderr']}")
    return json.loads(out["stdout"])["import_s"]


def scipy_integrate_import_ms(env: dict) -> float:
    """Cumulative import time of scipy.integrate under ``-X importtime``."""
    samples = []
    for _ in range(SCIPY_IMPORTTIME_RUNS):
        out = opsmod.run_child([sys.executable, "-X", "importtime", "-c", "import aggremin"],
                               ROOT, env, OUT)
        for line in out["stderr"].splitlines():
            cells = line.split("|")
            if len(cells) == 3 and cells[2].strip() == "scipy.integrate":
                samples.append(int(cells[1]) / 1e3)
    return statistics.median(samples) if samples else 0.0


def build_ops(ag, workload: str, seed: int, traced_cli: bool = False):
    """The workload's inputs (timed, part of setup_s) and its operations."""
    t0 = time.perf_counter()
    if workload == "certify":
        data = inputs.certify_points(seed)
    elif workload == "descent_ball":
        data = inputs.ball_descents(seed)
    elif workload == "descent_ring":
        data = inputs.ring_descents(seed)
    else:
        data = inputs.cli_sequence(seed)
    input_s = time.perf_counter() - t0
    if workload == "certify":
        return input_s, data, opsmod.certify_ops(ag, data)
    if workload.startswith("descent"):
        return input_s, data, opsmod.descent_ops(ag, data)
    return input_s, data, opsmod.cli_ops(ag, data, ROOT, OUT, traced=traced_cli)


# ---------------------------------------------------------------- per layer

def _ms(x) -> float:
    return float(np.sum(x)) * 1e3


def _p50_ms(x) -> float:
    return float(np.median(x)) * 1e3 if len(x) else 0.0


def special_potentials_verify(spans: tracing.Spans) -> dict:
    m = {}
    dur, self_t = spans.duration, spans.self_time
    hyp = spans.select("special.hyp2f1")
    m["special.hyp2f1.calls"] = (int(hyp.sum()), "count")
    m["special.hyp2f1.ms"] = (_ms(dur[hyp]), "ms")
    for k, branch in enumerate(tracing.BRANCHES):
        sel = hyp & (spans.tag == k)
        m[f"special.hyp2f1.{branch}.calls"] = (int(sel.sum()), "count")
        m[f"special.hyp2f1.{branch}.ms"] = (_ms(dur[sel]), "ms")
    tp = spans.select("potentials.total_potential")
    m["potentials.total_potential.calls"] = (int(tp.sum()), "count")
    m["potentials.total_potential.self_ms"] = (_ms(self_t[tp]), "ms")
    m["potentials.tilde_psi0.ms"] = (_ms(dur[spans.select("potentials.tilde_psi0")]), "ms")
    el = spans.select("verify.verify_euler_lagrange")
    m["verify.verify_euler_lagrange.p50_ms"] = (_p50_ms(dur[el]), "ms")
    m["verify.verify_euler_lagrange.self_ms"] = (_ms(self_t[el]), "ms")
    m["verify.convexity_report.p50_ms"] = (_p50_ms(dur[spans.select("verify.convexity_report")]), "ms")
    return m


def point_us(ag, points: list) -> float:
    """Median over points of the time of radius + energy + eta, untraced."""
    per_point = []
    for point in points:
        p = opsmod.kernel(ag, point)
        samples = []
        for _ in range(POINT_REPS):
            t0 = time.perf_counter()
            for _ in range(POINT_BATCH):
                ag.radius(p)
                ag.energy(p)
                ag.eta(p)
            samples.append((time.perf_counter() - t0) / POINT_BATCH)
        per_point.append(statistics.median(samples))
    return statistics.median(per_point) * 1e6


def backtracks(step_trace) -> int:
    """Halvings of the step, read from the accepted step sizes.

    The first attempt uses the initial step size (step_trace[0]); each
    later one starts at 1.1 times the last accepted size and halves until
    accepted, so every accepted size is that start times a power of 1/2.
    """
    total, start = 0, step_trace[0]
    for h in step_trace[1:]:
        total += int(round(math.log2(start / h)))
        start = h * 1.1
    return total


def _median_time_ms(fn, reps: int = KERNEL_REPS) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def flow_metrics(ag, case: dict, outs: list, descent_ms: float) -> dict:
    """Counts of the descents in ``outs``, and the pair kernels timed on
    the first one's converged state at its N."""
    iters = sum(int(o["iterations"]) for o in outs)
    back = sum(backtracks(o["step_trace"]) for o in outs)
    state = ag.ParticleSystem(positions=np.asarray(outs[0]["positions"]),
                              params=opsmod.kernel(ag, case))
    n, d = state.positions.shape
    tracemalloc.start()
    ag.max_force(state)
    pair_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "flow.iterations": (iters, "count"),
        "flow.backtracks": (back, "count"),
        "flow.energy_evals": (len(outs) + iters + back, "count"),
        "flow.ms_per_iteration": (descent_ms / iters, "ms"),
        "flow.max_force_ms": (_median_time_ms(lambda: ag.max_force(state)), "ms"),
        "flow.discrete_energy_ms": (_median_time_ms(lambda: ag.discrete_energy(state)), "ms"),
        "flow.step_ms": (_median_time_ms(lambda: ag.step(state)), "ms"),
        # diff, diff * diff and coef * diff: three N x N x d float64 arrays per pass.
        "flow.pair_bytes_computed": (3 * n * n * d * 8, "B"),
        "flow.pair_peak_bytes": (int(pair_peak), "B"),
    }


def traced_round(tracer: tracing.Tracer, ops: list, tally: Tally, in_process: bool):
    begin = tracer.mark()
    if in_process:
        tracer.install()
    try:
        outs = run_round(ops, tally)
    finally:
        if in_process:
            tracer.uninstall()
    return outs, tracer.spans(begin)


def cli_children(n: int):
    """Spans and records that the traced CLI children wrote."""
    records = [opsmod.read_child_record(OUT, i) for i in range(n)]
    spans = tracing.Spans.concat([tracing.Spans.load(OUT / f"cli_{i}.npz") for i in range(n)])
    return spans, records


def cli_metrics(records: list, env: dict) -> dict:
    m = {"cli.import_ms": (statistics.median(r["import_s"] for r in records) * 1e3, "ms"),
         "cli.import_scipy_integrate_ms": (scipy_integrate_import_ms(env), "ms")}
    for cmd in CLI_COMMANDS:
        times = [r["main_s"] for r in records if r["command"] == cmd]
        m[f"cli.main_ms.{cmd}"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    return m


def trace_run(ag, workload: str, seed: int, seconds: float, env: dict):
    """Untraced and traced rounds of the workload, alternating, then the
    per-layer metrics.  Returns (tally, metrics, notes)."""
    _, data, plain_ops = build_ops(ag, workload, seed)
    is_cli = workload == "cli"
    traced_ops = build_ops(ag, workload, seed, traced_cli=True)[2] if is_cli else plain_ops
    tracer = tracing.Tracer()
    plain, traced = Tally(len(plain_ops)), Tally(len(traced_ops))
    first = None
    for _ in range(max(1, rounds_for(workload, seconds) // 2)):
        run_round(plain_ops, plain)
        outs, spans = traced_round(tracer, traced_ops, traced, not is_cli)
        if first is None:
            if is_cli:
                spans, records = cli_children(len(traced_ops))
            first = (outs, spans)
    outs, own = first
    notes = []
    metrics = {}

    # special, potentials, verify: the workload's own spans, else the certify probe.
    cert_spans = own
    if not own.select("special.hyp2f1").any():
        probe = opsmod.certify_ops(ag, PROBE_POINTS)
        _, cert_spans = traced_round(tracer, probe, Tally(len(probe)), True)
        notes.append("special/potentials/verify from the certify probe")
    metrics.update(special_potentials_verify(cert_spans))

    # closed_form: the workload's own parameter points.
    if workload == "certify":
        points = [p for p in data if p["kind"] == "regime"]
    elif is_cli:
        points = [inv["point"] for inv in data if inv["kind"] == "closed-form"]
    else:
        points = [data[0]]
    metrics["closed_form.point_us"] = (point_us(ag, points), "us")

    # flow: the workload's descents, the CLI's simulate, or the flow probe.
    rtc = "flow.run_to_convergence"
    if workload.startswith("descent"):
        case, descents = data[0], outs
        descent_ms = _ms(own.duration[own.select(rtc)])
    elif is_cli:
        i = next(k for k, inv in enumerate(data) if inv["kind"] == "simulate")
        case, sim = data[i]["case"], outs[i]
        descents = [dict(sim, iterations=len(sim["energy_trace"]) - 1)]
        descent_ms = _ms(own.duration[own.select(rtc)])
    else:
        case = PROBE_DESCENT
        probe = opsmod.descent_ops(ag, [case])
        descents, probe_spans = traced_round(tracer, probe, Tally(1), True)
        descent_ms = _ms(probe_spans.duration[probe_spans.select(rtc)])
        notes.append("flow from the flow probe")
    metrics.update(flow_metrics(ag, case, descents, descent_ms))

    # cli: the workload's own traced children, else one child per subcommand.
    if is_cli:
        child_records = records
    else:
        seq = inputs.cli_sequence(seed)
        picks = [next(inv for inv in seq if inv["args"][0] == cmd) for cmd in CLI_COMMANDS]
        probe = opsmod.cli_ops(ag, picks, ROOT, OUT, traced=True)
        run_round(probe, Tally(len(probe)))
        _, child_records = cli_children(len(probe))
        notes.append("cli from the cli probe")
    metrics.update(cli_metrics(child_records, env))

    # The tracing itself: its overhead on wall_s, and how much of the first
    # traced round the layers' self times account for.
    wall_plain, wall_traced = plain.wall(), traced.wall()
    first_round = sum(t[0] for t in traced.times)
    layer_self = float(np.sum(own.self_time))
    metrics["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0), "%")
    metrics["trace.unaccounted_pct"] = (100.0 * (1.0 - layer_self / first_round), "%")
    metrics["trace.spans"] = (len(own.start), "count")
    notes.append(f"layers' self time {layer_self:.3f} s = {100.0 * layer_self / wall_plain:.1f}% "
                 f"of the untraced wall_s {wall_plain:.3f} s; tracing overhead "
                 f"{metrics['trace.overhead_pct'][0]:.1f}%")
    absent = set(tracer.absent)
    for r in child_records:
        absent.update(r["absent"])
    metrics["trace.absent_names"] = (len(absent), "count")
    notes.append(f"absent names: {sorted(absent) or 'none'}")
    notes.append(f"rounds: {plain.rounds} untraced, {traced.rounds} traced; "
                 f"wall_s {wall_plain:.3f} untraced, {wall_traced:.3f} traced")
    spans_path = OUT / f"spans_{workload}.npz"
    own.save(spans_path)
    notes.append(f"spans of the first traced round written to {spans_path.relative_to(ROOT)}")
    # attempted and failed count the untraced and the traced rounds alike.
    tally = Tally(0)
    for t in (plain, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.unexpected += t.unexpected
        tally.known += t.known
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aggremin" / "__init__.py").is_file():
        print(f"run.py: no package sources at {SRC}/aggremin", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = opsmod.child_env(SRC)
    sys.path.insert(0, str(SRC))
    import aggremin as ag

    if Path(ag.__file__).resolve().parent != SRC / "aggremin":
        print(f"run.py: imported aggremin from {ag.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup_speed = Speed("compute")
    import_times = []
    for _ in range(SETUP_IMPORTS):
        for _ in range(SETUP_SPEED_SAMPLES):
            setup_speed.sample()
        import_times.append(child_import_seconds(env))
    input_s, _, ops = build_ops(ag, args.workload, args.seed)
    setup_raw = statistics.median(import_times) + input_s
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per round")
    print("set-up: import " + ", ".join(f"{t:.3f}" for t in import_times)
          + f" s; inputs {input_s * 1e3:.2f} ms")

    if args.trace:
        tally, values, notes = trace_run(ag, args.workload, args.seed, args.seconds, env)
        for note in notes:
            print(note)
    else:
        speed = Speed(SPEED_KERNEL[args.workload])
        tally = measure(ops, rounds_for(args.workload, args.seconds), speed)
        raw = tally.op_times()
        ref = tally.op_times(speed)
        if args.workload == "cli":
            peak_mb = tally.maxrss_kb / 1024.0
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (setup_raw / setup_speed.factor(), "s"),
            "wall_s": (sum(ref), "s"),
            "op_p50_ms": (statistics.median(ref) * 1e3, "ms"),
            "op_p90_ms": (float(np.percentile(ref, 90)) * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(f"rounds: {tally.rounds}; speed factor {speed.factor():.4f} over the run "
              f"({SPEED_KERNEL[args.workload]} kernel, {len(speed.samples)} timings), "
              f"{setup_speed.factor():.4f} over the set-up")
        print(f"as measured: set-up {setup_raw:.4f} s, round {sum(raw):.4f} s, "
              f"p50 {statistics.median(raw) * 1e3:.2f} ms, p90 {np.percentile(raw, 90) * 1e3:.2f} ms")
        print("slowest operations (fastest of the rounds, s as measured):")
        for t, op in sorted(zip(raw, ops), key=lambda x: -x[0])[:5]:
            print(f"  {t:9.4f}  {op.label}")

    for label, problems in tally.known:
        print(f"known fault, counted failed: {label}: {problems[0]}")
    for label, problems in tally.unexpected:
        print(f"FAILED: {label}: {'; '.join(problems)}")
    for name, (value, unit) in values.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
