"""Command-line interface.

Subcommands: ``closed-form`` (evaluate the minimizer's radius, energy,
and multiplier), ``verify-el`` (grid check of the sufficiency
conditions), ``convexity`` (second differences of the convexity
combination), ``simulate`` (particle descent with CSV/JSON artifacts),
and ``phase-scan`` (regime map over an (alpha, beta) rectangle).

Exit codes: 0 success, 2 for an error that refused the input (a
``ValueError``), 3 for a failed computation (a ``RuntimeError``) or
audit, 64 for usage errors, among them an output path that cannot be
written (one ``aggremin: error:`` line on stderr, no traceback).  All
JSON carries a top-level ``"schema": "aggremin/1"``; floats are
serialized by ``repr`` so they round-trip bit-exactly, and a top-level
NaN is written as ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict

import numpy as np

from . import flow
from .closed_form import beta_star, candidate_for, classify, energy, eta, radius
from .errors import AggreminError, IllConditioned, NonConvergence, RegimeError
from .params import CandidateMinimizer, KernelParams
from .verify import convexity_report, verify_euler_lagrange

SCHEMA = "aggremin/1"

__all__ = ["main"]


class _UsageError(Exception):
    """A well-formed invocation with values outside CLI preconditions."""


class _Parser(argparse.ArgumentParser):
    # BSD convention: malformed command lines exit 64, not argparse's 2,
    # which this tool reserves for domain errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _write_text(text: str, out_path, mode: str = "w") -> None:
    if out_path:
        try:
            with open(out_path, mode, encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path) -> None:
    # NaN is not JSON (RFC 8259): a top-level NaN is written as null, as
    # _write_csv writes None as an empty cell.
    payload = {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in payload.items()}
    _write_text(json.dumps(payload, indent=2) + "\n", out_path)


def _params_from(args) -> KernelParams:
    alpha = args.alpha
    if args.log_alpha and alpha is None:
        alpha = 0.0
    beta = args.beta
    if args.log_beta and beta is None:
        beta = 0.0
    if alpha is None:
        raise _UsageError("--alpha is required (or, for simulate, --log-alpha)")
    if beta is None:
        raise _UsageError("--beta is required (or pass --log-beta)")
    return KernelParams(
        d=args.d,
        alpha=alpha,
        beta=beta,
        alpha_is_log=args.log_alpha,
        beta_is_log=args.log_beta,
    )


def _beta_star_or_none(d: int, alpha: float):
    # beta_star exists from d = 2; both callers have alpha >= 2 already.
    return beta_star(d, alpha) if d >= 2 else None


def _density_description(params: KernelParams, cand: CandidateMinimizer) -> str:
    r = cand.radius
    if cand.kind == "UniformSphere":
        return f"uniform probability measure on the sphere of radius {r!r}"
    expo = (2.0 - params.beta - params.d) / 2.0
    return (
        f"radial density proportional to (R^2 - r^2)^{expo!r} "
        f"on the ball of radius {r!r}"
    )


def cmd_closed_form(args) -> int:
    params = _params_from(args)
    cand = candidate_for(params)
    tag = classify(params)
    report = {
        "schema": SCHEMA,
        "regime": tag.tag,
        "detail": tag.detail,
        **asdict(params),
        "beta_star": _beta_star_or_none(params.d, params.alpha),
        "R": cand.radius,
        "E": energy(params),
        "eta": eta(params),
        "density_description": _density_description(params, cand),
    }
    _emit(report, args.out)
    return 0


def cmd_verify_el(args) -> int:
    params = _params_from(args)
    report = verify_euler_lagrange(params, force_sphere=args.force_sphere)
    _emit({"schema": SCHEMA, "report": "euler-lagrange", **asdict(report)}, args.out)
    return 0 if report.passed else 3


def cmd_convexity(args) -> int:
    params = _params_from(args)
    report = convexity_report(params)
    _emit({"schema": SCHEMA, "report": "convexity", **asdict(report)}, args.out)
    return 0 if report.passed else 3


def _write_csv(path, header, rows) -> None:
    # A float cell is its repr, so it round-trips; None is an empty cell.
    def cell(v):
        if v is None:
            return ""
        return repr(float(v)) if isinstance(v, float) else str(v)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    _write_text("\n".join(lines) + "\n", path)


def cmd_simulate(args) -> int:
    params = _params_from(args)
    if args.n < 16:
        raise _UsageError(f"--n must be at least 16, got {args.n}")
    if not args.tol > 0:
        raise _UsageError(f"--tol must be positive, got {args.tol}")
    if args.max_iter < 1:
        raise _UsageError(f"--max-iter must be at least 1, got {args.max_iter}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    # An unwritable prefix is a usage error found before the descent:
    # append nothing to each artifact, and remove what that created.
    paths = [args.out + suffix for suffix in ("_positions.csv", "_trace.csv", "_stats.json")]
    for path in paths:
        existed = os.path.lexists(path)
        _write_text("", path, mode="a")
        if not existed:
            os.remove(path)
    converged = True
    try:
        state, stats = flow.run_to_convergence(
            params, args.n, args.seed, tol=args.tol, max_iter=args.max_iter
        )
    except NonConvergence as exc:
        if not args.allow_partial:
            raise
        state, stats = exc.partial
        converged = False

    _write_csv(paths[0], [f"x{k}" for k in range(state.positions.shape[1])], state.positions)
    trace = zip(range(len(state.energy_trace)), state.energy_trace, state.step_trace)
    _write_csv(paths[1], ("iteration", "energy", "step_size"), trace)

    payload = {
        "schema": SCHEMA,
        **asdict(params),
        "n_particles": args.n,
        "seed": args.seed,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "converged": converged,
        "iterations": state.iteration,
        "energy_evals": state.energy_evals,
        "backtracks": state.backtracks,
        "final_energy": state.energy_trace[-1],
        "final_max_force": flow.max_force(state),
        **asdict(stats),
    }
    payload["regime"] = classify(params).tag
    # Out of regime, or with a power-law beta next to 0, the closed form
    # gives no R or E to compare with; the descent ran all the same.
    with suppress(RegimeError, IllConditioned):
        cand, e_ref = candidate_for(params), energy(params)
        measured = stats.mean_radius if cand.kind == "UniformSphere" else stats.max_radius
        payload["R"] = cand.radius
        payload["E"] = e_ref
        payload["radius_rel_err"] = abs(measured - cand.radius) / cand.radius
        payload["energy_rel_err"] = abs(state.energy_trace[-1] - e_ref) / abs(e_ref)
    _emit(payload, paths[2])
    return 0


def cmd_phase_scan(args) -> int:
    d = args.d
    if args.alpha_steps < 1 or args.beta_steps < 1:
        raise _UsageError("step counts must be at least 1")
    # One chained comparison per axis: an inverted range or a NaN bound
    # fails it as well as a bound outside the supported interval.
    if not 2.0 <= args.alpha_min <= args.alpha_max <= 4.0:
        raise _UsageError("alpha range must satisfy 2 <= alpha-min <= alpha-max <= 4")
    if not -d < args.beta_min <= args.beta_max <= 2.0:
        raise _UsageError(f"beta range must satisfy -{d} < beta-min <= beta-max <= 2")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    # linspace misses an intended beta = 0 by rounding (1.1e-16, say);
    # such a grid point is the logarithmic kernel.
    zero_tol = 1e-12 * max(1.0, abs(args.beta_min), abs(args.beta_max))
    columns = ("alpha", "beta", "regime", "beta_star", "R", "E")
    rows = []
    for a in alphas:
        a = float(a)
        bs = _beta_star_or_none(d, a)
        for b in betas:
            b = 0.0 if abs(b) <= zero_tol else float(b)
            if b >= a:
                continue
            params = KernelParams(d, a, b, beta_is_log=(b == 0.0))
            tag = classify(params)
            label = tag.tag
            if bs is not None and a == 2.0 and abs(b - bs) <= 1e-12:
                # Junction where the two closed-form regimes meet.
                label = "Boundary/Sphere"
            if tag.tag == "OutOfScope":
                r_val, e_val = None, None
            else:
                r_val, e_val = radius(params), energy(params)
            rows.append(dict(zip(columns, (a, b, label, bs, r_val, e_val))))
    if args.format == "json":
        _emit({"schema": SCHEMA, "d": d, "rows": rows}, args.out)
        return 0
    _write_csv(args.out, columns, (row.values() for row in rows))
    return 0


def _add_param_flags(sp) -> None:
    sp.add_argument("--d", type=int, required=True, help="ambient dimension")
    sp.add_argument("--alpha", type=float, help="attraction exponent")
    sp.add_argument("--beta", type=float, help="repulsion exponent")
    sp.set_defaults(log_alpha=False)
    sp.add_argument(
        "--log-beta",
        action="store_true",
        help="logarithmic repulsion (beta = 0)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="aggremin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "closed-form", help="radius, energy, and multiplier of the minimizer"
    )
    _add_param_flags(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_closed_form)

    sp = sub.add_parser("verify-el", help="grid check of the sufficiency conditions")
    _add_param_flags(sp)
    sp.add_argument(
        "--force-sphere",
        action="store_true",
        help="test the sphere candidate even off its regime",
    )
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_verify_el)

    sp = sub.add_parser("convexity", help="second differences of the combination Psi")
    _add_param_flags(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_convexity)

    sp = sub.add_parser("simulate", help="particle descent with CSV/JSON artifacts")
    _add_param_flags(sp)
    # No closed form or audit covers a log attraction; only simulate takes one.
    sp.add_argument(
        "--log-alpha", action="store_true", help="logarithmic attraction (alpha = 0)"
    )
    sp.add_argument("--n", type=int, required=True, help="particle count (>= 16)")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument(
        "--tol", type=float, default=1e-6,
        help="force convergence target (default 1e-6)",
    )
    sp.add_argument("--max-iter", type=int, default=2000, help="iteration budget")
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.add_argument(
        "--allow-partial",
        action="store_true",
        help="write best-so-far artifacts instead of failing on non-convergence",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("phase-scan", help="regime map over an (alpha, beta) grid")
    sp.add_argument("--d", type=int, required=True, help="ambient dimension")
    sp.add_argument("--alpha-min", type=float, default=2.0)
    sp.add_argument("--alpha-max", type=float, default=4.0)
    sp.add_argument("--alpha-steps", type=int, default=21)
    sp.add_argument("--beta-min", type=float, required=True)
    sp.add_argument("--beta-max", type=float, default=2.0)
    sp.add_argument("--beta-steps", type=int, default=21)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="write here instead of stdout")
    sp.set_defaults(func=cmd_phase_scan)

    return parser


def _emit_error(exc: Exception) -> None:
    _emit(
        {
            "schema": SCHEMA,
            "error": {"type": type(exc).__name__, "reason": str(exc)},
        },
        None,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"aggremin: error: {exc}", file=sys.stderr)
        return 64
    except AggreminError as exc:
        # A refused input is a ValueError, a failed computation a
        # RuntimeError (see errors).
        _emit_error(exc)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
