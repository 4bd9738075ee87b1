"""The package surface: the exported names, and what importing costs.

The public names are what the command line, the paper's closed forms
and their oracles need; a name that disappears from this list breaks
callers outside the package.  scipy.integrate is loaded only when a
quadrature oracle runs, and scipy.special only at the first 2F1 ufunc or
digamma call, so ``import aggremin`` loads no scipy module, and the
power-law closed forms and the particle flow never load scipy.special.
"""

import json
import os
import subprocess
import sys
import textwrap

import aggremin

PUBLIC = {
    "AggreminError",
    "CandidateMinimizer",
    "ConvexityReport",
    "DomainError",
    "ELReport",
    "Hyp2F1Input",
    "IllConditioned",
    "KernelParams",
    "NonConvergence",
    "ParticleSystem",
    "PoleError",
    "QuadratureFailure",
    "RadialStats",
    "RegimeError",
    "RegimeTag",
    "StallError",
    "__version__",
    "ball_density",
    "ball_potential",
    "ball_potential_quad",
    "beta_star",
    "candidate_for",
    "classify",
    "convexity_report",
    "digamma",
    "discrete_energy",
    "energy",
    "eta",
    "gamma_fn",
    "hyp2f1",
    "max_force",
    "psi_capital",
    "psi_capital_dd_at_one",
    "psi_gamma",
    "psi_values_at_one",
    "quadratic_ball_moment",
    "radial_stats",
    "radius",
    "run_to_convergence",
    "single_zero_scan",
    "sphere_potential",
    "sphere_potential_quad",
    "step",
    "tilde_psi0",
    "total_potential",
    "unit_sphere_area",
    "verify_euler_lagrange",
}


def test_public_names_are_exactly_the_supported_surface():
    assert len(aggremin.__all__) == len(PUBLIC) == 47
    assert set(aggremin.__all__) == PUBLIC
    for name in aggremin.__all__:
        assert getattr(aggremin, name) is not None, name


def test_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(aggremin.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import aggremin\n"
        "print('scipy.integrate' in sys.modules)\n"
        "value = aggremin.sphere_potential_quad(3, 1.0, 0.5)\n"
        "print('scipy.integrate' in sys.modules)\n"
        "print(repr(value))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    before, after, value = proc.stdout.split()
    assert before == "False"
    assert after == "True"
    assert abs(float(value) - aggremin.sphere_potential(3, 1.0, 0.5)) < 1e-10


def test_power_law_closed_forms_leave_scipy_special_unloaded(tmp_path):
    """The gamma-function answers and the flow run without scipy.special;
    the Euler-Lagrange audit, which evaluates 2F1 inside (0, 1), loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aggremin.__file__)))
    code = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        sys.path.insert(0, {src!r})
        import aggremin
        from aggremin import cli
        seen = {{"import": any(m.startswith("scipy") for m in sys.modules)}}
        for point in ((2, 3.0, 1.7), (3, 2.0, -1.0)):
            p = aggremin.KernelParams(*point)
            values = (aggremin.radius(p), aggremin.energy(p), aggremin.eta(p))
            assert all(v == v for v in values), values
            seen[f"closed forms {{point}}"] = "scipy.special" in sys.modules
        commands = {{
            "closed-form": ["closed-form", "--d", "2", "--alpha", "3", "--beta", "1.7"],
            "phase-scan": ["phase-scan", "--d", "3", "--beta-min", "-1.5", "--beta-max", "1.5",
                           "--beta-steps", "4", "--alpha-steps", "3", "--format", "json"],
            "simulate": ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "16",
                         "--max-iter", "3", "--allow-partial", "--out", {str(tmp_path / "sim")!r}],
        }}
        for name, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            assert rc == 0, (name, rc)
            seen[name] = "scipy.special" in sys.modules
        aggremin.verify_euler_lagrange(aggremin.KernelParams(2, 3.0, 1.7))
        seen["verify_euler_lagrange"] = "scipy.special" in sys.modules
        print(json.dumps(seen))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("verify_euler_lagrange") is True
    assert seen == dict.fromkeys(seen, False)
    assert len(seen) == 6
