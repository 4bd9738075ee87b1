"""The package surface: the exported names, and what importing costs.

The public names are what the command line, the paper's closed forms
and their oracles need; a name that disappears from this list breaks
callers outside the package.  scipy.integrate is loaded only when a
quadrature oracle runs, and scipy.special only at the first 2F1 ufunc or
digamma call off the integers and half-integers, so ``import aggremin``
loads no scipy module, and the closed forms (power-law and logarithmic),
the particle flow and the audits of elementary profiles never load
scipy.special.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap

import aggremin
from aggremin import closed_form, errors, flow, params, potentials, special, verify

PUBLIC = {
    "AggreminError",
    "CandidateMinimizer",
    "ConvexityReport",
    "DomainError",
    "ELReport",
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

# The parameter names of every public callable that has a signature of
# its own: a new keyword fails test_public_signatures_are_pinned until it
# is listed here on purpose.  The error classes not named here define no
# constructor and take their built-in base's arguments.
SIGNATURES = {
    "CandidateMinimizer": ("kind", "radius"),
    "ConvexityReport": (
        "min_second_difference", "rho_min_second_difference", "psi_dd_at_one",
        "passed", "tol",
    ),
    "ELReport": (
        "eta", "support_max_abs_dev", "rho_worst_support", "exterior_min_margin",
        "rho_worst_exterior", "passed", "tol",
    ),
    "KernelParams": ("d", "alpha", "beta", "alpha_is_log", "beta_is_log"),
    "NonConvergence": ("message", "partial"),
    "ParticleSystem": ("positions", "params"),
    "RadialStats": ("mean_radius", "std_radius", "max_radius", "center"),
    "RegimeTag": ("tag", "detail"),
    "ball_density": ("params", "r"),
    "ball_potential": ("d", "gamma", "x_norm"),
    "ball_potential_quad": ("d", "gamma", "x_norm"),
    "beta_star": ("d", "alpha"),
    "candidate_for": ("params",),
    "classify": ("params",),
    "convexity_report": ("params",),
    "digamma": ("x",),
    "discrete_energy": ("sys",),
    "energy": ("params",),
    "eta": ("params",),
    "gamma_fn": ("x",),
    "max_force": ("sys",),
    "psi_capital": ("params", "rho"),
    "psi_capital_dd_at_one": ("params",),
    "psi_gamma": ("d", "gamma", "rho"),
    "psi_values_at_one": ("d", "gamma"),
    "quadratic_ball_moment": ("d", "beta"),
    "radial_stats": ("sys",),
    "radius": ("params",),
    "run_to_convergence": ("params", "n_particles", "seed", "tol", "max_iter"),
    "single_zero_scan": ("a1", "b1", "a2", "b2", "c", "q"),
    "sphere_potential": ("d", "gamma", "x_norm"),
    "sphere_potential_quad": ("d", "gamma", "x_norm"),
    "step": ("sys",),
    "tilde_psi0": ("d", "rho"),
    "total_potential": ("params", "candidate", "x_norm"),
    "unit_sphere_area": ("d",),
    "verify_euler_lagrange": ("params", "force_sphere"),
}


def test_public_names_are_exactly_the_supported_surface():
    assert len(aggremin.__all__) == len(PUBLIC) == 45
    assert set(aggremin.__all__) == PUBLIC
    for name in aggremin.__all__:
        assert getattr(aggremin, name) is not None, name


def test_each_public_name_is_declared_once_by_its_module():
    """Each module's __all__ is the one list of its public names: every
    name it lists is defined there, no two modules list one name, and
    the package exports their union and __version__, nothing else."""
    owner = {}
    for module in (closed_form, errors, flow, params, potentials, special, verify):
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
            assert name not in owner, (name, owner.get(name), module.__name__)
            owner[name] = module.__name__
    assert sorted(aggremin.__all__) == sorted([*owner, "__version__"])


def test_public_signatures_are_pinned():
    assert set(SIGNATURES) <= PUBLIC
    for name in sorted(PUBLIC - {"__version__"}):
        obj = getattr(aggremin, name)
        if name in SIGNATURES:
            assert tuple(inspect.signature(obj).parameters) == SIGNATURES[name], name
        else:
            assert issubclass(obj, aggremin.AggreminError), name
            assert "__init__" not in vars(obj), name


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
    """The gamma- and digamma-function answers, the log kernel's included,
    and the flow run without scipy.special.  So do the Euler-Lagrange
    audit and the convexity report where every profile is elementary:
    the d = 3 sphere profile (Archimedes' shell formula) and a
    terminating 2F1 series, here alpha = 3 in d = 5.  The d = 2 audit,
    whose 2F1 profiles are neither, loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aggremin.__file__)))
    code = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        sys.path.insert(0, {src!r})
        import aggremin
        from aggremin import cli
        seen = {{"import": any(m.startswith("scipy") for m in sys.modules)}}
        for point in ((2, 3.0, 1.7), (3, 2.0, -1.0), (3, 2.0, 0.0), (5, 3.0, 0.0)):
            p = aggremin.KernelParams(*point, beta_is_log=point[2] == 0.0)
            values = (aggremin.radius(p), aggremin.energy(p), aggremin.eta(p))
            assert all(v == v for v in values), values
            seen[f"closed forms {{point}}"] = "scipy.special" in sys.modules
        commands = {{
            "closed-form": ["closed-form", "--d", "2", "--alpha", "3", "--beta", "1.7"],
            "closed-form --log-beta": ["closed-form", "--d", "3", "--alpha", "2", "--log-beta"],
            "phase-scan through 0": ["phase-scan", "--d", "3", "--alpha-min", "2.0",
                                     "--alpha-max", "2.0", "--alpha-steps", "1", "--beta-min",
                                     "-0.7", "--beta-max", "2.0", "--beta-steps", "28"],
            "phase-scan": ["phase-scan", "--d", "3", "--beta-min", "-1.5", "--beta-max", "1.5",
                           "--beta-steps", "4", "--alpha-steps", "3", "--format", "json"],
            "simulate": ["simulate", "--d", "2", "--alpha", "3", "--beta", "1.75", "--n", "16",
                         "--max-iter", "3", "--allow-partial", "--out", {str(tmp_path / "sim")!r}],
            "verify-el --force-sphere": ["verify-el", "--force-sphere", "--d", "3", "--alpha", "3",
                                         "--beta", "0.5"],
            "convexity --log-beta": ["convexity", "--d", "5", "--alpha", "3", "--log-beta"],
        }}
        for name, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            # The forced sphere at (3, 3, 0.5) fails its audit: exit 3.
            assert rc == (3 if "--force-sphere" in argv else 0), (name, rc)
            seen[name] = "scipy.special" in sys.modules
        KernelParams = aggremin.KernelParams
        aggremin.verify_euler_lagrange(KernelParams(3, 3.0, 0.5), force_sphere=True)
        seen["verify_euler_lagrange d = 3 forced"] = "scipy.special" in sys.modules
        aggremin.verify_euler_lagrange(KernelParams(3, 2.5, 1.5))
        seen["verify_euler_lagrange d = 3"] = "scipy.special" in sys.modules
        aggremin.convexity_report(KernelParams(5, 3.0, 0.0, beta_is_log=True))
        seen["convexity_report terminating"] = "scipy.special" in sys.modules
        aggremin.verify_euler_lagrange(KernelParams(2, 3.0, 1.7))
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
    assert len(seen) == 15
