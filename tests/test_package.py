"""The package surface: the exported names, and what importing costs.

The public names are what the command line, the paper's closed forms
and their oracles need; a name that disappears from this list breaks
callers outside the package.  scipy.integrate is loaded only when a
quadrature oracle runs, so ``import aggremin`` must leave it unloaded.
"""

import os
import subprocess
import sys

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
