"""Closed-form minimizers of power-law attraction-repulsion energies.

The package evaluates the two families of explicit minimizers (uniform
measure on a sphere; a radial profile on a ball), the special functions
behind them, independent quadrature and grid verification of the
optimality conditions, and an N-particle descent for empirical
cross-checks.  The ``aggremin`` command line exposes all of it.
"""

from .closed_form import (
    ball_density,
    beta_star,
    candidate_for,
    classify,
    energy,
    eta,
    radius,
)
from .errors import (
    AggreminError,
    DomainError,
    IllConditioned,
    NonConvergence,
    PoleError,
    QuadratureFailure,
    RegimeError,
    StallError,
)
from .flow import (
    ParticleSystem,
    RadialStats,
    discrete_energy,
    max_force,
    radial_stats,
    run_to_convergence,
    step,
)
from .params import CandidateMinimizer, KernelParams, RegimeTag
from .potentials import (
    ball_potential,
    psi_gamma,
    psi_values_at_one,
    quadratic_ball_moment,
    sphere_potential,
    tilde_psi0,
    total_potential,
    unit_sphere_area,
)
from .special import digamma, gamma_fn
from .verify import (
    ConvexityReport,
    ELReport,
    ball_potential_quad,
    convexity_report,
    psi_capital,
    psi_capital_dd_at_one,
    single_zero_scan,
    sphere_potential_quad,
    verify_euler_lagrange,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
