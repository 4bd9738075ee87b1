"""Closed-form minimizers of power-law attraction-repulsion energies.

The package evaluates the two families of explicit minimizers (uniform
measure on a sphere; a radial profile on a ball), the special functions
behind them, independent quadrature and grid verification of the
optimality conditions, and an N-particle descent for empirical
cross-checks.  The ``aggremin`` command line exposes all of it.
"""

from . import closed_form, errors, flow, params, potentials, special, verify
from .closed_form import *
from .errors import *
from .flow import *
from .params import *
from .potentials import *
from .special import *
from .verify import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (closed_form, errors, flow, params, potentials, special, verify)
    for name in module.__all__
] + ["__version__"]
