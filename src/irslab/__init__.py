"""Subgroups of free groups as lazy Schreier coset graphs.

Three constructions over arbitrary base laws — the self-normalizing
tripling perturbation, the percolation-and-surgery sampler and the subshift
encoding — plus exact and Monte Carlo machinery for checking invariance,
convergence and equivariance of the resulting subgroup laws.

The package exports what the scripts import, and the error classes; every
other name is imported from the module that defines it. Each submodule but
the CLI is loaded here, so `irslab.<module>.<name>` resolves after
`import irslab`.
"""

from . import (actions, analysis, encoding, errors, laws, lines, measures,
               montecarlo, normalizer, oracles, poulsen, randomness, sgr,
               words)
from .analysis import cylinder_fingerprint
from .errors import (AmbiguityError, BudgetError, DomainError, HorizonError,
                     InvalidGraphError, NotInYError, NotInZError)
from .laws import NormalizerLaw, PointLaw, PoulsenLaw, trivial_law
from .montecarlo import CylinderSpec, invariance_report
from .normalizer import aut_trivial_mass
from .oracles import FiniteOracle

__version__ = "0.1.0"
