"""Subgroups of free groups as lazy Schreier coset graphs.

Three constructions over arbitrary base laws — the self-normalizing
tripling perturbation, the percolation-and-surgery sampler and the subshift
encoding — plus exact and Monte Carlo machinery for checking invariance,
convergence and equivariance of the resulting subgroup laws.
"""

from .actions import (
    FiniteAction,
    first_return,
    graphing_cost,
    is_totally_nonfree,
    orbit_schreier,
    stab_equal,
    stab_pushforward_law,
)
from .analysis import (
    aut_count,
    canonical_code,
    cylinder_fingerprint,
    metric,
    oracle_from_code,
    root_isomorphic,
    rooted_equal_finite,
    z_set_member,
)
from .encoding import (
    PsiOracle,
    SubshiftPoint,
    SubshiftSpace,
    decode,
    in_Z,
    lambda_pushforward,
    psi_oracle,
    translate_count,
    upsilon,
)
from .errors import (
    AmbiguityError,
    BudgetError,
    DomainError,
    HorizonError,
    InvalidGraphError,
    NotInYError,
    NotInZError,
)
from .laws import NormalizerLaw, PointLaw, PoulsenLaw, trivial_law
from .measures import AtomicMeasure, tv_distance
from .montecarlo import (
    CylinderSpec,
    EstimateReport,
    convergence_sweep,
    estimate_cylinder,
    exact_invariance_rows,
    invariance_report,
)
from .normalizer import (
    MarkLaw,
    NormalizerOracle,
    aut_trivial_mass,
    enumerate_normalizer_law,
    mark,
    normalizer_oracle,
)
from .oracles import (
    BallView,
    CayleyOracle,
    FiniteOracle,
    SchreierOracle,
    ball,
    conjugate,
    contains,
    trace,
    validate_schreier_ball,
)
from .poulsen import (
    PercolationGraph,
    PoulsenOracle,
    inverse_surgery,
    poulsen_oracle,
    star_ball,
    star_records,
    surgery,
)
from .sgr import emit_edgelist, emit_sgr, parse_complete_oracle, parse_sgr
from .words import (
    Word,
    concat,
    inverse_word,
    phi_inverse_word,
    phi_word,
    reduce_word,
    word_from_str,
    word_to_str,
    words_upto,
)

__version__ = "0.1.0"
