"""Exact parametrization of state-feedback gains assigning a similarity class.

Given a controllable pair (F, G) and a prescribed set of invariant
polynomials (as factored spectral data), this package decides feasibility
and builds explicit local charts x -> K(x) of the manifold of gains K with
F + G K in that class, entirely in exact rational arithmetic.
"""

from .canonical import (
    SpectralData,
    WeyrStructure,
    centralizer_dimension,
    centralizer_dimension_weyr,
    invariant_chain,
    weyr_from_spectral,
    weyr_union,
)
from .chart import (
    Chart,
    FeedbackGain,
    build_chart,
    chart_for_gain,
    coordinates,
    default_multi_index,
    in_domain,
    manifold_dimension,
    nu,
    phi,
    synthesize,
)
from .errors import (
    ChartDomainError,
    GainchartError,
    InfeasibleError,
    NotInChartError,
    NotInClassError,
    ParseError,
    UncontrollableError,
    VerificationError,
)
from .feedback import (
    BrunovskyData,
    ControlPair,
    controllability_indices,
    p_brunovsky_pair,
    rosenbrock_feasible,
    to_p_brunovsky,
)
from .linalg import RatMatrix, SingularMatrixError, diamond
from .observability import (
    TruncObsMatrix,
    assemble,
    find_admissible,
    find_multi_index,
    is_admissible,
)
from .partitions import Partition
from .poly import InvariantChain, UniPoly, invariant_polynomials
from .reduction import ReducedForm, reduce

__version__ = "0.1.0"

__all__ = [
    "BrunovskyData",
    "Chart",
    "ChartDomainError",
    "ControlPair",
    "FeedbackGain",
    "GainchartError",
    "InfeasibleError",
    "InvariantChain",
    "NotInChartError",
    "NotInClassError",
    "ParseError",
    "Partition",
    "RatMatrix",
    "ReducedForm",
    "SingularMatrixError",
    "SpectralData",
    "TruncObsMatrix",
    "UncontrollableError",
    "UniPoly",
    "VerificationError",
    "WeyrStructure",
    "assemble",
    "build_chart",
    "centralizer_dimension",
    "centralizer_dimension_weyr",
    "chart_for_gain",
    "controllability_indices",
    "coordinates",
    "default_multi_index",
    "diamond",
    "find_admissible",
    "find_multi_index",
    "in_domain",
    "invariant_chain",
    "invariant_polynomials",
    "is_admissible",
    "manifold_dimension",
    "nu",
    "p_brunovsky_pair",
    "phi",
    "reduce",
    "rosenbrock_feasible",
    "synthesize",
    "to_p_brunovsky",
    "weyr_from_spectral",
    "weyr_union",
]
