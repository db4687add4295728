"""Certified discrete Chebyshev/Gruss-type bounds on inner product spaces.

Computes weighted-sequence functionals (Chebyshev functional, scalar-weighted
vector functional, variance, mean absolute deviation), verifies the
equivalent ball/box hypotheses behind their upper-bound chains, evaluates
every chain, applies the machinery to reverse Jensen's inequality for
differentiable convex functions, and probes the sharpness of the constants
by exact construction and randomized search.
"""

from .bounds import (
    BoundChain,
    BoundLink,
    bound_chebyshev,
    bound_chebyshev_gruss,
    bound_complex_sequence,
    bound_forward_difference,
    bound_forward_difference_self,
    bound_scalar_weighted,
    bound_variance,
    equal_weight_coefficients,
    half_complementary_weight,
    index_variance,
    pair_index_coefficient,
)
from .conditions import (
    ConditionReport,
    Enclosure,
    check_ball,
    check_box,
    check_scalar_disc,
    fit_enclosure,
)
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    EnclosureFitError,
    GrussBoundsError,
    HypothesisError,
    InstanceFormatError,
    SoundnessError,
)
from .functionals import (
    WeightedSequence,
    alpha_abs_deviation,
    alpha_variance,
    chebyshev,
    identity_residual_24,
    identity_residual_210,
    mad,
    pair_scale,
    variance,
    vector_gruss,
)
from .jensen import (
    ConvexOracle,
    JensenReport,
    ORACLE_FACTORIES,
    get_oracle,
    gradient_check,
    jensen_gap,
    pairing_gap,
    reverse_jensen,
)
from .sharpness import SharpnessResult, TARGETS, extremal_thm23, search
from .space import (
    COMPLEX,
    REAL,
    ProbabilityVector,
    Space,
    forward_differences,
    inner,
    norm,
)

__version__ = "0.1.0"

__all__ = [
    "BoundChain",
    "BoundLink",
    "COMPLEX",
    "ConditionReport",
    "ContractViolationError",
    "ConvexOracle",
    "DegenerateInputError",
    "DimensionMismatchError",
    "Enclosure",
    "EnclosureFitError",
    "GrussBoundsError",
    "HypothesisError",
    "InstanceFormatError",
    "JensenReport",
    "ORACLE_FACTORIES",
    "ProbabilityVector",
    "REAL",
    "SharpnessResult",
    "SoundnessError",
    "Space",
    "TARGETS",
    "WeightedSequence",
    "alpha_abs_deviation",
    "alpha_variance",
    "bound_chebyshev",
    "bound_chebyshev_gruss",
    "bound_complex_sequence",
    "bound_forward_difference",
    "bound_forward_difference_self",
    "bound_scalar_weighted",
    "bound_variance",
    "chebyshev",
    "check_ball",
    "check_box",
    "check_scalar_disc",
    "equal_weight_coefficients",
    "extremal_thm23",
    "fit_enclosure",
    "forward_differences",
    "get_oracle",
    "gradient_check",
    "half_complementary_weight",
    "identity_residual_24",
    "identity_residual_210",
    "index_variance",
    "inner",
    "jensen_gap",
    "mad",
    "norm",
    "pair_index_coefficient",
    "pair_scale",
    "pairing_gap",
    "reverse_jensen",
    "search",
    "variance",
    "vector_gruss",
]
