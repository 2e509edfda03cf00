"""Exact coupled K-stability invariants for toric Fano models.

The package computes, in exact rational arithmetic, the coupled Futaki
vector, twisted and reduced coupled J norms, coupled Ding invariants and
coupled stability thresholds of a toric Fano model equipped with a
Minkowski decomposition of its anticanonical polytope, and property-tests
the filtration-algebra identities tying those invariants together.
"""

from .errors import CkstabError, InputError, InternalInvariantError
from .geometry import (Cone, DegenerateInput, DimensionMismatch, EmptyRegion,
                       ExactPolytope, GeometryError, HalfSpace,
                       UnboundedRegion, centroid, lattice_points,
                       minkowski_sum, normal_fan, support_value, volume)
from .toric import (TOTAL, DecompositionMismatch, MonomialIdealSeq,
                    NonIntegralScaling, NotReflexive, RankMismatch,
                    ToricFanoModel, build_model, integrality_step,
                    log_discrepancy, monomial_lct, s_invariant,
                    section_basis, t_invariant, theta_twist)
from .filtration import (EmptyDecomposition, Filtration, FiltrationFamily,
                         GradedBasis, GridMismatch, MissingCharacter,
                         NotIntegerValued, UnboundedWeights,
                         UnsupportedDescriptor, approximate, base_change,
                         construct, graded_basis, numerics, round_weights,
                         shift, sum_filtration, trivial_family, twist,
                         twist_family, valuation_family,
                         valuation_filtration)
from .optimize import minimize_pl_ratio
from .stability import (CoupledBarycenter, DegenerateSubtorus, RankTooHigh,
                        StabilityError, SubtorusSpec, SuiteFailure,
                        coupled_delta, coupled_ding, coupled_futaki,
                        find_destabilizer, identity_suite, inner_twist_sup,
                        j_twist, mu_slope, reduced_coupled_delta,
                        reduced_coupled_j, semistable_verdict,
                        twisted_ratio_profile)
from .serialize import (ParseError, ValidationError, canonical_json,
                        format_rational, load_model, model_from_json,
                        parse_rational)

__version__ = "0.1.0"

__all__ = [
    "CkstabError", "InputError", "InternalInvariantError",
    # geometry
    "Cone", "DegenerateInput", "DimensionMismatch", "EmptyRegion",
    "ExactPolytope", "GeometryError", "HalfSpace", "UnboundedRegion",
    "centroid", "lattice_points", "minkowski_sum", "normal_fan",
    "support_value", "volume",
    # toric
    "TOTAL", "DecompositionMismatch", "MonomialIdealSeq",
    "NonIntegralScaling", "NotReflexive", "RankMismatch", "ToricFanoModel",
    "build_model", "integrality_step", "log_discrepancy", "monomial_lct",
    "s_invariant", "section_basis", "t_invariant", "theta_twist",
    # filtration
    "EmptyDecomposition", "Filtration", "FiltrationFamily", "GradedBasis",
    "GridMismatch", "MissingCharacter", "NotIntegerValued",
    "UnboundedWeights", "UnsupportedDescriptor", "approximate",
    "base_change", "construct", "graded_basis", "numerics", "round_weights",
    "shift", "sum_filtration", "trivial_family", "twist", "twist_family",
    "valuation_family", "valuation_filtration",
    # optimize
    "minimize_pl_ratio",
    # stability
    "CoupledBarycenter", "DegenerateSubtorus", "RankTooHigh",
    "StabilityError", "SubtorusSpec", "SuiteFailure", "coupled_delta",
    "coupled_ding", "coupled_futaki", "find_destabilizer", "identity_suite",
    "inner_twist_sup", "j_twist", "mu_slope", "reduced_coupled_delta",
    "reduced_coupled_j", "semistable_verdict", "twisted_ratio_profile",
    # serialize
    "ParseError", "ValidationError", "canonical_json", "format_rational",
    "load_model", "model_from_json", "parse_rational",
]
