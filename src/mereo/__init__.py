"""mereo: certify joint quantum properties against factorized ones.

The library treats a property of a quantum system as an orthogonal
projector, builds rank-1 joint properties from unit-norm amplitude
matrices, certifies analytically whether they commute with any nontrivial
factorized projector pair, cross-checks the verdicts with a numerical
commutant search, and verifies the bijection between projectors and
repeatable atomic operations.
"""

__version__ = "0.1.0"

from .config import ENV_OVERRIDE, InvariantViolation, Tolerances, active_tolerances
from .doubleket import AmplitudeMatrix, DoubleKet, apply_local, swap_operator, unvec, vec
from .holism import (
    HolismVerdict,
    NontrivialityConvention,
    ProductProperty,
    certify_rank1,
    gram_schmidt_hs,
    holistic_lattice,
    lattice_amplitudes,
    make_holistic,
    marginal_entropy,
    product_commutator_norm,
)
from .linalg import SystemDims, as_matrix, frob, ginibre, hs_inner, kron, partial_trace
from .properties import (
    Property,
    PropertyCheck,
    State,
    Verdict,
    compatible,
    has_property,
    is_nontrivial,
    mutually_exclusive,
    product_if_property,
    property_from_span,
    symmetric_projector,
)
from .search import (
    EXCLUDE_FLOOR,
    DensityReport,
    SearchConfig,
    SearchResult,
    bloch_projectors,
    brute_force_grid_d2,
    density_scan,
    minimize,
    objective,
    objective_value_and_grad,
    parametrize_projector,
    random_product_pair,
)
from .transform import (
    ChoiMatrix,
    QuantumTransformation,
    choi,
    compose,
    extract_property,
    from_property,
    is_repeatable,
)

__all__ = [
    "ENV_OVERRIDE",
    "EXCLUDE_FLOOR",
    "AmplitudeMatrix",
    "ChoiMatrix",
    "DensityReport",
    "DoubleKet",
    "HolismVerdict",
    "InvariantViolation",
    "NontrivialityConvention",
    "ProductProperty",
    "Property",
    "PropertyCheck",
    "QuantumTransformation",
    "SearchConfig",
    "SearchResult",
    "State",
    "SystemDims",
    "Tolerances",
    "Verdict",
    "active_tolerances",
    "apply_local",
    "as_matrix",
    "bloch_projectors",
    "brute_force_grid_d2",
    "certify_rank1",
    "choi",
    "compatible",
    "compose",
    "density_scan",
    "extract_property",
    "frob",
    "from_property",
    "ginibre",
    "gram_schmidt_hs",
    "has_property",
    "holistic_lattice",
    "hs_inner",
    "is_nontrivial",
    "is_repeatable",
    "kron",
    "lattice_amplitudes",
    "make_holistic",
    "marginal_entropy",
    "minimize",
    "mutually_exclusive",
    "objective",
    "objective_value_and_grad",
    "parametrize_projector",
    "partial_trace",
    "product_commutator_norm",
    "product_if_property",
    "property_from_span",
    "random_product_pair",
    "swap_operator",
    "symmetric_projector",
    "unvec",
    "vec",
    "__version__",
]
