"""mereo: certify joint quantum properties against factorized ones.

The library treats a property of a quantum system as an orthogonal
projector, builds rank-1 joint properties from unit-norm amplitude
matrices, certifies analytically whether they commute with any nontrivial
factorized projector pair, cross-checks the verdicts with a numerical
commutant search, and verifies the bijection between projectors and
repeatable atomic operations.
"""

__version__ = "0.9.0"

from .config import InvariantViolation, Tolerances
from .doubleket import AmplitudeMatrix, swap_operator
from .holism import (
    HolismVerdict,
    NontrivialityConvention,
    Witness,
    certify_rank1,
    lattice_amplitudes,
    marginal_entropy,
    product_commutator_norm,
)
from .linalg import SystemDims, frob, ginibre, partial_trace
from .properties import (
    Property,
    State,
    Verdict,
    compatible,
    has_property,
    is_nontrivial,
    mutually_exclusive,
    property_from_span,
    symmetric_projector,
)
from .search import (
    EXCLUDE_FLOOR,
    SearchConfig,
    brute_force_grid_d2,
    density_scan,
    minimize,
    objective_value_and_grad,
    projector_from_coords,
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
    "EXCLUDE_FLOOR",
    "AmplitudeMatrix",
    "ChoiMatrix",
    "HolismVerdict",
    "InvariantViolation",
    "NontrivialityConvention",
    "Property",
    "QuantumTransformation",
    "SearchConfig",
    "State",
    "SystemDims",
    "Tolerances",
    "Verdict",
    "Witness",
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
    "has_property",
    "is_nontrivial",
    "is_repeatable",
    "lattice_amplitudes",
    "marginal_entropy",
    "minimize",
    "mutually_exclusive",
    "objective_value_and_grad",
    "partial_trace",
    "product_commutator_norm",
    "projector_from_coords",
    "property_from_span",
    "swap_operator",
    "symmetric_projector",
    "__version__",
]
