"""Central tolerance configuration shared by every module.

All discrete verdicts in the library (rank counts, compatibility flags,
support membership) are thresholded against one :class:`Tolerances` record,
so reports can quote it.  Library calls take that record as ``tols`` and
default to ``Tolerances()``; the CLI builds ``Tolerances()`` and applies
``--tol-rank``, its one tolerance flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvariantViolation(RuntimeError):
    """An internal consistency check failed during a run."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the library.

    ``tol_rank`` is looser than the residual tolerances because singular
    values near zero feed discrete rank verdicts.
    """

    tol_herm: float = 1e-9     # Hermiticity residuals
    tol_recon: float = 1e-9    # factorization / idempotency residuals
    tol_rank: float = 1e-7     # singular values counted as nonzero
    tol_compat: float = 1e-9   # commutator and product norms
    tol_support: float = 1e-9  # state support inclusion

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and > 0, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        # vars, not dataclasses.asdict: the same keys in field order, without a deep copy
        return dict(vars(self))
