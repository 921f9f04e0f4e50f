"""Central tolerance configuration shared by every module.

All discrete verdicts in the library are thresholded against one
:class:`Tolerances` record, so reports can quote it.  Its one settable field,
``tol_rank``, only cuts ranks: the calls that cut one take the record as ``tols``
(default ``Tolerances()``), and the CLI's ``--tol-rank`` sets it.  The residual
checks test identities that hold exactly, so they read fixed class attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class InvariantViolation(RuntimeError):
    """An internal consistency check failed during a run."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the library; the residual ones are fixed class attributes.

    ``tol_rank`` is looser than the residual tolerances because singular
    values near zero feed discrete rank verdicts.
    """

    tol_herm: float = field(default=1e-9, init=False)     # Hermiticity residuals
    tol_recon: float = field(default=1e-9, init=False)    # factorization / idempotency residuals
    tol_rank: float = 1e-7                                # singular values counted as nonzero
    tol_compat: float = field(default=1e-9, init=False)   # commutator and product norms
    tol_support: float = field(default=1e-9, init=False)  # state support inclusion

    def __post_init__(self):
        if not (math.isfinite(self.tol_rank) and self.tol_rank > 0):
            raise ValueError(f"tolerance tol_rank must be finite and > 0, got {self.tol_rank!r}")

    def as_dict(self) -> dict[str, float]:
        # vars holds tol_rank alone, and dataclasses.asdict deep-copies
        return {f.name: getattr(self, f.name) for f in fields(self)}
