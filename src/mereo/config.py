"""Central tolerance configuration shared by every module.

All discrete verdicts in the library (rank counts, compatibility flags,
support membership) are thresholded against the values here, so reports can
quote a single tolerance record.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

ENV_OVERRIDE = "MEREO_TOL_OVERRIDE"


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
        return {
            "tol_herm": self.tol_herm,
            "tol_recon": self.tol_recon,
            "tol_rank": self.tol_rank,
            "tol_compat": self.tol_compat,
            "tol_support": self.tol_support,
        }


def active_tolerances() -> Tolerances:
    """Default tolerances, with optional overrides from MEREO_TOL_OVERRIDE.

    The environment variable, when set, must hold a JSON object whose keys
    are a subset of the ``Tolerances`` field names.
    """
    base = Tolerances()
    raw = os.environ.get(ENV_OVERRIDE)
    if not raw:
        return base
    try:
        fields = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_OVERRIDE} is not valid JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise ValueError(f"{ENV_OVERRIDE} must be a JSON object")
    unknown = set(fields) - set(base.as_dict())
    if unknown:
        raise ValueError(f"{ENV_OVERRIDE} has unknown keys: {sorted(unknown)}")
    values = {}
    for key, value in fields.items():
        try:
            values[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{ENV_OVERRIDE}: {key} must be a number, got {value!r}") from exc
    return replace(base, **values)
