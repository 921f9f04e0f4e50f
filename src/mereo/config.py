"""Central tolerance configuration shared by every module.

All discrete verdicts in the library (rank counts, compatibility flags,
support membership) are thresholded against one :class:`Tolerances` record,
so reports can quote it.  Library calls take that record as ``tols`` and
default to ``Tolerances()``; they read no environment.  The
``MEREO_TOL_OVERRIDE`` environment variable configures the CLI only:
``cli.main`` resolves it once, through :func:`active_tolerances`.
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
        # vars, not dataclasses.asdict: the same keys in field order, without a deep copy
        return dict(vars(self))


def active_tolerances() -> Tolerances:
    """The CLI's tolerances: defaults, with optional overrides from MEREO_TOL_OVERRIDE.

    The environment variable, when set, must hold a JSON object whose keys
    are a subset of the ``Tolerances`` field names and whose values are JSON
    numbers.  Only ``cli.main`` calls this; library calls take ``tols`` and
    never read the environment.
    """
    base = Tolerances()
    raw = os.environ.get(ENV_OVERRIDE)
    if not raw:
        return base
    try:
        # an integer beyond the double range reads as inf, which Tolerances rejects
        fields = json.loads(raw, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_OVERRIDE} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nesting level
        raise ValueError(f"{ENV_OVERRIDE} is JSON nested too deeply") from exc
    if not isinstance(fields, dict):
        raise ValueError(f"{ENV_OVERRIDE} must be a JSON object")
    unknown = set(fields) - set(base.as_dict())
    if unknown:
        raise ValueError(f"{ENV_OVERRIDE} has unknown keys: {sorted(unknown)}")
    for key, value in fields.items():
        if type(value) is not float:  # not true or "1e-5", which float() would take
            raise ValueError(f"{ENV_OVERRIDE}: {key} must be a number, got {value!r}")
    return replace(base, **fields)
