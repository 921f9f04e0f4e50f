"""Matrix file schema, built-in presets, and random amplitude sources."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import Tolerances
from .doubleket import AmplitudeMatrix
from .linalg import SystemDims, as_matrix, as_seed, as_sizes, frob, ginibre
from .properties import Property

PRESET_NAMES = ("bell2", "product2", "maxent3")


def matrix_to_json_dict(m) -> dict:
    """Serialize a matrix as ``{rows, cols, re, im}`` with row-major arrays."""
    return _record(as_matrix(m))


def _record(m: np.ndarray) -> dict:
    """The ``{rows, cols, re, im}`` record of a finite 2-D complex array, not re-validated."""
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def _parse_record(data, *, min_cols: int) -> np.ndarray:
    """Complex array of a ``{rows, cols, re, im}`` record, signed zeros kept."""
    if not isinstance(data, dict):
        raise ValueError("matrix record must be a JSON object")
    try:
        rows, cols = as_sizes((data["rows"], data["cols"]))
        re, im = data["re"], data["im"]
        # JSON numbers only, found in one C-level pass: np.asarray takes bools, strings and nesting
        if not all(type(part) is list and set(map(type, part)) <= {int, float} for part in (re, im)):
            raise ValueError("re and im must be arrays of numbers")
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a float array overflows on 10**400
        raise ValueError(f"malformed matrix record: {exc}") from exc
    if rows < 1 or cols < min_cols:
        raise ValueError(f"matrix record needs rows >= 1 and cols >= {min_cols}, got {rows}x{cols}")
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix record has {re.size}/{im.size} entries, expected {rows * cols}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix record contains non-finite entries")
    m = np.empty(rows * cols, dtype=complex)
    m.real = re.reshape(-1)
    m.imag = im.reshape(-1)
    return m.reshape(rows, cols)


def property_to_json_dict(p: Property) -> dict:
    """Serialize a projector built by ``Property.from_basis`` as ``{dim, rank, complement, basis}``.

    The projector is ``B B^dag``, or ``I - B B^dag`` when ``complement``, with
    ``B`` the ``basis`` matrix record; ``B`` may have zero columns.
    """
    if p.basis is None:
        raise ValueError("only a projector built from a basis has a record")
    return {"dim": p.dim, "rank": p.rank, "complement": p.complement, "basis": _record(p.basis)}


def property_from_json_dict(data) -> Property:
    """Rebuild a projector record bit for bit, after checking its shape and orthonormality."""
    if not isinstance(data, dict) or not isinstance(data.get("complement"), bool):
        raise ValueError("projector record needs a boolean 'complement'")
    b = _parse_record(data.get("basis"), min_cols=0)
    dim, cols = b.shape
    if cols > dim:
        raise ValueError(f"projector basis has {cols} columns in dimension {dim}")
    p = Property.from_basis(b, data["complement"])
    if as_sizes((data.get("dim"), data.get("rank"))) != (p.dim, p.rank):
        raise ValueError(
            f"projector record claims dim {data.get('dim')!r}, rank {data.get('rank')!r}; "
            f"its basis gives dim {p.dim}, rank {p.rank}"
        )
    if frob(b.conj().T @ b - np.eye(cols)) > Tolerances.tol_recon:
        raise ValueError("projector basis columns are not orthonormal")
    return p


def load_matrix(path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except RecursionError as exc:  # the parser recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    return _parse_record(data, min_cols=1)


def preset_amplitude(name: str) -> AmplitudeMatrix:
    if name == "bell2":
        return AmplitudeMatrix(np.eye(2, dtype=complex) / np.sqrt(2.0))
    if name == "product2":
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = 1.0
        return AmplitudeMatrix(m)
    if name == "maxent3":
        return AmplitudeMatrix(np.eye(3, dtype=complex) / np.sqrt(3.0))
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def random_amplitude(seed: int, dims: SystemDims) -> AmplitudeMatrix:
    """Unit-norm Ginibre draw, reproducible from the seed alone."""
    rng = np.random.default_rng([as_seed(seed)])
    return AmplitudeMatrix.normalized(ginibre(dims, rng))
