"""Matrix file schema, built-in presets, and random amplitude sources."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .doubleket import AmplitudeMatrix
from .linalg import SystemDims, as_matrix, ginibre

PRESET_NAMES = ("bell2", "product2", "maxent3")


def matrix_to_json_dict(m) -> dict:
    """Serialize a matrix as ``{rows, cols, re, im}`` with row-major arrays."""
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def matrix_from_json_dict(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValueError("matrix record must be a JSON object")
    try:
        rows = int(data["rows"])
        cols = int(data["cols"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix record: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix record has {re.size}/{im.size} entries, expected {rows * cols}"
        )
    return as_matrix((re + 1j * im).reshape(rows, cols))


def load_matrix(path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    return matrix_from_json_dict(json.loads(text))


def preset_matrix(name: str) -> np.ndarray:
    if name == "bell2":
        return np.eye(2, dtype=complex) / np.sqrt(2.0)
    if name == "product2":
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = 1.0
        return m
    if name == "maxent3":
        return np.eye(3, dtype=complex) / np.sqrt(3.0)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def preset_amplitude(name: str) -> AmplitudeMatrix:
    return AmplitudeMatrix(preset_matrix(name))


def random_amplitude(seed: int, dims: SystemDims) -> AmplitudeMatrix:
    """Unit-norm Ginibre draw, reproducible from the seed alone."""
    rng = np.random.default_rng([int(seed)])
    return AmplitudeMatrix.normalized(ginibre(SystemDims(int(dims[0]), int(dims[1])), rng))
