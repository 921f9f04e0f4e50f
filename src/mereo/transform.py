"""Quantum operations as Kraus families and their Choi matrices.

A repeatable atomic operation (single Kraus element, idempotent as a map)
is the operational face of a projector: conjugation by the projector on one
side, and extraction by acting on one leg of the swap operator and tracing
the other on the way back.  Map equality is always decided on Choi
matrices, which is exactly input-independent equality.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import Tolerances
from .doubleket import swap_operator
from .linalg import UNIT_SLACK, SystemDims, as_matrix, frob, hermitian, partial_trace
from .properties import Property


class QuantumTransformation:
    """Trace-non-increasing completely positive map, given by Kraus operators."""

    __slots__ = ("kraus", "d_in", "d_out", "atomic")

    def __init__(self, kraus):
        mats = [as_matrix(k, name="Kraus operator") for k in kraus]
        if not mats:
            raise ValueError("a transformation needs at least one Kraus operator")
        shape = mats[0].shape
        for m in mats[1:]:
            if m.shape != shape:
                raise ValueError("all Kraus operators must share one shape")
        total = sum(m.conj().T @ m for m in mats)
        top = float(np.max(np.linalg.eigvalsh((total + total.conj().T) / 2.0)))
        if top > 1.0 + UNIT_SLACK:
            raise ValueError(
                f"Kraus operators are not trace-non-increasing: max eig of sum K^dag K = {top!r}"
            )
        self.kraus = tuple(mats)
        self.d_out, self.d_in = shape
        self.atomic = len(mats) == 1


@dataclass(frozen=True)
class ChoiMatrix:
    """Canonical map representation ``sum_K vec(K) vec(K)^dag`` (row-major vec)."""

    matrix: np.ndarray
    d_in: int
    d_out: int
    tols: InitVar[Tolerances] = Tolerances()

    def __post_init__(self, tols: Tolerances):
        m, w = hermitian(self.matrix, name="Choi matrix")
        n = self.d_in * self.d_out
        if m.shape != (n, n):
            raise ValueError(f"Choi matrix must be {n}x{n}, got {m.shape}")
        if np.any(w < -tols.tol_rank):
            raise ValueError("Choi matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", m)


def choi(t: QuantumTransformation, *, tols: Tolerances = Tolerances()) -> ChoiMatrix:
    n = t.d_out * t.d_in
    total = np.zeros((n, n), dtype=complex)
    for k in t.kraus:
        v = k.reshape(-1)
        total += np.outer(v, v.conj())
    return ChoiMatrix(total, d_in=t.d_in, d_out=t.d_out, tols=tols)


def compose(t1: QuantumTransformation, t2: QuantumTransformation) -> QuantumTransformation:
    """``t1`` after ``t2``; Kraus set is all pairwise products."""
    if t1.d_in != t2.d_out:
        raise ValueError(
            f"cannot compose: first map takes dimension {t1.d_in}, second produces {t2.d_out}"
        )
    return QuantumTransformation([k1 @ k2 for k1 in t1.kraus for k2 in t2.kraus])


def is_repeatable(t: QuantumTransformation, *, tols: Tolerances = Tolerances()) -> bool:
    """True when applying the map twice equals applying it once (Choi distance)."""
    if t.d_in != t.d_out:
        raise ValueError("repeatability is only defined for square maps")
    twice = compose(t, t)
    return frob(choi(twice, tols=tols).matrix - choi(t, tols=tols).matrix) <= tols.tol_compat


def from_property(p: Property) -> QuantumTransformation:
    """Atomic operation conjugating by the projector; repeatable by idempotency."""
    return QuantumTransformation([p.matrix])


def extract_property(t: QuantumTransformation, *, tols: Tolerances = Tolerances()) -> Property:
    """Recover the projector of a repeatable atomic operation.

    Acts with the map on the first leg of the swap operator and traces that
    leg out.  A global phase on the Kraus operator cancels under
    conjugation, so no phase fixing is needed.
    """
    if not t.atomic:
        raise ValueError("property extraction needs an atomic (single-Kraus) transformation")
    if t.d_in != t.d_out:
        raise ValueError("property extraction needs a square map")
    if not is_repeatable(t, tols=tols):
        raise ValueError("transformation is not repeatable")
    d = t.d_in
    e = swap_operator(d)
    k_big = np.kron(t.kraus[0], np.eye(d, dtype=complex))
    acted = k_big @ e @ k_big.conj().T
    candidate = partial_trace(acted, SystemDims(d, d), "first")
    try:
        return Property(candidate, tols=tols)
    except ValueError as exc:
        raise ValueError(f"not a property-type transformation: {exc}") from exc
