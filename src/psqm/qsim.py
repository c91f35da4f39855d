"""Validated containers for small quantum registers, and the two matrix
metrics the checks read.

`StateVector` and `DensityMatrix` are the public return types of the
protocols; no gate is simulated here (the protocols build their states
directly, and the tests keep a dense gate simulator as their oracle).

Conventions: qubit 0 is the leftmost tensor factor and basis states are
encoded big-endian, so basis index b assigns qubit i the bit
(b >> (q-1-i)) & 1.  Registers are capped at 12 qubits.  State equality
is never tested amplitude-wise; compare projectors so global phase is
irrelevant.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 12
CONSTRUCTION_TOL = 1e-12
DERIVED_TOL = 1e-10


class StateVector:
    """Normalized pure state on `qubit_count` qubits."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        q = amps.size.bit_length() - 1
        if q > MAX_QUBITS:
            raise ValueError(f"{q} qubits exceeds the {MAX_QUBITS}-qubit cap")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"state not normalized (norm {norm})")
        self.amplitudes = amps
        self.qubit_count = q

    @property
    def dim(self) -> int:
        return self.amplitudes.size


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        d = mat.shape[0]
        if d == 0 or d & (d - 1):
            raise ValueError("dimension must be a power of two")
        if np.max(np.abs(mat - mat.conj().T)) > CONSTRUCTION_TOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"trace is {tr}, not 1")
        if np.linalg.eigvalsh(mat).min() < -DERIVED_TOL:
            raise ValueError("matrix has a negative eigenvalue")
        self.matrix = mat
        self.qubit_count = d.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian matrix, its squared Frobenius norm."""
    return float(np.vdot(rho, rho).real)


def matrix_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference of two matrices."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a - b))
