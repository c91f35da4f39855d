"""The validated density-matrix container, and nothing else: the checks
read purity and distance off the raw matrices with numpy.

`DensityMatrix` is the public return type of `averaged_message`; message
states are plain amplitude arrays.  No gate is simulated here (the
protocols build their states directly, and the tests keep a dense gate
simulator, with its own validated state container, as their oracle).

Conventions: qubit 0 is the leftmost tensor factor and basis states are
encoded big-endian, so basis index b assigns qubit i the bit
(b >> (q-1-i)) & 1.  State equality is never tested amplitude-wise;
compare projectors so global phase is irrelevant.
"""

import numpy as np

CONSTRUCTION_TOL = 1e-12
DERIVED_TOL = 1e-10


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
