"""Dense complex-matrix primitives: Kronecker products, partial traces,
Hermitian eigendecompositions and the trace norm.

All operators are plain square complex ``numpy`` arrays.  Every tolerance is
an explicit argument; the shared default is :data:`DEFAULT_TOL`.
"""

from __future__ import annotations

import numpy as np

#: Default validation tolerance (max entry magnitude) used across the package.
DEFAULT_TOL = 1e-9


def as_operator(m: np.ndarray) -> np.ndarray:
    """Coerce ``m`` to a square complex 2-D array, validating its shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise magnitude of ``a - b``."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def hermiticity_defect(m: np.ndarray) -> float:
    """Max entry magnitude of ``m - m^dag``; zero for Hermitian input."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermiticity of ``m`` within ``tol`` and return it as ndarray."""
    a = as_operator(m)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {tol:.3e}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with block (i, j) equal to ``a[i, j] * b``."""
    return np.kron(as_operator(a), as_operator(b))


def partial_trace(m: np.ndarray, d_left: int, d_right: int, side: str = "right") -> np.ndarray:
    """Trace out one tensor factor of an operator on a ``d_left * d_right`` space.

    Parameters
    ----------
    m : square matrix of dimension ``d_left * d_right``
    d_left, d_right : dimensions of the two factors
    side : which factor to trace out; ``"left"`` returns the ``d_right``
        reduced matrix, ``"right"`` the ``d_left`` one.

    The trace of the result equals the trace of ``m``.
    """
    a = as_operator(m)
    if d_left < 1 or d_right < 1:
        raise ValueError("factor dimensions must be positive")
    if a.shape[0] != d_left * d_right:
        raise ValueError(
            f"dimension mismatch: matrix dim {a.shape[0]} != {d_left} * {d_right}"
        )
    blocks = a.reshape(d_left, d_right, d_left, d_right)
    if side == "left":
        return np.einsum("ikil->kl", blocks)
    if side == "right":
        return np.einsum("ikjk->ij", blocks)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def eigh(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix: eigenvalues
    ascending, matching orthonormal eigenvectors as the columns of ``v``.

    Raises ``ValueError`` if ``m`` is not Hermitian within ``tol``.  A
    ``numpy.linalg.LinAlgError`` propagates if the solver fails to converge.
    Eigenvectors of degenerate eigenvalues are only fixed up to a rotation
    of the degenerate subspace.
    """
    return np.linalg.eigh(require_hermitian(m, tol))


def eigvalsh(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    a = require_hermitian(m, tol)
    return np.linalg.eigvalsh(a)


def trace_norm(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Trace norm of a Hermitian matrix: the sum of absolute eigenvalues."""
    return float(np.sum(np.abs(eigvalsh(m, tol))))
