"""Distinguishability of quantum states.

Two routes to the same question: the exact minimum error probability of a
binary hypothesis test (via trace-norm diagonalization, with the measurement
that attains it), and a diagonalization-free overlap measure that needs only
traces of matrix products.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, as_operator, eigh, require_hermitian, trace_norm
from .states import DensityMatrix


def _real_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a b] for Hermitian a, b (real by symmetry)."""
    return float(np.real(np.einsum("ij,ji->", a, b)))


class Povm:
    """A finite set of positive operators that sums to the identity."""

    __slots__ = ("elements", "dim")

    def __init__(self, elements, tol: float = DEFAULT_TOL):
        mats = [as_operator(e) for e in elements]
        if not mats:
            raise ValueError("a POVM needs at least one element")
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for k, e in enumerate(mats):
            if e.shape[0] != dim:
                raise ValueError("POVM elements must share one dimension")
            e = require_hermitian(e, tol)
            w = np.linalg.eigvalsh(e)
            if w[0] < -tol:
                raise ValueError(f"element {k} is not positive: min eigenvalue {w[0]:.3e}")
            total += e
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > tol:
            raise ValueError(f"elements sum to identity only within {defect:.3e}")
        self.elements = tuple(mats)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.elements)


class DiscriminationProblem:
    """Two candidate states with prior probabilities."""

    __slots__ = ("rho0", "rho1", "p0", "p1")

    def __init__(
        self,
        rho0: DensityMatrix,
        rho1: DensityMatrix,
        p0: float = 0.5,
        p1: float | None = None,
        tol: float = DEFAULT_TOL,
    ):
        if rho0.dim != rho1.dim:
            raise ValueError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
        if p1 is None:
            p1 = 1.0 - p0
        if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
            raise ValueError("priors must lie in [0, 1]")
        if abs(p0 + p1 - 1.0) > tol:
            raise ValueError(f"priors sum to {p0 + p1}, expected 1")
        self.rho0 = rho0
        self.rho1 = rho1
        self.p0 = float(p0)
        self.p1 = float(p1)

    @property
    def dim(self) -> int:
        return self.rho0.dim

    def weighted_difference(self) -> np.ndarray:
        """p0 * rho0 - p1 * rho1, the operator whose spectrum decides the test."""
        return self.p0 * self.rho0.mat - self.p1 * self.rho1.mat


def povm_error(problem: DiscriminationProblem, povm: Povm) -> float:
    """Error probability of a given binary measurement.

    Outcome ``k`` is read as "the state was ``rho_k``", so the error is
    ``p0 Tr[rho0 E1] + p1 Tr[rho1 E0]``.
    """
    if len(povm) != 2:
        raise ValueError(f"expected a binary POVM, got {len(povm)} elements")
    if povm.dim != problem.dim:
        raise ValueError(f"dimension mismatch: POVM {povm.dim} vs states {problem.dim}")
    e0, e1 = povm.elements
    p = problem.p0 * _real_overlap(problem.rho0.mat, e1)
    p += problem.p1 * _real_overlap(problem.rho1.mat, e0)
    return float(min(max(p, 0.0), 1.0))


def helstrom_error(problem: DiscriminationProblem, tol: float = DEFAULT_TOL) -> float:
    """Minimum achievable error probability over all measurements.

    Equals ``(1 - ||p0 rho0 - p1 rho1||_1) / 2`` and never exceeds the
    smaller prior.
    """
    value = 0.5 * (1.0 - trace_norm(problem.weighted_difference(), tol))
    return float(min(max(value, 0.0), 1.0))


def optimal_povm(problem: DiscriminationProblem, tol: float = DEFAULT_TOL) -> Povm:
    """The measurement attaining the minimum error probability.

    The first element projects onto the non-negative eigenspace of
    ``p0 rho0 - p1 rho1`` (eigenvalues above ``-tol`` count as non-negative,
    which shifts the attained error by at most ``tol``); the second is its
    complement.
    """
    w, v = eigh(problem.weighted_difference(), tol)
    keep = v[:, w >= -tol]
    pi0 = keep @ keep.conj().T
    pi0 = 0.5 * (pi0 + pi0.conj().T)
    pi1 = np.eye(problem.dim) - pi0
    return Povm([pi0, pi1], tol)


def hs_distinguishability(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Normalized overlap ``Tr[rho sigma] / sqrt(Tr[rho^2] Tr[sigma^2])``.

    Symmetric, unitarily invariant, 1 exactly for identical states and 0
    exactly for states with orthogonal support; for pure states it reduces
    to the squared inner product of the vectors.  The normalization never
    vanishes because purities are at least ``1/dim``.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    num = _real_overlap(rho.mat, sigma.mat)
    value = num / np.sqrt(rho.purity() * sigma.purity())
    return float(min(max(value, 0.0), 1.0))


def h01_closed_form(eta: float, d_s: int, k_i: float) -> float:
    """Overlap of the two hypothesis states, from the physical parameters.

    For the post-selected model the normalized overlap of target-present
    and target-absent states collapses to

        1 / sqrt(1 + eta^2 * (d_s * k_i - 1))

    where ``k_i`` is the effective rank (inverse purity) of the idler
    reduction.  ``k_i`` is accepted as a real number; integers are the
    extremal cases.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if d_s < 2:
        raise ValueError(f"signal dimension must be >= 2, got {d_s}")
    if k_i < 1.0:
        raise ValueError(f"effective idler rank must be >= 1, got {k_i}")
    return float(1.0 / np.sqrt(1.0 + eta**2 * (d_s * k_i - 1.0)))
