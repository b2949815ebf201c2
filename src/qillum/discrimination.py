"""Distinguishability of quantum states.

Two routes to the same question: the exact minimum error probability of a
binary hypothesis test between ``rho0`` (prior ``p0``) and ``rho1`` (prior
``1 - p0``), via the spectrum of ``p0 rho0 - (1 - p0) rho1``, with the
measurement that attains it; and a diagonalization-free overlap measure
that needs only traces of matrix products.  The states arrive validated as
:class:`DensityMatrix`; only their dimensions and the prior are checked
here.

For the illumination channel itself, :func:`schmidt_helstrom_error` gives
the same minimum error from the probe's Schmidt weights alone, with one
eigensolve of at most ``d_i x d_i`` in place of the dense
``(d_s d_i)``-dimensional one, stacked over many probes at once.  ``sweep``
and ``verify-bell`` use it; the dense :func:`helstrom_error` serves
``helstrom`` on arbitrary stored states and is the tests' oracle for the
kernel.
"""

from __future__ import annotations

import numpy as np

from .states import DEFAULT_TOL, DensityMatrix


def _real_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a b] for Hermitian a, b (real by symmetry)."""
    return float(np.real(np.einsum("ij,ji->", a, b)))


def _weighted_difference(rho0: DensityMatrix, rho1: DensityMatrix, p0: float) -> np.ndarray:
    """``p0 rho0 - (1 - p0) rho1``, the operator whose spectrum decides the test."""
    if rho0.dim != rho1.dim:
        raise ValueError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"prior p0 must lie in [0, 1], got {p0}")
    p0 = float(p0)
    return p0 * rho0.mat - (1.0 - p0) * rho1.mat


def helstrom_error(rho0: DensityMatrix, rho1: DensityMatrix, p0: float = 0.5) -> float:
    """Minimum achievable error probability over all measurements.

    Equals ``(1 - ||p0 rho0 - p1 rho1||_1) / 2`` and never exceeds the
    smaller prior.
    """
    w = np.linalg.eigvalsh(_weighted_difference(rho0, rho1, p0))
    value = 0.5 * (1.0 - float(np.sum(np.abs(w))))
    return float(min(max(value, 0.0), 1.0))


def schmidt_helstrom_error(weights, eta: float, d_s: int, p0: float = 0.5):
    """Minimum error probability of the illumination channel, in Schmidt space.

    The target-absent state ``I/d_s (x) phi_i`` is invariant under local
    unitaries, so ``p0 rho0 - p1 rho1`` is block-diagonal in the probe's
    Schmidt basis.  With Schmidt weights ``lam`` (the idler reduction's
    eigenvalues) and ``c = p0 (1 - eta) - p1`` the blocks are the
    ``d_i x d_i`` matrix ``p0 eta sqrt(lam) sqrt(lam)^T + (c/d_s) diag(lam)``
    on the span of the paired Schmidt vectors, a rank-one update of a
    diagonal matrix, and the scalars ``c lam_m / d_s``, each ``d_s - 1``
    times, elsewhere.  The result equals :func:`helstrom_error` on
    ``channel_outputs`` of the probe, clipped to ``[0, 1]``.

    ``weights`` is one probe's weights (1-D; a float is returned) or an
    ``(n, d_i)`` stack of ``n`` probes sharing ``eta``, ``d_s`` and ``p0``
    (an array of ``n`` errors is returned, from one stacked eigensolve).
    Negative weights (eigenvalue rounding) count as 0; small weights are
    kept, so the result is continuous in every weight.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if d_s < 2:
        raise ValueError(f"signal dimension must be >= 2, got {d_s}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"prior p0 must lie in [0, 1], got {p0}")
    lam = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    if lam.ndim not in (1, 2):
        raise ValueError(f"expected 1-D weights or a 2-D stack, got shape {lam.shape}")
    c = p0 * (1.0 - eta) - (1.0 - p0)
    root = np.sqrt(lam)
    block = (p0 * eta) * (root[..., :, None] * root[..., None, :])
    diag = np.arange(lam.shape[-1])
    block[..., diag, diag] += (c / d_s) * lam
    norm = np.sum(np.abs(np.linalg.eigvalsh(block)), axis=-1)
    norm += (d_s - 1) * abs(c) * np.sum(lam, axis=-1) / d_s
    p_err = np.clip(0.5 * (1.0 - norm), 0.0, 1.0)
    return float(p_err) if lam.ndim == 1 else p_err


def optimal_povm(
    rho0: DensityMatrix, rho1: DensityMatrix, p0: float = 0.5, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """The measurement ``(E0, E1)`` attaining the minimum error probability.

    ``E0`` projects onto the non-negative eigenspace of ``p0 rho0 - p1 rho1``
    (eigenvalues above ``-tol`` count as non-negative, which shifts the
    attained error by at most ``dim * tol``); ``E1 = I - E0`` is its
    complement.  Both are orthogonal projectors by construction.
    """
    w, v = np.linalg.eigh(_weighted_difference(rho0, rho1, p0))
    keep = v[:, w >= -tol]
    e0 = keep @ keep.conj().T
    e0 = 0.5 * (e0 + e0.conj().T)
    return e0, np.eye(rho0.dim) - e0


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
    if not k_i >= 1.0:
        raise ValueError(f"effective idler rank must be >= 1, got {k_i}")
    return float(1.0 / np.sqrt(1.0 + eta**2 * (d_s * k_i - 1.0)))
