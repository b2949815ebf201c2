"""Distinguishability of quantum states.

Two routes to the same question: the exact minimum error probability of a
binary hypothesis test between ``rho0`` (prior ``p0``) and ``rho1`` (prior
``1 - p0``), via the spectrum of ``p0 rho0 - (1 - p0) rho1``, with the
measurement that attains it; and the normalized Hilbert-Schmidt overlap,
which needs only traces of matrix products.  The states arrive validated as
:class:`DensityMatrix`; only their dimensions and the prior are checked
here.

For the illumination channel itself no dense ``(d_s d_i)``-dimensional
matrix is needed: a pure probe enters only through its Schmidt weights.
:func:`schmidt_helstrom_error` gives the minimum error from them, with one
eigensolve of at most ``d_i x d_i``, stacked over many probes or over a
grid of ``eta`` at once; :func:`channel_overlap` gives the overlap of the
two channel outputs from three traces of ``diag(lam)``, without
diagonalization, and :func:`h01_closed_form` the same overlap from the
physical parameters; all three take ``eta`` as one value or an array.
``sweep`` and ``verify-bell`` use these; the dense :func:`helstrom_error`
serves ``helstrom`` on arbitrary stored states and is the tests' oracle for
the kernel.
"""

from __future__ import annotations

import numpy as np

from .states import DEFAULT_TOL, DensityMatrix

#: Most block entries the kernel diagonalizes at once (2 MiB): its memory stays flat.
_CHUNK_ENTRIES = 1 << 18


def _efficiencies(eta) -> np.ndarray:
    """``eta`` as a float array, every entry in ``[0, 1]``; NaN fails."""
    eta = np.asarray(eta, dtype=float)
    ok = (0.0 <= eta) & (eta <= 1.0)
    if not ok.all():
        raise ValueError(f"eta must be in [0, 1], got {eta[~ok][0]}")
    return eta


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


def schmidt_helstrom_error(weights, eta, d_s: int, p0: float = 0.5):
    """Minimum error probability of the illumination channel, in Schmidt space.

    The target-absent state ``I/d_s (x) phi_i`` is invariant under local
    unitaries, so ``p0 rho0 - p1 rho1`` is block-diagonal in the probe's
    Schmidt basis.  With Schmidt weights ``lam`` (the idler reduction's
    eigenvalues) and ``c = p0 (1 - eta) - p1`` the blocks are the
    ``d_i x d_i`` matrix ``p0 eta sqrt(lam) sqrt(lam)^T + (c/d_s) diag(lam)``
    on the span of the paired Schmidt vectors, a rank-one update of a
    diagonal matrix, and the scalars ``c lam_m / d_s``, each ``d_s - 1``
    times, elsewhere.  The result equals :func:`helstrom_error` on the
    probe's dense channel outputs ``(rho0, rho1)``, clipped to ``[0, 1]``.

    ``weights`` is one probe's weights (1-D) or an ``(n, d_i)`` stack of
    probes; ``eta`` is one value or an array broadcasting against the
    stack's leading axis.  A float is returned for 1-D weights and one
    ``eta``, else an array, from one stacked eigensolve (in chunks of
    :data:`_CHUNK_ENTRIES` entries).  Negative weights (eigenvalue rounding)
    count as 0; small weights are kept, so the result is continuous in them.
    """
    eta = _efficiencies(eta)
    if d_s < 2:
        raise ValueError(f"signal dimension must be >= 2, got {d_s}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"prior p0 must lie in [0, 1], got {p0}")
    lam = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    if lam.ndim not in (1, 2):
        raise ValueError(f"expected 1-D weights or a 2-D stack, got shape {lam.shape}")
    c = p0 * (1.0 - eta) - (1.0 - p0)
    # one row per (eta, probe) pair, broadcast by an exact product with 1
    d_i, ones = lam.shape[-1], np.ones(np.broadcast_shapes(eta.shape, lam.shape[:-1]))
    a, b = (p0 * eta * ones).reshape(-1), (c / d_s * ones).reshape(-1)
    stack = (lam * ones[..., None]).reshape(-1, d_i)
    root, diag, norm = np.sqrt(stack), np.arange(d_i), np.empty(a.size)
    step = _CHUNK_ENTRIES // max(1, d_i * d_i) or 1
    for first in range(0, a.size, step):
        rows = slice(first, first + step)
        block = a[rows, None, None] * (root[rows, :, None] * root[rows, None, :])
        block[:, diag, diag] += b[rows, None] * stack[rows]
        norm[rows] = np.sum(np.abs(np.linalg.eigvalsh(block)), axis=-1)
    norm = norm.reshape(ones.shape) + (d_s - 1) * abs(c) * np.sum(lam, axis=-1) / d_s
    p_err = np.clip(0.5 * (1.0 - norm), 0.0, 1.0)
    return float(p_err) if p_err.ndim == 0 else p_err


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


def channel_overlap(weights, eta, d_s: int):
    """Normalized overlap ``Tr[rho0 rho1] / sqrt(Tr[rho0^2] Tr[rho1^2])`` of
    the channel outputs of a pure probe on ``d_s`` signal modes, from its
    Schmidt weights ``lam`` (1-D).

    With the idler reduction ``phi = diag(lam)``, ``rho1 = I/d_s (x) phi``
    and ``rho0 = eta |psi><psi| + (1 - eta) rho1``, the overlap needs three
    traces and no diagonalization:

        v = <psi|rho1|psi> = Tr[phi^2] / d_s = Tr[rho1^2],
        Tr[rho0 rho1] = eta v + (1 - eta) Tr[rho1^2],
        Tr[rho0^2] = eta^2 + 2 eta (1 - eta) v + (1 - eta)^2 Tr[rho1^2],

    at O(d_i), with ``sum(lam^2)`` added in index order.  None of them goes
    through the effective rank, so the result is an independent check of
    :func:`h01_closed_form`.  ``eta`` is one value (a float is returned) or
    an array of values sharing the traces (an array is returned).  The
    result is clipped to ``[0, 1]``.
    """
    eta = _efficiencies(eta)
    lam = np.asarray(weights, dtype=float)
    v = purity_1 = float(np.cumsum(lam * lam)[-1]) / d_s
    cross = eta * v + (1.0 - eta) * purity_1
    purity_0 = eta**2 + 2.0 * eta * (1.0 - eta) * v + (1.0 - eta) ** 2 * purity_1
    h = np.clip(cross / np.sqrt(purity_0 * purity_1), 0.0, 1.0)
    return float(h) if h.ndim == 0 else h


def h01_closed_form(eta, d_s: int, k_i: float):
    """Overlap of the two hypothesis states, from the physical parameters.

    For the post-selected model the normalized overlap of target-present
    and target-absent states collapses to

        1 / sqrt(1 + eta^2 * (d_s * k_i - 1))

    where ``k_i`` is the effective rank (inverse purity) of the idler
    reduction.  ``k_i`` is accepted as a real number; integers are the
    extremal cases.  ``eta`` is one value or an array, as in
    :func:`channel_overlap`.
    """
    eta = _efficiencies(eta)
    if d_s < 2:
        raise ValueError(f"signal dimension must be >= 2, got {d_s}")
    if not k_i >= 1.0:
        raise ValueError(f"effective idler rank must be >= 1, got {k_i}")
    h = 1.0 / np.sqrt(1.0 + eta**2 * (d_s * k_i - 1.0))
    return float(h) if h.ndim == 0 else h
