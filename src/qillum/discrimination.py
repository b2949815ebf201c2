"""Distinguishability of quantum states.

Two routes to the same question: the exact minimum error probability of a
binary hypothesis test between ``rho0`` (prior ``p0``) and ``rho1`` (prior
``1 - p0``), via the spectrum of ``p0 rho0 - (1 - p0) rho1``, with the
measurement that attains it; and the normalized Hilbert-Schmidt overlap,
which needs only traces of matrix products.  The states arrive validated as
:class:`DensityMatrix`; only their dimensions and the prior are checked
here.

On the illumination channel a pure probe enters only through its Schmidt
weights ``lam``: :func:`schmidt_helstrom_error` takes the minimum error
from one secular root, :func:`flat_probe_error` in closed form for flat
weights (the Bell and the unentangled probe, its two ends),
:func:`channel_overlap` the overlap from three traces of ``diag(lam)`` and
:func:`h01_closed_form` from the physical parameters.  ``sweep`` and
``verify-bell`` use these; the dense :func:`helstrom_error` serves
``helstrom`` on arbitrary stored states and is the tests' oracle.
"""

from __future__ import annotations

import numpy as np

from .states import DEFAULT_TOL, DensityMatrix


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
    """Minimum error probability of the illumination channel, from the
    probe's Schmidt weights ``lam`` alone.

    With ``a = p0 eta``, ``c = p0 (1 - eta) - p1`` and ``s = -c/d_s``,
    ``p0 rho0 - p1 rho1`` is ``a sqrt(lam) sqrt(lam)^T - s diag(lam)`` in the
    Schmidt basis, plus the eigenvalues ``-s lam_m`` (each ``d_s - 1``
    times), and has trace ``p0 - p1``.  So the error is ``p1`` if ``c >= 0``,
    else ``p0 - mu`` with ``mu`` its one positive eigenvalue: the root of
    ``a sum(lam / (mu + s lam)) = 1`` if ``a #{lam > 0} > s``, else 0.
    Newton's method on the reciprocal of the left-hand side (concave and
    increasing) rises to the root from ``max_k lam_(k) (a k - s)`` (``lam``
    descending), below the root and equal to it for flat weights, until a
    step is below the root's last bit (at most 13 steps on 3000 random
    probes with weights down to 1e-300).  The error is then taken as
    ``p0 (1 - eta) + a s sum(lam^2 / (mu + s lam))``, equal to ``p0 - mu``
    for weights summing to 1 but free of its cancellation.  It equals
    :func:`helstrom_error` on the dense channel outputs, clipped to [0, 1].

    ``weights`` is one probe's weights (1-D) or an ``(n, d_i)`` stack, and
    ``eta`` one value or an array broadcasting against its leading axis: a
    float is returned for 1-D weights and one ``eta``, else an array, no
    row of which depends on another.  Negative weights count as 0.
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
    a, s, base = ((x * ones).reshape(-1) for x in (p0 * eta, -c / d_s, p0 * (1.0 - eta)))
    stack = np.broadcast_to(np.sort(lam)[..., ::-1], ones.shape + (d_i,)).reshape(-1, d_i)
    p_err = np.where(s > 0.0, p0, 1.0 - p0)  # mu = 0, or p1 where c >= 0
    rows = np.flatnonzero((s > 0.0) & (a * np.count_nonzero(stack, axis=-1) > s))
    lam, a, s, base = stack[rows], a[rows, None], s[rows, None], base[rows]
    mu = np.max(lam * (a * np.arange(1, d_i + 1) - s), axis=-1, keepdims=True)
    rising = np.ones_like(mu, dtype=bool)  # a row stops once its root is reached
    while rising.any():
        g = mu + s * lam
        q, z = lam / g, mu / g  # z in (0, 1]: no overflow at tiny mu
        total = np.sum(q, axis=-1, keepdims=True)
        rise = total * (a * total - 1.0) / np.sum(q * z, axis=-1, keepdims=True)
        mu = np.where(rising, mu + mu * rise, mu)  # the Newton step, relative to mu
        rising &= rise > np.finfo(float).eps
    p_err[rows] = base + (a * s)[:, 0] * np.sum(lam * lam / (mu + s * lam), axis=-1)
    p_err = np.clip(p_err.reshape(ones.shape), 0.0, 1.0)
    return float(p_err) if p_err.ndim == 0 else p_err


def flat_probe_error(eta, n, p0: float = 0.5):
    """Minimum error probability of a probe with ``d_i`` flat Schmidt weights
    on ``d_s`` signal modes, in closed form with ``n = d_s d_i``:
    ``p0 rho0 - p1 rho1`` has the eigenvalue ``p0 eta + c/n`` once and
    ``c/n`` ``n - 1`` times (``c = p0 (1 - eta) - p1``).  The secular root
    grows as the weights spread (Schur concavity), so every probe's error
    lies between this at ``n = d_s d_i`` (the Bell probe) and at ``n = d_s``
    (the unentangled probe).  ``eta`` and ``n`` may be arrays, unchecked.
    """
    eta = np.asarray(eta, dtype=float)
    c = p0 * (1.0 - eta) - (1.0 - p0)
    norm = np.abs(p0 * eta + c / n) + (n - 1) * np.abs(c) / n
    return np.clip(0.5 * (1.0 - norm), 0.0, 1.0)


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
