"""Distinguishability of quantum states.

Two routes to the same question: the exact minimum error probability of a
binary hypothesis test between ``rho0`` (prior ``p0``) and ``rho1`` (prior
``1 - p0``), via the spectrum of ``p0 rho0 - (1 - p0) rho1``, with the
measurement that attains it; and the normalized Hilbert-Schmidt overlap,
which needs only traces of matrix products.  A state arrives as a complex
array, already validated where it entered
(:func:`~qillum.states.density_from_dict`): a density matrix, or a pure
state's amplitude vector ``psi`` standing for ``|psi><psi|``; and the
parameters (``eta``, ``d_s``, ``p0``) where the user gave them
(:mod:`qillum.cli`): nothing is checked here.

A query on two stored states is diagonalized once (:func:`diagonalize`),
and :func:`helstrom_error` and :func:`optimal_povm` both read that one
decomposition.  Two pure states span a 2x2 problem, solved at O(dim) with
no ``dim x dim`` array (but the measurement's); any other pair is one
dense eigensolve, with a pure state's projector built for it.

On the illumination channel a pure probe enters only through its Schmidt
weights ``lam`` (a flat probe as one weight with its number of
copies): :func:`schmidt_helstrom_error` takes the minimum error from one
secular root, :func:`flat_probe_error` in closed form for flat
weights (the Bell and the unentangled probe, its two ends),
:func:`channel_overlap` the overlap from three traces of ``diag(lam)`` and
:func:`h01_closed_form` from the physical parameters.  ``sweep`` and
``verify-bell`` use these; :func:`helstrom_error` serves ``helstrom`` on
arbitrary stored states and, on dense matrices, is the tests' oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .states import DEFAULT_TOL

_EPS = np.finfo(float).eps


def diagonalize(state0: np.ndarray, state1: np.ndarray, p0: float = 0.5, vectors: bool = False):
    """``D = p0 rho0 - p1 rho1`` diagonalized once, as ``(deficit, w, v)``
    for :func:`helstrom_error` and :func:`optimal_povm`; ``deficit`` is ``1
    - ||D||_1``.  A state is a density matrix or a pure state's amplitude
    vector; their dimensions and ``p0`` are unchecked.

    Two amplitude vectors: the pair's 2x2 problem (:func:`_pure_pair`), with
    ``w`` ``None`` and, for ``vectors``, ``v`` an orthonormal basis of the
    range of ``E1``: ``D``'s unit eigenvector whose eigenvalue lies below
    ``-DEFAULT_TOL`` (a ``dim x 1`` matrix), or none (``dim x 0``).
    Any other pair: one ``eigvalsh``, or with ``vectors`` one ``eigh``, of
    the dense ``D``, a pure state taken as its projector; ``w`` is every
    eigenvalue, ascending, ``v`` their eigenvectors (``None`` without
    ``vectors``), and ``deficit`` is ``1 - sum(|w|)``.
    """
    if state0.ndim == state1.ndim == 1:
        return _pure_pair(state0, state1, p0, vectors)
    rho0, rho1 = (np.outer(s, s.conj()) if s.ndim == 1 else s for s in (state0, state1))
    op = p0 * rho0 - (1.0 - p0) * rho1
    w, v = np.linalg.eigh(op) if vectors else (np.linalg.eigvalsh(op), None)
    return 1.0 - float(np.sum(np.abs(w))), w, v


def _pure_pair(psi0: np.ndarray, psi1: np.ndarray, p0: float, vectors: bool):
    """:func:`diagonalize` for two amplitude vectors, at O(dim).

    With the squared norms ``n0``, ``n1`` and ``c = <psi0|psi1>``, each
    rounded once from exact products (:func:`_exact_dot`), ``m = p0 n0 + p1
    n1`` and ``x = 4 p0 p1 |c|^2 + (1 - m)(1 + m)``, ``1 - m`` taken as ``p0
    (1 - n0) + p1 (1 - n1)``, the deficit is ``1 - ||D||_1 = x / (1 + s)``
    (Helstrom, *Quantum Detection and Estimation Theory*, 1976), ``s =
    ||D||_1 = sqrt((p0 n0 - p1 n1)^2 + 4 p0 p1 n0 b^2)``, ``b = |r|`` the
    part ``r = psi1 - (c / n0) psi0`` of ``psi1`` orthogonal to ``psi0``.
    ``x`` keeps its digits where ``s`` is near 1 (a small error), and ``s``,
    unlike ``sqrt(1 - x)``, keeps them where ``D`` is near 0 (parallel
    states at equal priors).  In the orthonormal basis ``u0 = psi0 /
    sqrt(n0)``, ``u1 = r / b``, ``psi1 = a u0 + b u1`` with ``a = c /
    sqrt(n0)``, and ``D`` is the 2x2 matrix ``[[p0 n0 - p1 |a|^2, -p1 a b],
    [-p1 conj(a) b, -p1 b^2]]``, of determinant ``-p0 p1 n0 b^2 <= 0``: at
    most one eigenvalue is negative.
    """
    p1 = 1.0 - p0
    x0, x1 = psi0.view(float), psi1.view(float)  # [re, im, re, im, ...]
    d0, d1 = _exact_dot(x0, -x0, 1.0), _exact_dot(x1, -x1, 1.0)
    c = complex(_exact_dot(x0, x1), _exact_dot(x0, np.stack((psi1.imag, -psi1.real), -1).reshape(-1)))
    n0, n1, c2 = 1.0 - d0, 1.0 - d1, c.real * c.real + c.imag * c.imag
    r = psi1 - (c / n0) * psi0
    b2 = float(np.vdot(r, r).real)
    s = math.sqrt((p0 * n0 - p1 * n1) ** 2 + 4.0 * p0 * p1 * n0 * b2)
    short = p0 * d0 + p1 * d1  # 1 - m
    deficit = (4.0 * p0 * p1 * c2 + short * (2.0 - short)) / (1.0 + s)
    if not vectors:
        return deficit, None, None
    root0, b = math.sqrt(n0), math.sqrt(b2)
    a = c / root0
    w, v = np.linalg.eigh(np.array([[p0 * n0 - p1 * c2 / n0, -p1 * a * b], [-p1 * a.conjugate() * b, -p1 * b2]]))
    if not w[0] < -DEFAULT_TOL:
        return deficit, None, np.empty((len(psi0), 0), dtype=complex)
    u1 = r / b if b > 0.0 else r  # 0 where psi1 is parallel to psi0, and so is D's range
    return deficit, None, (v[0, 0] * (psi0 / root0) + v[1, 0] * u1)[:, None]


def _exact_dot(a: np.ndarray, b: np.ndarray, start: float = 0.0) -> float:
    """``start + sum(a * b)`` of two real vectors, rounded once: each product
    split exactly into ``hi + lo`` (Dekker's product, exact for entries of
    magnitude up to about 1, as a state's are, above the subnormals), the
    lot added by :func:`math.fsum`."""
    def halves(x):
        t = 134217729.0 * x  # 2**27 + 1
        high = t - (t - x)
        return high, x - high

    (ah, al), (bh, bl) = halves(a), halves(b)
    hi = a * b
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return math.fsum(np.concatenate(([start], hi, lo)).tolist())


def helstrom_error(spectrum) -> float:
    """Minimum achievable error probability over all measurements, from
    :func:`diagonalize`'s ``(deficit, w, v)``.

    Equals ``(1 - ||p0 rho0 - p1 rho1||_1) / 2``, clipped to ``[0, 1]``, and
    never exceeds the smaller prior.
    """
    value = 0.5 * spectrum[0]
    return float(min(max(value, 0.0), 1.0))


def schmidt_helstrom_error(weights, eta, d_s, p0: float = 0.5, copies=1):
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

    ``copies`` stands for a probe whose every weight appears that many
    times: each sum above, and the start's ``k``, then gains that factor,
    so the probe is these weights with ``a = p0 eta copies``.  A flat probe
    is one weight with ``copies`` its rank, at any ``d_i``.

    ``weights`` is one probe's weights (1-D) or an ``(n, d_i)`` stack, and
    ``eta``, ``d_s`` and ``copies`` each one value or an array broadcasting
    against its leading axis: a float is returned for 1-D weights and one
    value of each, else an array, no entry of which depends on another, so
    a stacked call equals its rows' 1-D calls bit for bit.  Each sum runs
    over a row's full width, so zeros enter it as exact zeros (and may
    regroup numpy's pairwise sums, moving the last bits), while the root
    test counts only the nonzero weights: ``run_sweep`` drops a probe's
    zeros before its call.  A probe's weights are gathered once per row
    that takes a root, not copied once per ``eta``.  The weights, ``eta``,
    ``d_s``, ``p0`` and ``copies`` are unchecked.
    """
    eta, d_s = np.asarray(eta, dtype=float), np.asarray(d_s)
    lam = np.array(weights, dtype=float)  # a copy: it is sorted in place
    c = p0 * (1.0 - eta) - (1.0 - p0)
    d_i, shape = lam.shape[-1], np.broadcast(eta, d_s, copies, lam[..., 0]).shape
    ones = np.ones(shape)
    a, s, base = ((x * ones).reshape(-1) for x in (p0 * eta * copies, -c / d_s, p0 * (1.0 - eta)))
    # row r of the (eta, probe) pairs, flattened, is probe probe[r]'s
    probe = (np.arange(lam.size // d_i).reshape(lam.shape[:-1]) + np.zeros(shape, dtype=int)).reshape(-1)
    lam = lam.reshape(-1, d_i)
    lam.sort()
    lam = lam[:, ::-1]
    support = (lam != 0.0).sum(axis=-1)[probe]
    p_err = np.where(s > 0.0, p0, 1.0 - p0)  # mu = 0, or p1 where c >= 0
    rows = ((s > 0.0) & (a * support > s)).nonzero()[0]
    lam, a, s, base = lam[probe[rows]], a[rows, None], s[rows, None], base[rows]
    mu = (lam * (a * np.arange(1, d_i + 1) - s)).max(axis=-1, keepdims=True)
    live, m, w, sl, al = np.arange(rows.size), mu, lam, s, a  # the rows still rising
    while live.size:
        g = m + sl * w
        q, z = w / g, m / g  # z in (0, 1]: no overflow at tiny mu
        total = np.add.reduce(q, axis=-1, keepdims=True)
        rise = total * (al * total - 1.0) / np.add.reduce(q * z, axis=-1, keepdims=True)
        m, rising = m + m * rise, rise[:, 0] > _EPS  # the Newton step, relative to mu
        if not rising.all():  # a row leaves once its root is reached
            mu[live] = m
            live, m, w, sl, al = (x[rising] for x in (live, m, w, sl, al))
    p_err[rows] = base + a[:, 0] * s[:, 0] * np.add.reduce(lam * lam / (mu + s * lam), axis=-1)
    p_err = np.minimum(np.maximum(p_err.reshape(shape), 0.0), 1.0)
    return float(p_err) if p_err.ndim == 0 else p_err


def flat_probe_error(eta, n, p0: float = 0.5):
    """Minimum error probability of a probe with ``d_i`` flat Schmidt weights
    on ``d_s`` signal modes, with ``n = d_s d_i``: ``p0 rho0 - p1 rho1`` has
    the eigenvalue ``p0 eta + c/n`` once and ``c/n`` ``n - 1`` times
    (``c = p0 (1 - eta) - p1``), so the error is ``p1`` where ``c >= 0``,
    else ``p0 (1 - eta) - c/n`` where the first is positive, else ``p0``: the
    kernel's form, in which no sum cancels.  The secular root grows as the
    weights spread (Schur concavity), so every probe's error lies between
    this at ``n = d_s d_i`` (the Bell probe) and at ``n = d_s`` (the
    unentangled probe).  ``eta`` and ``n`` broadcast, unchecked.
    """
    eta = np.asarray(eta, dtype=float)
    base = p0 * (1.0 - eta)
    c = base - (1.0 - p0)
    return np.where(c >= 0.0, 1.0 - p0, np.where(p0 * eta + c / n > 0.0, base - c / n, p0))[()]


def optimal_povm(spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The measurement ``(E0, E1)`` attaining the minimum error probability,
    from :func:`diagonalize`'s ``(deficit, w, v)`` taken with ``vectors``.

    Dense: ``E0`` projects onto the non-negative eigenspace of ``p0 rho0 -
    p1 rho1`` (eigenvalues above ``-DEFAULT_TOL`` count as non-negative,
    which shifts the attained error by at most ``dim * DEFAULT_TOL``), and
    ``E1 = I - E0`` is its complement.  Two pure states: ``E1`` projects
    onto ``v``, the one eigenvector below ``-DEFAULT_TOL`` or none, and
    ``E0 = I - E1``.  Both are orthogonal projectors by construction.
    """
    _, w, v = spectrum
    basis = v if w is None else v[:, w >= -DEFAULT_TOL]  # of E1's range for two pure states, else E0's
    e = basis @ basis.conj().T
    e = 0.5 * (e + e.conj().T)
    return (np.eye(len(v)) - e, e) if w is None else (e, np.eye(len(v)) - e)


def channel_overlap(weights, eta, d_s, copies=1):
    """Normalized overlap ``Tr[rho0 rho1] / sqrt(Tr[rho0^2] Tr[rho1^2])`` of
    the channel outputs of a pure probe on ``d_s`` signal modes, from its
    Schmidt weights ``lam`` (1-D, or an ``(n, d_i)`` stack), each weight
    appearing ``copies`` times.

    With the idler reduction ``phi = diag(lam)``, ``rho1 = I/d_s (x) phi``
    and ``rho0 = eta |psi><psi| + (1 - eta) rho1``, the overlap needs three
    traces and no diagonalization:

        v = <psi|rho1|psi> = Tr[phi^2] / d_s = Tr[rho1^2],
        Tr[rho0 rho1] = eta v + (1 - eta) Tr[rho1^2],
        Tr[rho0^2] = eta^2 + 2 eta (1 - eta) v + (1 - eta)^2 Tr[rho1^2],

    at O(d_i), with ``Tr[phi^2] = sum(copies lam^2)`` added in index order,
    so a zero weight adds an exact zero.  None of them goes through the
    effective rank, so the result checks the algebra of
    :func:`h01_closed_form`, but not ``sum(copies lam^2)``: ``run_sweep``
    takes its ``k_i`` by the same ``cumsum``.  ``eta``, ``d_s`` and
    ``copies`` broadcast as in :func:`schmidt_helstrom_error`: one value
    each and 1-D weights give a float, anything else an array.  The result
    is clipped to ``[0, 1]``; ``eta``, ``d_s`` and ``copies`` are unchecked.
    """
    eta = np.asarray(eta, dtype=float)
    lam = np.asarray(weights, dtype=float)
    v = purity_1 = (np.asarray(copies)[..., None] * lam * lam).cumsum(axis=-1)[..., -1] / d_s
    cross = eta * v + (1.0 - eta) * purity_1
    # products, not ** 2: a float64 scalar's power can round apart from an array's square
    purity_0 = eta * eta + 2.0 * eta * (1.0 - eta) * v + (1.0 - eta) * (1.0 - eta) * purity_1
    h = np.minimum(np.maximum(cross / np.sqrt(purity_0 * purity_1), 0.0), 1.0)  # NaN stays NaN
    return float(h) if h.ndim == 0 else h


def h01_closed_form(eta, d_s, k_i):
    """Overlap of the two hypothesis states, from the physical parameters.

    For the post-selected model the normalized overlap of target-present
    and target-absent states collapses to

        1 / sqrt(1 + eta^2 * (d_s * k_i - 1))

    where ``k_i`` is the effective rank (inverse purity) of the idler
    reduction.  ``k_i`` is accepted as a real number; integers are the
    extremal cases.  ``eta``, ``d_s`` and ``k_i`` are each one value or
    arrays broadcasting against each other: a float is returned for three
    values, else an array.  All three are unchecked.
    """
    eta, d_s, k_i = np.asarray(eta, dtype=float), np.asarray(d_s), np.asarray(k_i)
    h = 1.0 / np.sqrt(1.0 + eta**2 * (d_s * k_i - 1.0))
    return float(h) if h.ndim == 0 else h
