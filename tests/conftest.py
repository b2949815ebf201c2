"""Shared state builders, random-object generators and dense oracles for
the test suite.

A sweep family is what ``run_sweep`` takes: :data:`BELL`,
:func:`uniform_rank` or a spectrum's :func:`spectrum_family`, weights with
their number of copies.  A pure
state is its complex ``(d_s, d_i)`` amplitude matrix
(:func:`schmidt_amplitudes` builds it from a sweep probe's Schmidt
weights).  The dense oracle of the illumination channel lives here: the
state's projector (:func:`projector`), the idler reduction as its partial
trace (:func:`idler_reduction`), both channel outputs as
``(d_s d_i)``-dimensional density matrices (:func:`channel_outputs`) and
their normalized Hilbert-Schmidt overlap (:func:`hs_distinguishability`).
Between that and the package's overlap from the weights alone sits
:func:`amplitude_overlap`, the same three traces taken of any amplitude
matrix; between the dense minimum error and the package's secular root
sits :func:`schmidt_helstrom_oracle`, a stacked eigensolve of the
Schmidt-space blocks.  :func:`pure_state_dict` and :func:`density_to_dict`
build wire-format objects, and :func:`assert_reads_back` holds decoded ones
to their matrices bit for bit.  :func:`haar_amplitudes_oracle` is the
per-sample Haar sampler that the package's batched one must match bit for
bit.  :func:`exact_flat_error` is a flat probe's error as an exact
rational, and :func:`assert_printed_digits` holds a printed number to an
mpmath value.  The package computes the same numbers from a probe's Schmidt
weights without any matrix of that size; the tests hold it to these.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from qillum.states import haar_random_amplitudes, schmidt_probe
from qillum.discrimination import diagonalize, helstrom_error
from qillum.analysis import SWEEP_COLUMNS

#: Floats in [0, 1] that draw both endpoints often (for eta and p0).
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

#: Parts whose text is easy to get wrong: signed zeros, the smallest
#: subnormal, both sides of repr's switches to exponent form (below 1e-4,
#: from 1e16), integral values and the infinities.
AWKWARD_PARTS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-05, 1e-4, -1.0000000000000002e-4,
    9999999999999998.0, 1e16, -1.0000000000000002e16, 1.0, -2.0, 3.0, 1e300, math.inf, -math.inf,
]


#: The Bell family as ``run_sweep`` takes it: the weight ``1/d_s`` with
#: ``d_s`` copies at each dimension, built there.
BELL = None


def uniform_rank(rank):
    """The family ``uniform-rank:<rank>`` as ``run_sweep`` takes it: the
    correctly rounded ``1/rank``, with ``rank`` copies."""
    return np.array([1.0 / rank]), rank


def spectrum_family(spectrum):
    """The family ``spectrum:<file>`` of a file holding ``spectrum``, as
    ``run_sweep`` takes it: its ``schmidt_probe``, one copy."""
    return schmidt_probe(spectrum), 1


def max_abs_diff(a, b):
    """Largest entrywise magnitude of ``a - b``."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def sweep_columns(table):
    """The columns of a sweep table by name (``SWEEP_COLUMNS``)."""
    return dict(zip(SWEEP_COLUMNS, table.T))


def partial_trace(m, d_left, d_right, side="right"):
    """Trace out one tensor factor of an operator on a ``d_left * d_right`` space.

    ``side="left"`` returns the ``d_right`` reduced matrix, ``"right"`` the
    ``d_left`` one.  The dense oracle for the package's reductions.
    """
    a = np.asarray(m, dtype=complex)
    if d_left < 1 or d_right < 1:
        raise ValueError("factor dimensions must be positive")
    if a.shape != (d_left * d_right, d_left * d_right):
        raise ValueError(f"dimension mismatch: matrix shape {a.shape} != {d_left} * {d_right}")
    blocks = a.reshape(d_left, d_right, d_left, d_right)
    if side == "left":
        return np.einsum("ikil->kl", blocks)
    if side == "right":
        return np.einsum("ikjk->ij", blocks)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# Pure states as amplitude matrices, and their reductions.


def schmidt_amplitudes(d_s, weights):
    """Amplitude matrix of the probe with Schmidt weights ``weights`` (as
    ``schmidt_probe`` returns them): the complex ``(d_s, len(weights))``
    matrix with ``sqrt(weights)`` on its diagonal and zeros elsewhere."""
    amp = np.zeros((d_s, len(weights)), dtype=complex)
    np.fill_diagonal(amp, np.sqrt(weights))
    return amp


def bell_state(d):
    """Amplitude matrix of the maximally entangled state of two
    ``d``-dimensional subsystems: ``1/sqrt(d)`` on the diagonal."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    amp = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(amp, 1.0 / np.sqrt(d))
    return amp


def amplitude_overlap(amplitudes, eta):
    """Normalized overlap of the channel outputs of the pure probe with
    ``(d_s, d_i)`` amplitude matrix ``A``, from three traces of ``A``.

    With the idler reduction ``phi = A^T A*``:

        v = <psi|rho1|psi> = Tr[A* phi A^T] / d_s,   Tr[rho1^2] = Tr[phi^2] / d_s,
        Tr[rho0 rho1] = eta v + (1 - eta) Tr[rho1^2],
        Tr[rho0^2] = eta^2 + 2 eta (1 - eta) v + (1 - eta)^2 Tr[rho1^2],

    at O(d_s d_i^2), for any ``A``, not only a diagonal one.  The oracle
    between the dense :func:`hs_distinguishability` and the package's
    ``channel_overlap``, which takes these traces of ``diag(lam)``.
    """
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(amplitudes)
    d_s = a.shape[0]
    phi = a.T @ a.conj()
    v = float(np.real(np.vdot(a, a @ phi.T))) / d_s
    purity_1 = float(np.real(np.vdot(phi, phi))) / d_s
    cross = eta * v + (1.0 - eta) * purity_1
    purity_0 = eta**2 + 2.0 * eta * (1.0 - eta) * v + (1.0 - eta) ** 2 * purity_1
    return np.clip(cross / np.sqrt(purity_0 * purity_1), 0.0, 1.0)


def projector(amp):
    """The dense ``(d_s d_i)``-dimensional projector onto the pure state with
    amplitude matrix ``amp``."""
    v = np.asarray(amp, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def idler_reduction(amp):
    """Reduced state of the idler: the signal factor traced out of the dense
    ``(d_s d_i)``-dimensional projector."""
    return partial_trace(projector(amp), *amp.shape, side="left")


def _real_overlap(a, b):
    """Tr[a b] for Hermitian a, b (real by symmetry)."""
    return float(np.real(np.einsum("ij,ji->", a, b)))


def purity(rho):
    """``Tr[rho^2]``, in ``[1/dim, 1]``."""
    return _real_overlap(rho, rho)


def effective_rank_k(rho):
    """Inverse purity ``1 / Tr[rho^2]``, between 1 and ``dim``."""
    return 1.0 / purity(rho)


# ---------------------------------------------------------------------------
# Channel outputs for single-photon target detection.
#
# A bipartite probe is split into a signal half (sent out) and an idler half
# (kept in memory).  With the target absent only noise comes back; with the
# target present the detector sees a mixture of the probe and that noise.
# The noise model is post-selected: a photon is always detected, and the
# noise is maximally mixed over the ``d_s`` signal modes.


def channel_outputs(amp, eta):
    """Target-present and target-absent states ``(rho0, rho1)`` for the probe
    with amplitude matrix ``amp``, ``eta`` the average fraction of signal
    photons received: ``rho1 = I/d_s (x) phi_i`` with ``phi_i`` the idler
    reduction, and ``rho0 = eta |psi><psi| + (1 - eta) rho1``.  Neither is
    checked here; ``test_illumination.TestChannelOutputs`` checks both."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    d_s = amp.shape[0]
    rho1 = np.kron(np.eye(d_s) / d_s, idler_reduction(amp))
    return eta * projector(amp) + (1.0 - eta) * rho1, rho1


def hs_distinguishability(rho, sigma):
    """Normalized overlap ``Tr[rho sigma] / sqrt(Tr[rho^2] Tr[sigma^2])``.

    Symmetric, unitarily invariant, 1 exactly for identical states and 0
    exactly for states with orthogonal support; for pure states it reduces
    to the squared inner product of the vectors.  The normalization never
    vanishes because purities are at least ``1/dim``.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {len(rho)} vs {len(sigma)}")
    num = _real_overlap(rho, sigma)
    value = num / np.sqrt(purity(rho) * purity(sigma))
    return float(min(max(value, 0.0), 1.0))


# ---------------------------------------------------------------------------


def haar_random_state(d_s, d_i, seed):
    """Amplitude matrix of the uniformly random pure state that
    ``haar_random_amplitudes`` draws from ``seed``."""
    return haar_random_amplitudes(d_s, d_i, [seed])[0]


def haar_amplitudes_oracle(d_s, d_i, seeds):
    """The sampler ``haar_random_amplitudes`` batches, one sample at a
    time: per seed its own generator, ``n = d_s d_i`` normals for the real
    parts, ``n`` more for the imaginary parts, and the row divided by its
    ``np.linalg.norm``.  The package must give the same bits."""
    n = d_s * d_i
    stack = np.empty((len(seeds), n), dtype=complex)
    for row, seed in zip(stack, seeds):
        rng = np.random.default_rng(int(seed))
        row.real = rng.standard_normal(n)
        row.imag = rng.standard_normal(n)
        row /= np.linalg.norm(row)
    return stack.reshape(-1, d_s, d_i)


def pure_state_dict(amp):
    """The wire-format object of the pure state with amplitude matrix ``amp``."""
    d_s, d_i = np.shape(amp)
    pairs = [[z.real, z.imag] for z in np.asarray(amp, dtype=complex).reshape(-1).tolist()]
    return {"d_s": d_s, "d_i": d_i, "amplitudes": pairs}


def density_to_dict(mat):
    """A square complex matrix as a wire-format object: ``[re, im]`` float
    pairs from one ``tolist``, row-major."""
    return {"dim": mat.shape[0], "entries": np.stack((mat.real, mat.imag), -1).tolist()}


def assert_reads_back(objs, mats):
    """The decoded wire-format objects ``objs`` hold the matrices ``mats``:
    each dimension, and every part bit for bit, signed zeros included."""
    assert [e["dim"] for e in objs] == [len(m) for m in mats]
    got = np.array([e["entries"] for e in objs], dtype=float)
    want = np.stack([np.stack((m.real, m.imag), -1) for m in mats])
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_printed_digits(text, want):
    """The printed number ``text`` lies within one unit of the 12th
    significant digit of the mpmath value ``want`` (``"0"`` where it is 0)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        if want == 0:
            assert text == "0"
            return
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(want))) - 11)
        assert abs(mpmath.mpf(text) - want) <= unit, (text, mpmath.nstr(want, 20))


def povm_error(rho0, rho1, p0, povm):
    """Error probability of the binary measurement ``povm = (E0, E1)``.

    Outcome ``k`` reads as "the state was ``rho_k``", so by definition the
    error is ``p0 Tr[rho0 E1] + p1 Tr[rho1 E0]``.  The reference for
    ``optimal_povm``; arguments are not validated.
    """
    e0, e1 = povm
    return float(p0 * np.trace(rho0 @ e1).real + (1.0 - p0) * np.trace(rho1 @ e0).real)


def ginibre(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, dim):
    a = ginibre(rng, dim)
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(ginibre(rng, dim))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(rng, dim, rank=None):
    """Random mixed state of the given rank, full rank by default."""
    g = ginibre(rng, dim, rank)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def random_projective_povm(rng, dim):
    """Two orthogonal projectors from a random split of a random basis."""
    u = random_unitary(rng, dim)
    k = int(rng.integers(1, dim))
    p0 = u[:, :k] @ u[:, :k].conj().T
    p0 = 0.5 * (p0 + p0.conj().T)
    return [p0, np.eye(dim) - p0]


def random_two_outcome_povm(rng, dim):
    """A random effect with spectrum inside (0, 1) and its complement."""
    g = ginibre(rng, dim)
    b = g @ g.conj().T
    b = 0.5 * (b + b.conj().T)
    scale = float(np.linalg.eigvalsh(b)[-1]) * float(rng.uniform(1.05, 2.0))
    e = b / scale
    return [e, np.eye(dim) - e]


def product_baseline_state(amp):
    """Amplitude matrix of the unentangled baseline of the pure state
    ``amp``, the oracle for the closed form.

    A product probe of the same dimensions: the signal carries the input's
    signal-reduction spectrum (descending) as populations of one pure
    vector, and the idler is pinned to level 0, so its effective rank is 1.
    """
    d_s, d_i = amp.shape
    rho_s = partial_trace(projector(amp), d_s, d_i, side="right")
    spectrum = np.linalg.eigvalsh(rho_s)[::-1]
    signal_amp = np.sqrt(np.clip(spectrum, 0.0, None))
    signal_amp /= np.linalg.norm(signal_amp)
    base = np.zeros((d_s, d_i), dtype=complex)
    base[:, 0] = signal_amp
    return base


def unentangled_error(eta, d_s, p0=0.5):
    """Minimum error probability of the unentangled baseline, in closed form.

    The baseline probe is a pure signal with the idler pinned to one level
    (effective idler rank 1).  For every such product probe, with
    ``c = p0 (1 - eta) - p1``, the operator ``p0 rho0 - p1 rho1`` has the
    eigenvalue ``p0 eta + c/d_s`` once, ``c/d_s`` ``d_s - 1`` times and 0
    elsewhere, so the error needs no diagonalization.  At ``p0 = 1/2`` it is
    ``(1 - eta (1 - 1/d_s)) / 2``.  The oracle for the sweep's ``p_err_ci``
    column.
    """
    c = p0 * (1.0 - eta) - (1.0 - p0)
    norm = abs(p0 * eta + c / d_s) + (d_s - 1) * abs(c) / d_s
    return float(min(max(0.5 * (1.0 - norm), 0.0), 1.0))


def exact_flat_error(eta, n, p0=0.5):
    """Minimum error probability of a probe with ``n = d_s d_i`` flat
    weights, as the exact rational at the float inputs: the eigenvalue form
    of :func:`unentangled_error` in :class:`~fractions.Fraction` arithmetic,
    the oracle for the package's ``flat_probe_error``.
    """
    eta, p0 = Fraction(eta), Fraction(p0)
    c = p0 * (1 - eta) - (1 - p0)
    norm = abs(p0 * eta + c / n) + (n - 1) * abs(c) / n
    return (1 - norm) / 2


def float_neighbours(exact):
    """The float nearest the rational ``exact`` and the floats on either side
    of it: a result within one step of the correctly rounded value is one
    of these three."""
    nearest = float(exact)
    return math.nextafter(nearest, -math.inf), nearest, math.nextafter(nearest, math.inf)


def schmidt_helstrom_oracle(weights, eta, d_s, p0=0.5):
    """Minimum error of the illumination channel from the eigenvalues of its
    Schmidt-space blocks, the oracle for the package's secular root.

    With ``c = p0 (1 - eta) - p1``, ``p0 rho0 - p1 rho1`` is the
    ``d_i x d_i`` block ``p0 eta sqrt(lam) sqrt(lam)^T + (c/d_s) diag(lam)``
    plus the scalars ``c lam_m / d_s``, each ``d_s - 1`` times.  The blocks
    of all (eta, probe) pairs go through one stacked ``eigvalsh``; the
    arguments broadcast as the package's ``schmidt_helstrom_error``'s do.
    """
    eta = np.asarray(eta, dtype=float)
    lam = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    c = p0 * (1.0 - eta) - (1.0 - p0)
    ones = np.ones(np.broadcast_shapes(eta.shape, lam.shape[:-1]))
    root, diag = np.sqrt(lam), np.arange(lam.shape[-1])
    block = (p0 * eta * ones)[..., None, None] * (root[..., :, None] * root[..., None, :])
    block[..., diag, diag] += (c / d_s * ones)[..., None] * lam
    norm = np.sum(np.abs(np.linalg.eigvalsh(block)), axis=-1)
    norm = norm + (d_s - 1) * np.abs(c) * np.sum(lam, axis=-1) / d_s
    p_err = np.clip(0.5 * (1.0 - norm), 0.0, 1.0)
    return float(p_err) if p_err.ndim == 0 else p_err


def evaluate_state_metrics(amp, eta, p0=0.5):
    """Direct overlap and minimum error probability for the pure input state
    with amplitude matrix ``amp``.

    The dense route: both channel outputs as ``(d_s d_i)``-dimensional
    matrices, their overlap, and Helstrom's bound from a full eigensolve.
    The oracle for the closed form and the Schmidt-space kernel.
    """
    rho0, rho1 = channel_outputs(amp, eta)
    return hs_distinguishability(rho0, rho1), helstrom_error(diagonalize(rho0, rho1, p0))
