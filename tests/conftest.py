"""Shared random-object generators and dense oracles for the test suite."""

import numpy as np
from hypothesis import strategies as st

from qillum.states import DEFAULT_TOL, BipartiteState
from qillum.illumination import channel_outputs
from qillum.discrimination import helstrom_error, hs_distinguishability

#: Floats in [0, 1] that draw both endpoints often (for eta and p0).
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def max_abs_diff(a, b):
    """Largest entrywise magnitude of ``a - b``."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


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


def random_density(rng, dim):
    """Full-rank random mixed state."""
    g = ginibre(rng, dim)
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


def product_baseline_state(state):
    """Dense unentangled baseline of ``state``, the oracle for the closed form.

    A product probe of the same dimensions: the signal carries the input's
    signal-reduction spectrum (descending) as populations of one pure
    vector, and the idler is pinned to level 0, so its effective rank is 1.
    """
    rho_s = partial_trace(state.projector(), state.d_s, state.d_i, side="right")
    spectrum = np.linalg.eigvalsh(rho_s)[::-1]
    signal_amp = np.sqrt(np.clip(spectrum, 0.0, None))
    signal_amp /= np.linalg.norm(signal_amp)
    amp = np.zeros(state.d_s * state.d_i, dtype=complex)
    amp[:: state.d_i] = signal_amp
    return BipartiteState(state.d_s, state.d_i, amp)


def evaluate_state_metrics(state, eta, p0=0.5, tol=DEFAULT_TOL):
    """Direct overlap and minimum error probability for one input state.

    The dense route: both channel outputs as ``(d_s d_i)``-dimensional
    matrices, their overlap, and Helstrom's bound from a full eigensolve.
    The oracle for the closed form and the Schmidt-space kernel.
    """
    rho0, rho1 = channel_outputs(state, eta, tol)
    return hs_distinguishability(rho0, rho1), helstrom_error(rho0, rho1, p0)
