"""Channel outputs for single-photon target detection.

A bipartite probe is split into a signal half (sent out) and an idler half
(kept in memory).  With the target absent only noise comes back; with the
target present the detector sees a mixture of the probe and that noise.
The noise model is post-selected: a photon is always detected, and the
noise is maximally mixed over the ``d_s`` signal modes.
"""

from __future__ import annotations

import numpy as np

from .states import DEFAULT_TOL, BipartiteState, DensityMatrix, idler_reduction


def target_absent_state(d_s: int, phi_i: DensityMatrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """``rho1 = I/d_s (x) phi_i``: a random signal mode paired with the idler
    reduction ``phi_i``.  It does not depend on ``eta``; its purity is the
    idler purity divided by ``d_s``."""
    return DensityMatrix(np.kron(np.eye(d_s) / d_s, phi_i.mat), tol)


def target_present_state(
    state: BipartiteState, eta: float, rho1: DensityMatrix, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """``rho0 = eta * |psi><psi| + (1 - eta) * rho1``, with ``rho1`` the
    probe's :func:`target_absent_state`."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return DensityMatrix(eta * state.projector() + (1.0 - eta) * rho1.mat, tol)


def channel_outputs(
    state: BipartiteState, eta: float, tol: float = DEFAULT_TOL
) -> tuple[DensityMatrix, DensityMatrix]:
    """Target-present and target-absent states ``(rho0, rho1)``.

    ``eta`` is the average fraction of signal photons received.  Both states
    are positive by construction.
    """
    rho1 = target_absent_state(state.d_s, idler_reduction(state), tol)
    return target_present_state(state, eta, rho1, tol), rho1
