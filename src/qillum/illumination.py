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


def channel_outputs(
    state: BipartiteState, eta: float, tol: float = DEFAULT_TOL
) -> tuple[DensityMatrix, DensityMatrix]:
    """Target-present and target-absent states ``(rho0, rho1)``.

    ``eta`` is the average fraction of signal photons received.  The
    target-absent state ``rho1 = I/d_s (x) phi_i`` pairs a random signal
    mode with the idler reduction ``phi_i``; its purity is the idler purity
    divided by ``d_s``.  The target-present state is the convex mixture
    ``rho0 = eta * |psi><psi| + (1 - eta) * rho1``.  Both are positive by
    construction.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    rho1 = np.kron(np.eye(state.d_s) / state.d_s, idler_reduction(state).mat)
    rho0 = eta * state.projector() + (1.0 - eta) * rho1
    return DensityMatrix(rho0, tol), DensityMatrix(rho1, tol)
