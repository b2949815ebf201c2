"""Numerical verification of the model's structural claims.

Parameter sweeps pair the closed-form overlap with its direct matrix
evaluation and with the exact minimum error probability, and every row is
held to the agreement of the two overlap routes.  Random sampling over
pure inputs backs the claim that the maximally entangled state is the best
probe.

Both drivers take the error probability from the Schmidt-space kernel
:func:`~qillum.discrimination.schmidt_helstrom_error`.  The sweep's direct
overlap still comes from the dense channel outputs, as the independent
route to the closed form.  The optimality check needs no dense matrix: it
takes each sample's Schmidt weights from one stacked singular-value
decomposition and its overlap from the closed form.  The dense route
(``channel_outputs``, ``hs_distinguishability``, ``helstrom_error``) is the
tests' oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .states import (
    DEFAULT_TOL,
    BipartiteState,
    bell_state,
    effective_rank_k,
    haar_random_amplitudes,
    idler_reduction,
    schmidt_family_state,
)
from .illumination import target_absent_state, target_present_state
from .discrimination import (
    h01_closed_form,
    hs_distinguishability,
    schmidt_helstrom_error,
)

#: Required agreement between the closed-form and direct overlap columns.
RECORD_AGREEMENT_TOL = 1e-9
#: Largest number of rows (eta x dimension x family) one sweep may have.
MAX_SWEEP_ROWS = 10_000
#: Amplitudes per chunk of Haar samples in :func:`verify_bell_optimality`
#: (1 MiB of complex amplitudes), so its memory does not grow with the
#: sample count: 1024 samples per chunk at d = 8, 16 at d = 64.
_CHUNK_AMPLITUDES = 1 << 16


class VerificationError(ValueError):
    """A computed result failed one of its numerical cross-checks."""


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a parameter sweep."""

    eta: float
    d_s: int
    d_i: int
    k_i: float
    h01_closed: float
    h01_direct: float
    p_err: float
    p_err_ci: float
    advantage: float

    def validate(self, p_min: float = 0.5):
        """Check internal consistency; raises :class:`VerificationError`."""
        gap = abs(self.h01_closed - self.h01_direct)
        if gap >= RECORD_AGREEMENT_TOL:
            raise VerificationError(
                f"closed/direct overlap disagree by {gap:.3e} at "
                f"(eta={self.eta}, d_s={self.d_s}, k_i={self.k_i})"
            )
        for name, p in (("p_err", self.p_err), ("p_err_ci", self.p_err_ci)):
            if not -1e-12 <= p <= p_min + 1e-10:
                raise VerificationError(f"{name}={p} outside [0, {p_min}]")


@dataclass(frozen=True)
class StateFamily:
    """A rule assigning an input state to each signal dimension."""

    name: str
    build: Callable[[int], BipartiteState] = field(compare=False)


def bell_family() -> StateFamily:
    """Maximally entangled input at every dimension."""
    return StateFamily("bell", bell_state)


def uniform_rank_family(rank: int) -> StateFamily:
    """Input with a flat reduced spectrum of the given rank (so k_i = rank)."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    spectrum = np.full(rank, 1.0 / rank)
    return StateFamily(
        f"uniform-rank:{rank}", lambda d_s: schmidt_family_state(d_s, spectrum)
    )


def fixed_spectrum_family(spectrum: Sequence[float]) -> StateFamily:
    """Input with one prescribed reduced spectrum at every dimension."""
    spec = np.asarray(spectrum, dtype=float)
    return StateFamily("spectrum", lambda d_s: schmidt_family_state(d_s, spec))


def unentangled_error(eta: float, d_s: int, p0: float = 0.5) -> float:
    """Minimum error probability of the unentangled baseline.

    The baseline probe is a pure signal with the idler pinned to one level
    (effective idler rank 1).  For every such product probe, with
    ``c = p0 (1 - eta) - p1``, the operator ``p0 rho0 - p1 rho1`` has the
    eigenvalue ``p0 eta + c/d_s`` once, ``c/d_s`` ``d_s - 1`` times and 0
    elsewhere, so the error needs no diagonalization.  At ``p0 = 1/2`` it is
    ``(1 - eta (1 - 1/d_s)) / 2``.
    """
    c = p0 * (1.0 - eta) - (1.0 - p0)
    norm = abs(p0 * eta + c / d_s) + (d_s - 1) * abs(c) / d_s
    return float(min(max(0.5 * (1.0 - norm), 0.0), 1.0))


def run_sweep(
    etas: Iterable[float],
    dims: Iterable[int],
    families: Sequence[StateFamily],
    p0: float = 0.5,
    tol: float = DEFAULT_TOL,
) -> list[SweepRecord]:
    """Evaluate the full pipeline on a grid.

    Emits one validated record per point, ordered lexicographically (eta
    outermost, then dimension, then family).  Each (dimension, family)
    probe, its effective idler rank and its Schmidt weights are built once,
    before any row; then each probe's rows are computed together, sharing
    its dense target-absent state (which does not depend on eta), so only
    one such state is held at a time.  Every row's ``p_err`` comes from the
    Schmidt-space kernel :func:`~qillum.discrimination.schmidt_helstrom_error`
    (one ``d_i x d_i`` eigensolve); ``h01_direct`` comes from the dense
    channel outputs, as the independent check of the closed form.  Raises
    ``ValueError`` for grid entries outside their ranges, a grid of more
    than :data:`MAX_SWEEP_ROWS` rows or families infeasible at a requested
    dimension, and its subclass :class:`VerificationError` for a record
    that fails its cross-checks.
    """
    etas = [float(e) for e in etas]
    dims = [int(d) for d in dims]
    if not etas or not dims or not families:
        raise ValueError("grid axes must be non-empty")
    n_rows = len(etas) * len(dims) * len(families)
    if n_rows > MAX_SWEEP_ROWS:
        raise ValueError(f"grid has {n_rows} rows, more than {MAX_SWEEP_ROWS}")
    for e in etas:
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {e}")
    for d in dims:
        if d < 2:
            raise ValueError(f"signal dimension must be >= 2, got {d}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be in [0, 1], got {p0}")
    p_min = min(p0, 1.0 - p0)

    probes = {}
    for d_s in dims:
        for f, family in enumerate(families):
            state = family.build(d_s)
            phi_i = idler_reduction(state)
            probes[d_s, f] = state, phi_i, effective_rank_k(phi_i), np.linalg.eigvalsh(phi_i.mat)

    records = {}
    for (d_s, f), (state, phi_i, k_i, weights) in probes.items():
        # one dense target-absent state at a time, shared by the probe's rows
        rho1 = target_absent_state(d_s, phi_i, tol)
        for e, eta in enumerate(etas):
            record = SweepRecord(
                eta=eta,
                d_s=d_s,
                d_i=state.d_i,
                k_i=k_i,
                h01_closed=h01_closed_form(eta, d_s, k_i),
                h01_direct=hs_distinguishability(target_present_state(state, eta, rho1, tol), rho1),
                p_err=schmidt_helstrom_error(weights, eta, d_s, p0),
                p_err_ci=unentangled_error(eta, d_s, p0),
                advantage=h01_closed_form(eta, d_s, 1.0) - h01_closed_form(eta, d_s, k_i),
            )
            record.validate(p_min)
            records[e, d_s, f] = record
    return [records[e, d_s, f] for e in range(len(etas)) for d_s in dims for f in range(len(families))]


@dataclass(frozen=True)
class OptimalityReport:
    """Comparison of the maximally entangled input against random inputs."""

    d_s: int
    d_i: int
    n_samples: int
    seed: int
    eta: float
    p0: float
    bell_h01: float
    bell_p_err: float
    best_sampled_h01: float
    best_sampled_p_err: float
    margin_h01: float
    margin_p_err: float
    margin: float


def _best_schmidt_metrics(
    weights: np.ndarray, eta: float, d_s: int, p0: float
) -> tuple[float, float]:
    """Smallest overlap and smallest minimum error over an ``(n, r)`` stack of
    Schmidt weights, one row per pure input.

    The overlap falls as the effective rank ``k_i = 1 / sum(lam^2)`` rises,
    so the smallest overlap is the closed form at the largest ``k_i``.
    """
    k_i = float(np.max(1.0 / np.sum(weights * weights, axis=1)))
    p_err = float(np.min(schmidt_helstrom_error(weights, eta, d_s, p0)))
    return h01_closed_form(eta, d_s, k_i), p_err


def verify_bell_optimality(
    d_s: int,
    d_i: int,
    n_samples: int,
    seed: int,
    eta: float = 0.5,
    p0: float = 0.5,
    tol: float = DEFAULT_TOL,
) -> OptimalityReport:
    """Sample random pure inputs and compare them to the entangled reference.

    The reference is the maximally entangled state on ``d = min(d_s, d_i)``
    paired dimensions; with ``d_s = d_i`` its overlap and error probability
    are minimal over all inputs, so both margins (best sampled minus
    reference) stay non-negative up to numerical noise.  Identical
    arguments always produce an identical report.

    No dense channel output is built.  Sample ``k`` is
    :func:`~qillum.states.haar_random_amplitudes` of the ``k``-th child seed
    of ``seed``.  The samples are taken in chunks of
    :data:`_CHUNK_AMPLITUDES` amplitudes; each chunk's Schmidt weights come
    from one stacked ``svd`` (squared singular values), its overlaps from
    :func:`~qillum.discrimination.h01_closed_form` and its errors from one
    stacked call of :func:`~qillum.discrimination.schmidt_helstrom_error`.
    The reference goes the same route with the flat weights ``1/d``.  Each
    sample's weights must sum to 1 within ``tol``.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    d = min(d_s, d_i)
    if d < 2:
        raise ValueError(f"reference dimension min(d_s, d_i) must be >= 2, got {d}")
    bell_h01, bell_p_err = _best_schmidt_metrics(np.full((1, d), 1.0 / d), eta, d, p0)

    child_seeds = np.random.SeedSequence(seed).generate_state(n_samples)
    step = max(1, _CHUNK_AMPLITUDES // (d_s * d_i))
    best_h01 = np.inf
    best_p_err = np.inf
    for first in range(0, n_samples, step):
        amplitudes = haar_random_amplitudes(d_s, d_i, child_seeds[first : first + step])
        weights = np.linalg.svd(amplitudes, compute_uv=False) ** 2
        # the weights sum to the sample's squared norm; NaN fails the test
        total = np.sum(weights, axis=1)
        bad = np.flatnonzero(~(np.abs(total - 1.0) <= tol))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"sample {first + k}: Schmidt weights sum to {total[k]:.17g}, "
                f"expected 1 within {tol:.1e}"
            )
        h01, p_err = _best_schmidt_metrics(weights, eta, d_s, p0)
        best_h01 = min(best_h01, h01)
        best_p_err = min(best_p_err, p_err)

    margin_h01 = best_h01 - bell_h01
    margin_p_err = best_p_err - bell_p_err
    return OptimalityReport(
        d_s=int(d_s),
        d_i=int(d_i),
        n_samples=int(n_samples),
        seed=int(seed),
        eta=float(eta),
        p0=float(p0),
        bell_h01=bell_h01,
        bell_p_err=bell_p_err,
        best_sampled_h01=float(best_h01),
        best_sampled_p_err=float(best_p_err),
        margin_h01=float(margin_h01),
        margin_p_err=float(margin_p_err),
        margin=float(min(margin_h01, margin_p_err)),
    )
