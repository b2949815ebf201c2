"""Numerical verification of the model's structural claims.

Parameter sweeps pair the closed-form overlap with its direct evaluation
and with the exact minimum error probability.  Random sampling over pure
inputs backs the claim that the maximally entangled state is the best probe.

Neither the sweep nor the optimality check diagonalizes anything or
builds a dense ``(d_s d_i)``-dimensional matrix: a probe is its Schmidt
weights ``lam``, and its error one secular root
(:func:`~qillum.discrimination.schmidt_helstrom_error`).  A sweep is one
float table, columns over the whole eta grid, checked once finished: the
direct overlap from traces of ``diag(lam)`` against the closed form, and
the error against the closed forms that bracket it.  The optimality check
takes each sample's weights from one stacked singular-value
decomposition.  The dense channel outputs are the tests' oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .states import DEFAULT_TOL, haar_random_amplitudes, schmidt_probe
from .discrimination import channel_overlap, flat_probe_error, h01_closed_form, schmidt_helstrom_error

#: A sweep family: its probe's Schmidt weights ``lam`` at each signal
#: dimension ``d_s``, a 1-D float array of length ``d_i`` that sums to 1
#: (:func:`~qillum.states.schmidt_probe`).
Family = Callable[[int], np.ndarray]
#: Required agreement between the closed-form and direct overlap columns.
RECORD_AGREEMENT_TOL = 1e-9
#: The columns of a sweep table (:func:`run_sweep`), in CSV order:
#: ``h01_closed`` is the closed-form overlap at the effective idler rank
#: ``k_i``, ``h01_direct`` the same from traces of ``diag(lam)`` (never
#: through ``k_i``), ``p_err`` the probe's minimum error, ``p_err_ci`` that of
#: the unentangled baseline (in closed form) and ``advantage`` the
#: closed-form overlap gap between the two; ``d_s`` and ``d_i`` are integral.
SWEEP_COLUMNS = ("eta", "d_s", "d_i", "k_i", "h01_closed", "h01_direct", "p_err", "p_err_ci", "advantage")
#: Largest number of rows (eta x dimension x family) one sweep may have.
MAX_SWEEP_ROWS = 10_000
#: Amplitudes per chunk of Haar samples in :func:`verify_bell_optimality`
#: (1 MiB of complex amplitudes), so its memory does not grow with the
#: sample count: 1024 samples per chunk at d = 8, 16 at d = 64.
_CHUNK_AMPLITUDES = 1 << 16


class VerificationError(ValueError):
    """A computed result failed one of its numerical cross-checks."""


def bell_family() -> Family:
    """Maximally entangled input at every dimension: ``d_s`` coefficients
    ``1/sqrt(d_s)``, squared."""
    return lambda d_s: np.full(d_s, 1.0 / np.sqrt(d_s)) ** 2


def uniform_rank_family(rank: int) -> Family:
    """Input with a flat reduced spectrum of the given rank (so k_i = rank),
    checked against each signal dimension before it is allocated."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")

    def probe(d_s: int) -> np.ndarray:
        if rank > d_s:
            raise ValueError(f"rank {rank} exceeds the signal dimension {d_s}")
        return schmidt_probe(d_s, np.full(rank, 1.0 / rank))

    return probe


def fixed_spectrum_family(spectrum: Sequence[float], tol: float = DEFAULT_TOL) -> Family:
    """Input with one prescribed reduced spectrum at every dimension; its sum
    must be 1 within ``tol`` (see :func:`~qillum.states.schmidt_probe`)."""
    spec = np.asarray(spectrum, dtype=float)
    return lambda d_s: schmidt_probe(d_s, spec, tol)


def run_sweep(
    etas: Iterable[float],
    dims: Iterable[int],
    families: Sequence[Family],
    p0: float = 0.5,
) -> np.ndarray:
    """Evaluate the full pipeline on a grid, as a float table: one row per
    point, ordered lexicographically (eta outermost, then dimension, then
    family), with the columns :data:`SWEEP_COLUMNS`.

    Each (dimension, family) probe's weights ``lam`` are built once, and
    each of its columns is one call over the whole eta grid: the closed
    form at ``k_i = 1 / sum(lam^2)``, ``h01_direct`` from traces of
    ``diag(lam)`` (its independent check) and ``p_err`` from the kernel;
    ``p_err_ci`` is a closed form.  The cross-checks run once, on the
    finished table: the two overlaps agree, and ``p_err`` lies between the
    Bell probe's error and ``p_err_ci``, within 1e-12.  Raises
    ``ValueError`` for grid entries outside their ranges, a grid of more
    than :data:`MAX_SWEEP_ROWS` rows or families infeasible at a requested
    dimension, and its subclass :class:`VerificationError` for a row that
    fails its cross-checks.
    """
    etas = [float(e) for e in etas]
    dims = [int(d) for d in dims]
    if not etas or not dims or not families:
        raise ValueError("grid axes must be non-empty")
    n_rows = len(etas) * len(dims) * len(families)
    if n_rows > MAX_SWEEP_ROWS:
        raise ValueError(f"grid has {n_rows} rows, more than {MAX_SWEEP_ROWS}")
    for d in dims:
        if d < 2:
            raise ValueError(f"signal dimension must be >= 2, got {d}")

    probes, ones = {}, np.ones(len(etas))  # x * ones spreads x over the grid exactly
    for d_s in dict.fromkeys(dims):
        p_err_ci = flat_probe_error(etas, d_s, p0)
        h01_rank_one = h01_closed_form(etas, d_s, 1.0)
        for f, family in enumerate(families):
            lam = family(d_s)
            # sum(lam^2) added in index order: np.sum's pairwise order
            # can move the last bit of k_i
            k_i = 1.0 / float(np.cumsum(lam * lam)[-1])
            h01_closed = h01_closed_form(etas, d_s, k_i)
            values = dict(
                eta=etas, d_s=d_s, d_i=lam.size, k_i=k_i, h01_closed=h01_closed,
                h01_direct=channel_overlap(lam, etas, d_s),
                p_err=schmidt_helstrom_error(np.sort(lam), etas, d_s, p0),
                p_err_ci=p_err_ci, advantage=h01_rank_one - h01_closed,
            )
            probes[d_s, f] = np.column_stack([values[name] * ones for name in SWEEP_COLUMNS])

    # (eta, probe, column), flattened to the rows in their output order
    blocks = [probes[d_s, f] for d_s in dims for f in range(len(families))]
    table = np.stack(blocks, axis=1).reshape(n_rows, len(SWEEP_COLUMNS))
    column = dict(zip(SWEEP_COLUMNS, table.T))
    gap = np.abs(column["h01_closed"] - column["h01_direct"])
    # every probe's error lies between the Bell probe's (as many weights) and the unentangled one's
    p, ci = column["p_err"], column["p_err_ci"]
    bell = flat_probe_error(column["eta"], column["d_s"] * column["d_i"], p0)
    for ok, failure in (
        (gap < RECORD_AGREEMENT_TOL, lambda r: f"closed/direct overlap disagree by {gap[r]:.3e}"),
        ((bell - 1e-12 <= p) & (p <= ci + 1e-12), lambda r: f"p_err={p[r]} outside [{bell[r]}, {ci[r]}]"),
    ):
        bad = np.flatnonzero(~ok)  # NaN fails every check
        if bad.size:
            r = bad[0]
            raise VerificationError(
                f"{failure(r)} at (eta={column['eta'][r]}, d_s={int(column['d_s'][r])}, "
                f"d_i={int(column['d_i'][r])}, k_i={column['k_i'][r]})"
            )
    return table


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
