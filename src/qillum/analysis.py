"""Numerical verification of the model's structural claims.

Parameter sweeps pair the closed-form overlap with its direct evaluation
and with the exact minimum error probability.  Random sampling over pure
inputs backs the claim that the maximally entangled state is the best probe.

Neither the sweep nor the optimality check diagonalizes anything or
builds a dense ``(d_s d_i)``-dimensional matrix: a probe is its Schmidt
weights ``lam``, and its error one secular root
(:func:`~qillum.discrimination.schmidt_helstrom_error`).  A sweep probe is
its weights and a number of copies of them all, so a flat probe is one
weight at any dimension.  A sweep is one float table in one pass: a
kernel call per stack of probes of one width, each closed form once over
stacked arguments, and the checks once finished (the direct overlap
against the closed form, the error against the closed forms that bracket
it).  The optimality check takes its Bell reference from the closed forms
alone, each sample's weights from one stacked singular-value
decomposition and each chunk's errors from one kernel call, and holds
each sample's error to the same bracket.  The dense channel outputs are
the tests' oracle for both.  Both take their parameters unchecked, a
sweep's families among them: :mod:`qillum.cli` checks each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .states import DEFAULT_TOL, haar_random_amplitudes
from .discrimination import channel_overlap, flat_probe_error, h01_closed_form, schmidt_helstrom_error

#: Required agreement between the closed-form and direct overlap columns.
RECORD_AGREEMENT_TOL = 1e-9
#: How far a probe's ``p_err`` may stray outside the closed-form bracket
#: [Bell probe, unentangled probe] that holds every probe's exact error.
BRACKET_TOL = 1e-12
#: The columns of a sweep table (:func:`run_sweep`), in CSV order:
#: ``h01_closed`` is the closed-form overlap at the effective idler rank
#: ``k_i``, ``h01_direct`` the same from traces of ``diag(lam)`` (never
#: through ``k_i``), ``p_err`` the probe's minimum error, ``p_err_ci`` that of
#: the unentangled baseline (in closed form) and ``advantage`` the
#: closed-form overlap gap between the two; ``d_s`` and ``d_i`` are integral.
SWEEP_COLUMNS = ("eta", "d_s", "d_i", "k_i", "h01_closed", "h01_direct", "p_err", "p_err_ci", "advantage")
#: Amplitudes per chunk of Haar samples in :func:`verify_bell_optimality`
#: (1 MiB of complex amplitudes; 1024 samples at d = 8), and weights times etas
#: per sweep stack, whose probes share one width: their count of nonzero
#: weights (``d_i`` counts the zeros too).  A flat probe is one weight; only a
#: ``spectrum:`` probe with more nonzero weights than that, equal or not, is a
#: stack of its own over the whole eta grid, at about 44 bytes per (eta x
#: weight) cell.
_CHUNK_AMPLITUDES = 1 << 16


class VerificationError(ValueError):
    """A computed result failed one of its numerical cross-checks."""


def _check_rows(ok: np.ndarray, error: type[ValueError], message) -> None:
    """Raise ``error(message(r))`` for the first row ``r`` where ``ok`` is
    false.  ``ok`` is a comparison, false at NaN, so NaN fails every check."""
    bad = (~ok).nonzero()[0]
    if bad.size:
        raise error(message(int(bad[0])))


def run_sweep(etas: Iterable[float], dims: Iterable[int],
              families: Sequence[tuple[np.ndarray, int] | None], p0: float = 0.5) -> np.ndarray:
    """Evaluate the full pipeline on a grid, as a float table: one row per
    point, ordered lexicographically (eta outermost, then dimension, then
    family), with the columns :data:`SWEEP_COLUMNS`.

    A family is its probe at every dimension as ``(lam, copies)``: Schmidt
    weights ``lam``, each appearing ``copies`` times
    (:func:`~qillum.cli.parse_family`), or ``None`` for the Bell probe's,
    ``([1/d_s], d_s)``, built at each dimension.  So a flat probe is one
    weight at any dimension, ``d_i`` is ``copies`` times the number of
    weights, zeros included, and the purity ``sum(copies lam^2)``.  A
    family's zero weights (a ``spectrum:`` file's zero entries) are dropped
    once, for every dimension, and enter no sum.  The probes are taken in output order and grouped by
    width, their count of nonzero weights, widths in first-seen order, so
    every flat probe is in one group.  Each group is cut into stacks of at most
    :data:`_CHUNK_AMPLITUDES` weights times etas (one probe may pass it
    alone), each holding only its probes' own weights: a stack is one kernel
    call for ``p_err`` and one for ``h01_direct`` (traces of ``diag(lam)``),
    over the whole eta grid, each probe on its own ``d_s``.  The closed
    forms are one stacked call each, written with the rest into one
    preallocated table, and the checks run once on it: the two overlaps
    agree, and ``p_err`` lies between the Bell probe's error and
    ``p_err_ci``, within :data:`BRACKET_TOL`.  The arguments are unchecked
    (:mod:`qillum.cli` holds each family to the smallest dimension); a
    failed row raises :class:`VerificationError`.
    """
    dims = [int(d) for d in dims]
    eta = np.array([float(e) for e in etas])
    n = len(dims) * len(families)  # column j of the (eta, probe) blocks is probe j in output order
    d_s, d_i, purity = np.repeat(np.array(dims, dtype=float), len(families)), *np.empty((2, n))
    p_err, h01_direct = np.empty((2, eta.size, n))
    # each family as (lam, copies, d_i) without its zero weights, which count in d_i alone; Bell's at each d
    kept = [None if probe is None else (probe[0][probe[0] != 0.0], probe[1], probe[1] * probe[0].size)
            for probe in families]
    stacks = {}  # the probes as (column, lam, copies) by width, widths in first-seen order
    for j, (d, probe) in enumerate(product(dims, kept)):
        lam, copies, d_i[j] = ((1.0 / d,), d, d) if probe is None else probe
        stacks.setdefault(len(lam), []).append((j, lam, copies))
    for width, stack in stacks.items():
        step = max(1, _CHUNK_AMPLITUDES // (width * eta.size))
        for first in range(0, len(stack), step):
            cols, lam, copies = zip(*stack[first : first + step])
            cols, lam, copies = np.array(cols), np.array(lam), np.array(copies, dtype=float)
            # sum(copies lam^2) in index order: it keeps k_i's bytes until the purity gets an exactly rounded sum
            purity[cols] = (copies[:, None] * lam * lam).cumsum(axis=-1)[:, -1]
            p_err[:, cols] = schmidt_helstrom_error(lam, eta[:, None], d_s[cols], p0, copies)
            h01_direct[:, cols] = channel_overlap(lam, eta[:, None], d_s[cols], copies)
    # the overlap at k_i and 1, the error at d_s and d_s d_i (Bell)
    k_i = 1.0 / purity
    h01_closed, h01_ci = h01_closed_form(eta[:, None], d_s, np.array((k_i, np.ones(n)))[:, None])
    p_err_ci, bell = flat_probe_error(eta[:, None], np.array((d_s, d_s * d_i))[:, None], p0)
    blocks = dict(eta=eta[:, None], d_s=d_s, d_i=d_i, k_i=k_i, h01_closed=h01_closed, h01_direct=h01_direct,
                  p_err=p_err, p_err_ci=p_err_ci, advantage=h01_ci - h01_closed)
    table = np.empty((eta.size, n, len(SWEEP_COLUMNS)))
    for k, name in enumerate(SWEEP_COLUMNS):
        table[..., k] = blocks[name]
    table = table.reshape(-1, len(SWEEP_COLUMNS))
    column = dict(zip(SWEEP_COLUMNS, table.T))
    gap = np.abs(column["h01_closed"] - column["h01_direct"])
    # every probe's error lies between the Bell probe's (as many weights) and the unentangled one's
    p, ci, bell = column["p_err"], column["p_err_ci"], bell.reshape(-1)
    for ok, failure in (
        (gap < RECORD_AGREEMENT_TOL, lambda r: f"closed/direct overlap disagree by {gap[r]:.3e}"),
        ((bell - BRACKET_TOL <= p) & (p <= ci + BRACKET_TOL), lambda r: f"p_err={p[r]} outside [{bell[r]}, {ci[r]}]"),
    ):
        _check_rows(ok, VerificationError, lambda r: (
            f"{failure(r)} at (eta={column['eta'][r]}, d_s={int(column['d_s'][r])}, "
            f"d_i={int(column['d_i'][r])}, k_i={column['k_i'][r]})"
        ))
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


def verify_bell_optimality(
    d: int,
    n_samples: int,
    seed: int,
    eta: float = 0.5,
    p0: float = 0.5,
) -> OptimalityReport:
    """Sample random pure inputs on ``d`` signal and ``d`` idler modes and
    compare them to the maximally entangled state.

    Its overlap and error probability are minimal over all inputs, so both
    margins (best sampled minus reference) stay non-negative up to
    numerical noise.  Identical arguments always produce an identical
    report.

    The reference is :func:`~qillum.discrimination.h01_closed_form` at
    ``k_i = d`` and :func:`~qillum.discrimination.flat_probe_error` at
    ``d^2`` weights (the arguments are unchecked), computed before any
    sample is drawn.  No dense channel output is built.  Sample ``k`` is
    drawn from ``PCG64`` seeded with the ``k``-th word of
    ``SeedSequence(seed).generate_state(n_samples)``.  The samples are taken
    in chunks of :data:`_CHUNK_AMPLITUDES` amplitudes, each chunk one
    :func:`~qillum.states.haar_random_amplitudes` call, which derives its
    seeds' generator states in one pass and builds one generator.  Each
    chunk's Schmidt weights come from one stacked ``svd`` (squared singular
    values) and its errors from one stacked
    :func:`~qillum.discrimination.schmidt_helstrom_error` call.
    The overlap falls as ``k_i = 1 / sum(lam^2)`` rises, so the smallest is
    the closed form at the largest ``k_i``.  Each sample's weights must sum
    to 1 within :data:`~qillum.states.DEFAULT_TOL`, else ``ValueError``.

    Every probe's exact error lies between ``flat_probe_error`` at ``d^2``
    (the reference) and at ``d`` (the unentangled probe), since the secular
    root is Schur concave in the weights.  Each chunk's errors are held to
    them within :data:`BRACKET_TOL` by one comparison; a sample outside (or
    NaN) raises :class:`VerificationError` naming it, which ``verify-bell``
    reports with exit 2.  So ``margin`` needs no floor: the bracket holds
    ``margin_p_err >= -BRACKET_TOL``, and ``margin_h01 < 0`` needs ``k_i >
    d``, while Cauchy-Schwarz gives ``k_i <= d / (sum lam)^2``, and ``sum
    lam`` was within 2.4e-15 of 1 on every sample measured (``d`` 2 to 128).
    """
    bell_h01 = h01_closed_form(eta, d, d)
    bell_p_err, unentangled = flat_probe_error(eta, np.array([d * d, d]), p0).tolist()

    child_seeds = np.random.SeedSequence(seed).generate_state(n_samples)
    step = max(1, _CHUNK_AMPLITUDES // (d * d))
    best_k_i, best_p_err = -np.inf, np.inf
    for first in range(0, n_samples, step):
        amplitudes = haar_random_amplitudes(d, d, child_seeds[first : first + step])
        weights = np.linalg.svd(amplitudes, compute_uv=False) ** 2
        # the weights sum to the sample's squared norm
        total = np.sum(weights, axis=1)
        _check_rows(np.abs(total - 1.0) <= DEFAULT_TOL, ValueError, lambda k: (
            f"sample {first + k}: Schmidt weights sum to {total[k]:.17g}, expected 1 within {DEFAULT_TOL:.1e}"
        ))
        p_err = schmidt_helstrom_error(weights, eta, d, p0)
        _check_rows((bell_p_err - BRACKET_TOL <= p_err) & (p_err <= unentangled + BRACKET_TOL), VerificationError,
                    lambda k: f"sample {first + k}: p_err={p_err[k]} outside [{bell_p_err}, {unentangled}]")
        best_k_i = max(best_k_i, float(np.max(1.0 / np.sum(weights * weights, axis=1))))
        best_p_err = min(best_p_err, float(np.min(p_err)))

    best_h01 = h01_closed_form(eta, d, best_k_i)
    margin_h01, margin_p_err = best_h01 - bell_h01, best_p_err - bell_p_err
    return OptimalityReport(
        d_s=int(d),
        d_i=int(d),
        n_samples=int(n_samples),
        seed=int(seed),
        eta=float(eta),
        p0=float(p0),
        bell_h01=bell_h01,
        bell_p_err=bell_p_err,
        best_sampled_h01=best_h01,
        best_sampled_p_err=best_p_err,
        margin_h01=margin_h01,
        margin_p_err=margin_p_err,
        margin=min(margin_h01, margin_p_err),
    )
