"""Numerical verification of the model's structural claims.

Parameter sweeps pair the closed-form overlap with its direct matrix
evaluation and with the exact minimum error probability, so the agreement
and the joint monotonicity of the two measures can be checked on concrete
grids.  Random sampling over pure inputs backs the claim that the
maximally entangled state is the best probe, and a level-set probe studies
whether the error probability is determined by the effective idler rank
alone.

Every driver takes the error probability from the Schmidt-space kernel
:func:`~qillum.discrimination.schmidt_helstrom_error`.  The sweep's direct
overlap still comes from the dense channel outputs, as the independent
route to the closed form.  The optimality check needs no dense matrix: it
takes each sample's Schmidt weights from one stacked singular-value
decomposition and its overlap from the closed form.  The dense route
(``channel_outputs``, ``hs_distinguishability``, ``helstrom_error``) is the
tests' oracle for all three.
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
#: Slack allowed when checking monotone orderings of computed values.
MONOTONICITY_SLACK = 1e-10
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
class MonotonicityReport:
    """Outcome of the axis-by-axis ordering checks over a sweep grid."""

    n_records: int
    n_comparisons: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _axis_series_check(
    label: str,
    records: Sequence[SweepRecord],
    violations: list[str],
) -> int:
    """Check one ordered series: overlap non-increasing (strict where the
    closed form strictly drops) and error probability non-increasing."""
    n = 0
    for a, b in zip(records, records[1:]):
        n += 1
        closed_drop = a.h01_closed - b.h01_closed
        if closed_drop < -1e-12:
            violations.append(f"{label}: closed-form overlap increases ({a} -> {b})")
        elif closed_drop > 1e-12:
            if b.h01_direct >= a.h01_direct - MONOTONICITY_SLACK:
                violations.append(
                    f"{label}: direct overlap not strictly decreasing ({a} -> {b})"
                )
        else:
            if b.h01_direct > a.h01_direct + MONOTONICITY_SLACK:
                violations.append(f"{label}: direct overlap increases ({a} -> {b})")
        if b.p_err > a.p_err + MONOTONICITY_SLACK:
            violations.append(f"{label}: error probability increases ({a} -> {b})")
    return n


def verify_monotonicity(records: Sequence[SweepRecord]) -> MonotonicityReport:
    """Check that overlap and error probability never rise along any axis.

    The records must form a complete grid as produced by :func:`run_sweep`:
    every (eta, d_s) cell holds the same family sequence, in the same order.
    Along eta and along d_s the family slot is held fixed; the third axis
    compares the families within one cell in order of increasing effective
    idler rank.  Strictness of the overlap drop is decided by the closed
    form, which is exact in the parameters.
    """
    if not records:
        raise ValueError("no records")
    etas = sorted({r.eta for r in records})
    dims = sorted({r.d_s for r in records})
    cells: dict[tuple[float, int], list[SweepRecord]] = {}
    for r in records:
        cells.setdefault((r.eta, r.d_s), []).append(r)
    n_families = len(records) // (len(etas) * len(dims))
    if len(records) != len(etas) * len(dims) * n_families or any(
        len(v) != n_families for v in cells.values()
    ) or len(cells) != len(etas) * len(dims):
        raise ValueError("records do not form a complete eta x d_s x family grid")

    violations: list[str] = []
    comparisons = 0
    for d in dims:
        for f in range(n_families):
            series = [cells[(e, d)][f] for e in etas]
            comparisons += _axis_series_check(f"eta axis (d_s={d}, family {f})", series, violations)
    for e in etas:
        for f in range(n_families):
            series = [cells[(e, d)][f] for d in dims]
            comparisons += _axis_series_check(f"d_s axis (eta={e}, family {f})", series, violations)
    for e in etas:
        for d in dims:
            series = sorted(cells[(e, d)], key=lambda r: r.k_i)
            comparisons += _axis_series_check(f"k_i axis (eta={e}, d_s={d})", series, violations)

    return MonotonicityReport(
        n_records=len(records),
        n_comparisons=comparisons,
        violations=tuple(violations),
    )


def co_monotonicity_violations(
    records: Sequence[SweepRecord], slack: float = MONOTONICITY_SLACK
) -> list[tuple[SweepRecord, SweepRecord]]:
    """Pairs where the two measures order the grid points oppositely.

    Considers every pair whose parameters (eta, d_s, k_i) are componentwise
    ordered, i.e. the pairs reachable along a monotone trajectory, and
    flags those where the overlap strictly drops while the error
    probability strictly rises (beyond ``slack``).
    """
    bad = []
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            lo, hi = a, b
            if (b.eta, b.d_s, b.k_i) <= (a.eta, a.d_s, a.k_i):
                lo, hi = b, a
            if not (
                lo.eta <= hi.eta
                and lo.d_s <= hi.d_s
                and lo.k_i <= hi.k_i + 1e-12
            ):
                continue
            if hi.h01_direct < lo.h01_direct - slack and hi.p_err > lo.p_err + slack:
                bad.append((lo, hi))
    return bad


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


def _inverse_purity(spectrum: np.ndarray) -> float:
    return 1.0 / float(np.sum(spectrum * spectrum))


def _level_set_bisect(a: np.ndarray, b: np.ndarray, k_target: float) -> np.ndarray:
    """Point on the segment a..b with inverse purity equal to ``k_target``.

    The endpoints must straddle the level; 80 halvings pin the mixing
    parameter far below float resolution of the constraint.
    """
    fa = _inverse_purity(a) - k_target
    fb = _inverse_purity(b) - k_target
    if abs(fa) < 1e-14:
        return a.copy()
    if abs(fb) < 1e-14:
        return b.copy()
    if fa * fb > 0:
        raise ValueError("segment does not cross the requested level")
    t_lo, t_hi = 0.0, 1.0
    for _ in range(80):
        t = 0.5 * (t_lo + t_hi)
        f = _inverse_purity((1.0 - t) * a + t * b) - k_target
        if (f > 0) == (fb > 0):
            t_hi = t
        else:
            t_lo = t
    t = 0.5 * (t_lo + t_hi)
    spec = (1.0 - t) * a + t * b
    return spec / spec.sum()


def spectra_with_effective_rank(
    d_s: int, k_target: float, n_spectra: int, seed: int
) -> list[np.ndarray]:
    """Probability vectors of length ``d_s`` whose inverse purity is ``k_target``.

    The first spectrum interpolates between the flat rank-``floor(k)`` and
    rank-``floor(k)+1`` vectors; the rest start from seeded Dirichlet draws
    pulled back onto the level set by bisection toward either the flat
    vector or a deterministic vertex.  Both endpoints of the feasible range
    have a unique solution, which is returned for every sample.
    """
    if not 1.0 <= k_target <= d_s:
        raise ValueError(f"k_target must be in [1, {d_s}], got {k_target}")
    if n_spectra < 1:
        raise ValueError("n_spectra must be >= 1")

    vertex = np.zeros(d_s)
    vertex[0] = 1.0
    flat = np.full(d_s, 1.0 / d_s)
    if abs(k_target - 1.0) < 1e-12:
        return [vertex.copy() for _ in range(n_spectra)]
    if abs(k_target - d_s) < 1e-12:
        return [flat.copy() for _ in range(n_spectra)]

    r = int(np.floor(k_target))
    base_lo = np.zeros(d_s)
    base_lo[:r] = 1.0 / r
    if abs(k_target - r) < 1e-12:
        base = base_lo
    else:
        base_hi = np.zeros(d_s)
        base_hi[: r + 1] = 1.0 / (r + 1)
        base = _level_set_bisect(base_lo, base_hi, k_target)
    spectra = [base]

    rng = np.random.default_rng(seed)
    while len(spectra) < n_spectra:
        draw = rng.dirichlet(np.ones(d_s))
        if _inverse_purity(draw) >= k_target:
            spectra.append(_level_set_bisect(draw, vertex, k_target))
        else:
            spectra.append(_level_set_bisect(draw, flat, k_target))
    return spectra


@dataclass(frozen=True)
class SpectrumProbeReport:
    """Measured spread of the error probability over one rank level set.

    Reports only; whether the spread should vanish is left open, since the
    closed-form overlap depends on the spectrum solely through its inverse
    purity but the exact error probability need not.
    """

    d_s: int
    eta: float
    k_target: float
    n_spectra: int
    seed: int
    p_errors: tuple[float, ...]
    spread: float
    spectra: tuple[tuple[float, ...], ...]


def spectrum_dependence_probe(
    d_s: int,
    eta: float,
    k_target: float,
    n_spectra: int,
    seed: int,
    p0: float = 0.5,
) -> SpectrumProbeReport:
    """Evaluate the error probability across spectra sharing one rank level.

    Generates ``n_spectra`` distinct spectra with inverse purity
    ``k_target``, takes the exact minimum error of each spectrum's probe
    (:func:`~qillum.states.schmidt_family_state`, whose Schmidt weights are
    the spectrum) from one stacked call of the Schmidt-space kernel, and
    reports the largest pairwise spread without judging it.
    """
    spectra = spectra_with_effective_rank(d_s, k_target, n_spectra, seed)
    p_errors = schmidt_helstrom_error(np.array(spectra), eta, d_s, p0)
    return SpectrumProbeReport(
        d_s=int(d_s),
        eta=float(eta),
        k_target=float(k_target),
        n_spectra=int(n_spectra),
        seed=int(seed),
        p_errors=tuple(float(p) for p in p_errors),
        spread=float(np.max(p_errors) - np.min(p_errors)),
        spectra=tuple(tuple(float(x) for x in s) for s in spectra),
    )
