"""Tests for sweeps and their monotonicity, optimality sampling and the
dependence of the error probability on the whole spectrum."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qillum import analysis
from qillum.states import schmidt_probe
from qillum.discrimination import h01_closed_form, schmidt_helstrom_error
from qillum.analysis import (
    SWEEP_COLUMNS,
    VerificationError,
    bell_family,
    fixed_spectrum_family,
    run_sweep,
    uniform_rank_family,
    verify_bell_optimality,
)
from conftest import (
    UNIT,
    bell_state,
    effective_rank_k,
    evaluate_state_metrics,
    haar_random_state,
    idler_reduction,
    product_baseline_state,
    schmidt_amplitudes,
    sweep_columns,
    unentangled_error,
)


class TestRunSweep:
    def test_single_point_zero_signal(self):
        table = run_sweep([0.0], [2], [bell_family()])
        assert table.shape == (1, len(SWEEP_COLUMNS))
        r = sweep_columns(table)
        assert r["h01_closed"][0] == 1.0
        assert r["h01_direct"][0] == pytest.approx(1.0, abs=1e-12)
        assert r["p_err"][0] == pytest.approx(0.5, abs=1e-12)

    def test_bell_qubit_full_signal(self):
        r = sweep_columns(run_sweep([1.0], [2], [bell_family()]))
        assert r["h01_closed"][0] == pytest.approx(0.5, abs=1e-12)
        # trace-norm oracle: 0.5 * (bell projector - I/4) has eigenvalues
        # 0.5 * {3/4, -1/4, -1/4, -1/4}, so the norm is 0.75 and p_err 0.125
        assert r["p_err"][0] == pytest.approx(0.125, abs=1e-12)

    def test_overlap_column_strictly_decreasing_in_eta(self):
        table = run_sweep([0.0, 0.25, 0.5, 0.75, 1.0], [2], [bell_family()])
        h = sweep_columns(table)["h01_direct"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_lexicographic_ordering(self):
        table = run_sweep([0.2, 0.7], [2, 3], [uniform_rank_family(1), bell_family()])
        r = sweep_columns(table)
        keys = list(zip(r["eta"].tolist(), r["d_s"].tolist(), r["k_i"].tolist()))
        assert keys == sorted(keys)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            run_sweep([], [2], [bell_family()])
        with pytest.raises(ValueError):
            run_sweep([1.5], [2], [bell_family()])
        with pytest.raises(ValueError):
            run_sweep([0.5], [1], [bell_family()])
        with pytest.raises(ValueError):
            run_sweep([0.5], [2], [uniform_rank_family(3)])  # rank > d_s

    def test_ci_column_matches_rank_one_family(self):
        r = sweep_columns(run_sweep([0.6], [3], [uniform_rank_family(1)]))
        assert r["p_err"][0] == pytest.approx(r["p_err_ci"][0], abs=1e-12)
        assert r["advantage"][0] == pytest.approx(0.0, abs=1e-12)

    def test_no_dense_channel_output(self):
        """At d = 32 one dense (d_s d_i)-dimensional complex matrix alone
        takes 16.8 MB; the sweep holds nothing larger than d_s x d_i."""
        tracemalloc.start()
        try:
            run_sweep([0.5], [32], [bell_family()])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_memory_bound_at_d_1000(self):
        """A probe is its 1000 weights, and the kernel's secular root needs a
        few vectors of that length.  A (d_s, d_i) complex amplitude matrix
        would take 16 MB, and its idler reduction another 16 MB."""
        tracemalloc.start()
        try:
            run_sweep([0.5], [1000], [bell_family()])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_memory_bound_at_d_3000(self):
        """No d_i x d_i matrix either: one such block alone is 72 MB at
        d = 3000, and the kernel's secular root needs a few vectors of
        3000 weights."""
        tracemalloc.start()
        try:
            run_sweep([0.5], [3000], [bell_family()])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("family, d_i", [
        (bell_family(), 5), (uniform_rank_family(3), 3), (fixed_spectrum_family([0.5, 0.0, 0.2, 0.3]), 4),
    ])
    def test_families_return_weights(self, family, d_i):
        lam = family(5)
        assert lam.ndim == 1 and lam.dtype == float and lam.size == d_i
        assert abs(lam.sum() - 1.0) <= 1e-15


class TestSweepRecordValidation:
    """The cross-checks ``run_sweep`` runs once on its finished columns, made
    to fail by skewing one column."""

    def test_rejects_disagreeing_overlap_columns(self, monkeypatch):
        exact = analysis.channel_overlap
        monkeypatch.setattr(analysis, "channel_overlap", lambda lam, eta, d_s: exact(lam, eta, d_s) - 0.05)
        with pytest.raises(VerificationError, match="disagree by 5.000e-02 at"):
            run_sweep([0.5], [2], [bell_family()])

    def test_rejects_out_of_range_probability(self, monkeypatch):
        """A probe's error above the unentangled one's leaves the bracket."""
        exact = analysis.schmidt_helstrom_error
        monkeypatch.setattr(analysis, "schmidt_helstrom_error", lambda *args: exact(*args) + 0.2)
        with pytest.raises(VerificationError, match=r"^p_err=0\.5125\d* outside \[0\.3125, 0\.375\] at \(eta=0\.5,"):
            run_sweep([0.5], [2], [bell_family()])

    def test_rejects_out_of_range_baseline(self, monkeypatch):
        """An unentangled error below the probe's leaves the bracket."""
        exact = analysis.flat_probe_error

        def baseline_skewed(eta, n, p0):
            return exact(eta, n, p0) - 1.0 * (np.asarray(n) == 2)  # n = d_s: the baseline

        monkeypatch.setattr(analysis, "flat_probe_error", baseline_skewed)
        with pytest.raises(VerificationError, match=r"^p_err=0\.3125\d* outside \[0\.3125, -0\.625\] at"):
            run_sweep([0.5], [2], [bell_family()])

    def test_checks_follow_every_probe(self, monkeypatch):
        """A family infeasible at a later dimension is a ValueError (exit 1),
        even where an earlier probe already fails a cross-check (exit 2)."""
        monkeypatch.setattr(analysis, "channel_overlap", lambda lam, eta, d_s: np.full(len(eta), np.nan))
        with pytest.raises(ValueError, match="exceeds") as caught:
            run_sweep([0.5], [4, 2], [uniform_rank_family(3)])
        assert not isinstance(caught.value, VerificationError)
        with pytest.raises(VerificationError, match="disagree by nan"):
            run_sweep([0.5], [4, 2], [uniform_rank_family(2)])


class TestSweepColumns:
    """A sweep evaluates each probe as columns over the eta grid."""

    def test_one_kernel_call_per_probe(self, monkeypatch):
        exact = analysis.schmidt_helstrom_error
        calls = []

        def counted(weights, etas, *args):
            calls.append((len(weights), len(etas)))
            return exact(weights, etas, *args)

        monkeypatch.setattr(analysis, "schmidt_helstrom_error", counted)
        families = [bell_family(), uniform_rank_family(2), fixed_spectrum_family([0.5, 0.3, 0.2])]
        table = run_sweep([0.0, 0.3, 0.7, 1.0], [3, 5], families)
        assert len(table) == 24
        # per dimension, one call per family; the baseline is a closed form
        assert calls == [(3, 4), (2, 4), (3, 4), (5, 4), (2, 4), (3, 4)]

    @pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_baseline_column_is_the_closed_form(self, p0):
        etas, dims = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0], [2, 3, 7, 16]
        table = run_sweep(etas, dims, [bell_family(), uniform_rank_family(1)], p0)
        assert len(table) == 48
        r = sweep_columns(table)
        for eta, d_s, p_err_ci in zip(r["eta"].tolist(), r["d_s"].tolist(), r["p_err_ci"].tolist()):
            assert p_err_ci == unentangled_error(eta, int(d_s), p0)
        if p0 in (0.0, 1.0):
            # a certain prior is never mistaken
            assert r["p_err"].tolist() == [0.0] * 48

    def test_rows_equal_single_point_sweeps(self):
        """Each row of a grid equals a sweep of its point alone."""
        etas, dims = [0.2, 0.0, 1.0, 0.65], [4, 3, 4]
        families = [bell_family(), fixed_spectrum_family([0.7, 1e-12, 0.3 - 1e-12])]
        table = run_sweep(etas, dims, families, 0.37)
        points = [(e, d, f) for e in etas for d in dims for f in families]
        assert len(table) == len(points)
        for row, (e, d, f) in zip(table.tolist(), points):
            assert row == run_sweep([e], [d], [f], 0.37)[0].tolist()


class TestVerifyMonotonicity:
    def test_eta_axis_rank_one(self):
        # closed form collapses to 1/sqrt(1 + eta^2) for d_s=2, k_i=1
        etas = [0.0, 0.25, 0.5, 0.75, 1.0]
        r = sweep_columns(run_sweep(etas, [2], [uniform_rank_family(1)]))
        expected = [1 / np.sqrt(1 + e**2) for e in etas]
        assert np.allclose(r["h01_closed"], expected, atol=1e-12)
        h = r["h01_direct"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_bell_dimension_axis(self):
        r = sweep_columns(run_sweep([0.5], [2, 3, 4, 5], [bell_family()]))
        h = r["h01_direct"].tolist()
        p = r["p_err"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))
        assert all(b < a for a, b in zip(p, p[1:]))

    def test_rank_axis_at_fixed_dimension(self):
        """Flat spectra of rising rank form a majorization chain, so the error
        may not rise along them either."""
        families = [uniform_rank_family(r) for r in (1, 2, 3, 4)]
        r = sweep_columns(run_sweep([0.7], [4], families))
        h = r["h01_direct"].tolist()
        p = r["p_err"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))
        assert all(b <= a for a, b in zip(p, p[1:]))

    def test_full_grid_passes(self):
        """Along eta, along d_s and along the families (flat ranks 1, 2, then
        d_s: a majorization chain), neither measure rises."""
        etas, dims = [0.0, 0.5, 1.0], [2, 3, 4]
        families = [uniform_rank_family(1), uniform_rank_family(2), bell_family()]
        r = sweep_columns(run_sweep(etas, dims, families))
        grid = np.column_stack((r["h01_direct"], r["p_err"]))
        grid = grid.reshape(len(etas), len(dims), len(families), 2)
        for axis in range(3):
            assert np.all(np.diff(grid, axis=axis) <= 1e-12)


class TestVerifyBellOptimality:
    def test_square_case_margins(self):
        report = verify_bell_optimality(2, 2, 200, seed=11)
        assert report.margin >= -1e-9
        assert report.margin_h01 >= -1e-9
        assert report.margin_p_err >= -1e-9

    def test_self_comparison_margin_is_zero(self):
        """The reference is the kernel and the closed form on flat weights."""
        report = verify_bell_optimality(3, 3, 5, seed=1)
        flat = np.full(3, 1.0 / 3)
        h01 = h01_closed_form(report.eta, 3, 1.0 / float(np.sum(flat * flat)))
        p_err = schmidt_helstrom_error(flat, report.eta, 3, report.p0)
        assert h01 - report.bell_h01 == 0.0
        assert p_err - report.bell_p_err == 0.0

    def test_bell_matches_closed_form(self):
        report = verify_bell_optimality(3, 3, 10, seed=2, eta=0.5)
        assert report.bell_h01 == pytest.approx(h01_closed_form(0.5, 3, 3.0), abs=1e-9)

    def test_rectangular_case_rank_capped(self):
        report = verify_bell_optimality(2, 4, 300, seed=4, eta=0.5)
        floor = h01_closed_form(0.5, 2, 2.0)
        assert report.best_sampled_h01 >= floor - 1e-9
        assert report.bell_h01 == pytest.approx(floor, abs=1e-9)

    def test_deterministic_for_fixed_seed(self):
        a = verify_bell_optimality(2, 2, 50, seed=33)
        b = verify_bell_optimality(2, 2, 50, seed=33)
        assert a == b

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            verify_bell_optimality(2, 2, 0, seed=0)

    @pytest.mark.parametrize("d_s, d_i", [(3, 3), (2, 4), (4, 2), (3, 5)])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("p0", [0.0, 0.4, 1.0])
    def test_matches_dense_loop(self, d_s, d_i, eta, p0):
        """Every field against a per-sample loop over the dense oracle."""
        n, seed = 12, 7
        report = verify_bell_optimality(d_s, d_i, n, seed, eta=eta, p0=p0)
        bell_h01, bell_p_err = evaluate_state_metrics(bell_state(min(d_s, d_i)), eta, p0)
        dense = [
            evaluate_state_metrics(haar_random_state(d_s, d_i, int(s)), eta, p0)
            for s in np.random.SeedSequence(seed).generate_state(n)
        ]
        best_h01 = min(h for h, _ in dense)
        best_p_err = min(p for _, p in dense)
        expected = {
            "bell_h01": bell_h01,
            "bell_p_err": bell_p_err,
            "best_sampled_h01": best_h01,
            "best_sampled_p_err": best_p_err,
            "margin_h01": best_h01 - bell_h01,
            "margin_p_err": best_p_err - bell_p_err,
            "margin": min(best_h01 - bell_h01, best_p_err - bell_p_err),
        }
        got = dataclasses.asdict(report)
        for name, value in expected.items():
            assert abs(got[name] - value) <= 1e-12, name
        assert (got["d_s"], got["d_i"], got["n_samples"], got["seed"]) == (d_s, d_i, n, seed)
        assert (got["eta"], got["p0"]) == (eta, p0)

    @pytest.mark.parametrize("spoil", [1.001, np.nan])
    def test_rejects_unnormalized_samples(self, monkeypatch, spoil):
        """Each sample's weights must sum to 1; the check fails on NaN."""
        exact = np.linalg.svd

        def spoiled(a, **kwargs):
            s = exact(a, **kwargs)
            s[3] *= spoil
            return s

        monkeypatch.setattr(np.linalg, "svd", spoiled)
        with pytest.raises(ValueError, match="sample 3: Schmidt weights sum to (1.00|nan)"):
            verify_bell_optimality(3, 3, 5, seed=1)

    def test_bell_effective_rank_equals_dimension(self):
        for d in range(2, 7):
            k = effective_rank_k(idler_reduction(bell_state(d)))
            assert k == pytest.approx(d, abs=1e-10)
            assert sweep_columns(run_sweep([0.5], [d], [bell_family()]))["k_i"][0] == pytest.approx(d, abs=1e-12)


def spectrum_rows(*spectra):
    """Sweep rows at d_s = 4, eta = 1/2 and p0 = 1/2, one per idler spectrum,
    as dicts by column name, each held to the dense route within 1e-12."""
    table = run_sweep([0.5], [4], [fixed_spectrum_family(s) for s in spectra])
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in table.tolist()]
    for spec, r in zip(spectra, rows):
        h01, p_err = evaluate_state_metrics(schmidt_amplitudes(4, schmidt_probe(4, spec)), 0.5)
        assert abs(r["h01_closed"] - h01) <= 1e-12
        assert abs(r["p_err"] - p_err) <= 1e-12
    return rows


#: Spectrum entries: exact zeros, tiny weights and ordinary ones, in any order.
SPECTRUM_ENTRY = st.one_of(
    st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]),
    st.floats(1e-13, 1e-11),
    st.floats(1e-3, 1.0),
)


class TestSweepMatchesDenseOracle:
    """Every ``spectrum:`` row against the dense route on the same probe: the
    idler reduction traced out of the projector, both channel outputs as
    ``(d_s d_i)``-dimensional matrices, their overlap and Helstrom's bound."""

    @settings(deadline=None, max_examples=100)
    @given(
        d_s=st.integers(2, 8),
        entries=st.lists(SPECTRUM_ENTRY, min_size=1, max_size=8),
        eta=UNIT,
        p0=UNIT,
    )
    @example(d_s=2, entries=[1.0], eta=0.0, p0=0.0)
    @example(d_s=2, entries=[0.3, 0.7], eta=1.0, p0=1.0)
    @example(d_s=8, entries=[1e-12, 0.0, 0.6, 1e-13, 0.4, 1e-11, 0.0, 0.2], eta=1.0, p0=0.0)
    @example(d_s=5, entries=[1e-12, 1.0, 1e-12], eta=0.7, p0=0.37)
    @example(d_s=4, entries=[0.0, 0.52, 0.01, 0.47], eta=0.5, p0=0.8)
    def test_rows_match(self, d_s, entries, eta, p0):
        entries = entries[:d_s]
        assume(max(entries) >= 1e-3)
        spectrum = np.array(entries) / sum(entries)
        (row,) = run_sweep([eta], [d_s], [fixed_spectrum_family(spectrum)], p0).tolist()
        record = dict(zip(SWEEP_COLUMNS, row))
        state = schmidt_amplitudes(d_s, schmidt_probe(d_s, spectrum))
        h01, p_err = evaluate_state_metrics(state, eta, p0)
        assert record["d_i"] == spectrum.size
        assert abs(record["k_i"] - effective_rank_k(idler_reduction(state))) <= 1e-12
        assert abs(record["h01_closed"] - h01) <= 1e-12
        assert abs(record["h01_direct"] - h01) <= 1e-12
        assert abs(record["p_err"] - p_err) <= 1e-12


class TestSpectrumProbe:
    """The overlap depends on the spectrum only through k_i = 1/sum(lam^2),
    but the exact error depends on all of it, through a Schur-concave sum;
    hence ``sweep`` has no monotonicity gate along k_i."""

    def test_error_is_not_a_function_of_idler_rank(self):
        s3 = np.sqrt(3)
        two, tilted = spectrum_rows([0.5, 0.5, 0.0, 0.0], [(1 + s3) / 4] + 3 * [(3 - s3) / 12])
        assert abs(two["k_i"] - 2.0) <= 1e-12 and abs(tilted["k_i"] - 2.0) <= 1e-12
        assert abs(two["h01_closed"] - tilted["h01_closed"]) <= 1e-12
        assert two["p_err"] == pytest.approx(0.28125, abs=1e-12)
        assert tilted["p_err"] == pytest.approx(0.2800654, abs=1e-7)
        assert two["p_err"] - tilted["p_err"] > 1e-3

    def test_error_can_rise_with_idler_rank(self):
        lo, hi = spectrum_rows([0.67, 0.16, 0.13, 0.04], [0.0, 0.52, 0.01, 0.47])
        assert 2.028 < lo["k_i"] < hi["k_i"] < 2.036
        assert hi["h01_direct"] < lo["h01_direct"]
        assert lo["p_err"] == pytest.approx(0.2797661, abs=1e-7)
        assert hi["p_err"] == pytest.approx(0.2806614, abs=1e-7)


class TestCiSignalMarginalChoice:
    """The baseline's minimum error does not depend on which pure signal is
    sent: for any unit signal vector the weighted difference has the same
    spectrum, so the choice recorded in the baseline is immaterial."""

    def test_p_err_identical_across_pure_signals(self):
        rng = np.random.default_rng(55)
        d_s, d_i, eta = 4, 3, 0.7
        values = []
        for _ in range(6):
            sig = rng.standard_normal(d_s) + 1j * rng.standard_normal(d_s)
            sig /= np.linalg.norm(sig)
            amp = np.zeros((d_s, d_i), dtype=complex)
            amp[:, 0] = sig  # idler pinned to level 0
            _, p_err = evaluate_state_metrics(amp, eta)
            values.append(p_err)
        assert max(values) - min(values) < 1e-10
        # and the analytic value for any pure signal
        expected = 0.5 * (1 - eta * (1 - 1 / d_s))
        assert values[0] == pytest.approx(expected, abs=1e-10)


class TestFixedSpectrumFamily:
    def test_builds_requested_spectrum(self):
        fam = fixed_spectrum_family([0.6, 0.4])
        r = sweep_columns(run_sweep([0.5], [3], [fam]))
        assert r["k_i"][0] == pytest.approx(1 / (0.36 + 0.16), abs=1e-10)
        assert r["d_i"][0] == 2


class TestUnentangledError:
    """The closed-form baseline error against dense Helstrom on the product
    baseline probe, for any prior."""

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_s=st.integers(2, 8),
        d_i=st.integers(1, 4),
        eta=UNIT,
        p0=UNIT,
    )
    @example(seed=0, d_s=2, d_i=1, eta=0.0, p0=0.0)
    @example(seed=1, d_s=8, d_i=4, eta=1.0, p0=1.0)
    @example(seed=2, d_s=5, d_i=3, eta=1.0, p0=0.0)
    @example(seed=3, d_s=3, d_i=2, eta=0.0, p0=1.0)
    def test_matches_dense_baseline(self, seed, d_s, d_i, eta, p0):
        base = product_baseline_state(haar_random_state(d_s, d_i, seed=seed))
        _, dense = evaluate_state_metrics(base, eta, p0)
        assert abs(unentangled_error(eta, d_s, p0) - dense) <= 1e-12
