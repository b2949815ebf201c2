"""Tests for sweeps and their monotonicity, optimality sampling and the
dependence of the error probability on the whole spectrum."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum.states import bell_state, schmidt_family_state, BipartiteState
from qillum.discrimination import h01_closed_form, schmidt_helstrom_error
from qillum.analysis import (
    SweepRecord,
    bell_family,
    fixed_spectrum_family,
    run_sweep,
    unentangled_error,
    uniform_rank_family,
    verify_bell_optimality,
)
from conftest import UNIT, evaluate_state_metrics, haar_random_state, product_baseline_state


class TestRunSweep:
    def test_single_point_zero_signal(self):
        records = run_sweep([0.0], [2], [bell_family()])
        assert len(records) == 1
        r = records[0]
        assert r.h01_closed == 1.0
        assert r.h01_direct == pytest.approx(1.0, abs=1e-12)
        assert r.p_err == pytest.approx(0.5, abs=1e-12)

    def test_bell_qubit_full_signal(self):
        r = run_sweep([1.0], [2], [bell_family()])[0]
        assert r.h01_closed == pytest.approx(0.5, abs=1e-12)
        # trace-norm oracle: 0.5 * (bell projector - I/4) has eigenvalues
        # 0.5 * {3/4, -1/4, -1/4, -1/4}, so the norm is 0.75 and p_err 0.125
        assert r.p_err == pytest.approx(0.125, abs=1e-12)

    def test_overlap_column_strictly_decreasing_in_eta(self):
        records = run_sweep([0.0, 0.25, 0.5, 0.75, 1.0], [2], [bell_family()])
        h = [r.h01_direct for r in records]
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_lexicographic_ordering(self):
        records = run_sweep([0.2, 0.7], [2, 3], [uniform_rank_family(1), bell_family()])
        keys = [(r.eta, r.d_s, r.k_i) for r in records]
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
        records = run_sweep([0.6], [3], [uniform_rank_family(1)])
        assert records[0].p_err == pytest.approx(records[0].p_err_ci, abs=1e-12)
        assert records[0].advantage == pytest.approx(0.0, abs=1e-12)


class TestSweepRecordValidation:
    def test_rejects_disagreeing_overlap_columns(self):
        r = SweepRecord(
            eta=0.5, d_s=2, d_i=2, k_i=2.0,
            h01_closed=0.75, h01_direct=0.7, p_err=0.3, p_err_ci=0.4, advantage=0.1,
        )
        with pytest.raises(ValueError, match="disagree"):
            r.validate()

    def test_rejects_out_of_range_probability(self):
        r = SweepRecord(
            eta=0.5, d_s=2, d_i=2, k_i=2.0,
            h01_closed=0.75, h01_direct=0.75, p_err=0.7, p_err_ci=0.4, advantage=0.1,
        )
        with pytest.raises(ValueError, match="p_err"):
            r.validate()


class TestVerifyMonotonicity:
    def test_eta_axis_rank_one(self):
        # closed form collapses to 1/sqrt(1 + eta^2) for d_s=2, k_i=1
        etas = [0.0, 0.25, 0.5, 0.75, 1.0]
        records = run_sweep(etas, [2], [uniform_rank_family(1)])
        expected = [1 / np.sqrt(1 + e**2) for e in etas]
        assert np.allclose([r.h01_closed for r in records], expected, atol=1e-12)
        h = [r.h01_direct for r in records]
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_bell_dimension_axis(self):
        records = run_sweep([0.5], [2, 3, 4, 5], [bell_family()])
        h = [r.h01_direct for r in records]
        p = [r.p_err for r in records]
        assert all(b < a for a, b in zip(h, h[1:]))
        assert all(b < a for a, b in zip(p, p[1:]))

    def test_rank_axis_at_fixed_dimension(self):
        """Flat spectra of rising rank form a majorization chain, so the error
        may not rise along them either."""
        families = [uniform_rank_family(r) for r in (1, 2, 3, 4)]
        records = run_sweep([0.7], [4], families)
        h = [r.h01_direct for r in records]
        p = [r.p_err for r in records]
        assert all(b < a for a, b in zip(h, h[1:]))
        assert all(b <= a for a, b in zip(p, p[1:]))

    def test_full_grid_passes(self):
        """Along eta, along d_s and along the families (flat ranks 1, 2, then
        d_s: a majorization chain), neither measure rises."""
        etas, dims = [0.0, 0.5, 1.0], [2, 3, 4]
        families = [uniform_rank_family(1), uniform_rank_family(2), bell_family()]
        records = run_sweep(etas, dims, families)
        grid = np.array([[r.h01_direct, r.p_err] for r in records])
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
        from qillum.states import effective_rank_k, idler_reduction

        for d in range(2, 7):
            k = effective_rank_k(idler_reduction(bell_state(d)))
            assert k == pytest.approx(d, abs=1e-10)


def spectrum_rows(*spectra):
    """Sweep rows at d_s = 4, eta = 1/2 and p0 = 1/2, one per idler spectrum,
    each held to the dense route within 1e-12."""
    records = run_sweep([0.5], [4], [fixed_spectrum_family(s) for s in spectra])
    for spec, r in zip(spectra, records):
        h01, p_err = evaluate_state_metrics(schmidt_family_state(4, spec), 0.5)
        assert abs(r.h01_closed - h01) <= 1e-12
        assert abs(r.p_err - p_err) <= 1e-12
    return records


class TestSpectrumProbe:
    """The overlap depends on the spectrum only through k_i = 1/sum(lam^2),
    but the exact error depends on all of it, through a Schur-concave sum;
    hence ``sweep`` has no monotonicity gate along k_i."""

    def test_error_is_not_a_function_of_idler_rank(self):
        s3 = np.sqrt(3)
        two, tilted = spectrum_rows([0.5, 0.5, 0.0, 0.0], [(1 + s3) / 4] + 3 * [(3 - s3) / 12])
        assert abs(two.k_i - 2.0) <= 1e-12 and abs(tilted.k_i - 2.0) <= 1e-12
        assert abs(two.h01_closed - tilted.h01_closed) <= 1e-12
        assert two.p_err == pytest.approx(0.28125, abs=1e-12)
        assert tilted.p_err == pytest.approx(0.2800654, abs=1e-7)
        assert two.p_err - tilted.p_err > 1e-3

    def test_error_can_rise_with_idler_rank(self):
        lo, hi = spectrum_rows([0.67, 0.16, 0.13, 0.04], [0.0, 0.52, 0.01, 0.47])
        assert 2.028 < lo.k_i < hi.k_i < 2.036
        assert hi.h01_direct < lo.h01_direct
        assert lo.p_err == pytest.approx(0.2797661, abs=1e-7)
        assert hi.p_err == pytest.approx(0.2806614, abs=1e-7)


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
            amp = np.zeros(d_s * d_i, dtype=complex)
            amp[::d_i] = sig  # idler pinned to level 0
            state = BipartiteState(d_s, d_i, amp)
            _, p_err = evaluate_state_metrics(state, eta)
            values.append(p_err)
        assert max(values) - min(values) < 1e-10
        # and the analytic value for any pure signal
        expected = 0.5 * (1 - eta * (1 - 1 / d_s))
        assert values[0] == pytest.approx(expected, abs=1e-10)


class TestFixedSpectrumFamily:
    def test_builds_requested_spectrum(self):
        fam = fixed_spectrum_family([0.6, 0.4])
        records = run_sweep([0.5], [3], [fam])
        assert records[0].k_i == pytest.approx(1 / (0.36 + 0.16), abs=1e-10)
        assert records[0].d_i == 2


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
