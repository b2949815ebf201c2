"""Tests for sweeps and their monotonicity, optimality sampling and the
dependence of the error probability on the whole spectrum."""

import dataclasses
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qillum import analysis, cli
from qillum.states import schmidt_probe
from qillum.discrimination import flat_probe_error, h01_closed_form, schmidt_helstrom_error
from qillum.analysis import SWEEP_COLUMNS, VerificationError, run_sweep, verify_bell_optimality
from conftest import (
    BELL,
    UNIT,
    bell_state,
    effective_rank_k,
    evaluate_state_metrics,
    exact_flat_error,
    float_neighbours,
    haar_random_state,
    idler_reduction,
    product_baseline_state,
    schmidt_amplitudes,
    spectrum_family,
    sweep_columns,
    unentangled_error,
    uniform_rank,
)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The sweep kernels' calls, in order, as ``(kind, weights, copies, etas
    shape, d_s list)``, ``kind`` being ``"error"`` or ``"overlap"``; the
    copies are each kernel's last argument."""
    calls = []
    for kind, name in (("error", "schmidt_helstrom_error"), ("overlap", "channel_overlap")):
        def counted(weights, etas, d_s, *rest, kind=kind, exact=getattr(analysis, name)):
            calls.append((kind, weights.copy(), rest[-1].copy(), etas.shape, d_s.tolist()))
            return exact(weights, etas, d_s, *rest)

        monkeypatch.setattr(analysis, name, counted)
    return calls


class TestRunSweep:
    def test_single_point_zero_signal(self):
        table = run_sweep([0.0], [2], [BELL])
        assert table.shape == (1, len(SWEEP_COLUMNS))
        r = sweep_columns(table)
        assert r["h01_closed"][0] == 1.0
        assert r["h01_direct"][0] == pytest.approx(1.0, abs=1e-12)
        assert r["p_err"][0] == pytest.approx(0.5, abs=1e-12)

    def test_bell_qubit_full_signal(self):
        r = sweep_columns(run_sweep([1.0], [2], [BELL]))
        assert r["h01_closed"][0] == pytest.approx(0.5, abs=1e-12)
        # trace-norm oracle: 0.5 * (bell projector - I/4) has eigenvalues
        # 0.5 * {3/4, -1/4, -1/4, -1/4}, so the norm is 0.75 and p_err 0.125
        assert r["p_err"][0] == pytest.approx(0.125, abs=1e-12)

    def test_overlap_column_strictly_decreasing_in_eta(self):
        table = run_sweep([0.0, 0.25, 0.5, 0.75, 1.0], [2], [BELL])
        h = sweep_columns(table)["h01_direct"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_lexicographic_ordering(self):
        table = run_sweep([0.2, 0.7], [2, 3], [uniform_rank(1), BELL])
        r = sweep_columns(table)
        keys = list(zip(r["eta"].tolist(), r["d_s"].tolist(), r["k_i"].tolist()))
        assert keys == sorted(keys)

    def test_rejects_bad_grid(self, tmp_path, monkeypatch, capsys):
        """A family wider than a dimension never reaches ``run_sweep``: the
        command line names it, exits 1 and writes no CSV."""
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("run_sweep was called"))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--eta", "0.5", "--d", "2", "--family", "uniform-rank:3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: rank 3 exceeds the signal dimension 2\n"
        assert not out.exists()

    def test_ci_column_matches_rank_one_family(self):
        r = sweep_columns(run_sweep([0.6], [3], [uniform_rank(1)]))
        assert r["p_err"][0] == pytest.approx(r["p_err_ci"][0], abs=1e-12)
        assert r["advantage"][0] == pytest.approx(0.0, abs=1e-12)

    def test_no_dense_channel_output(self):
        """At d = 32 one dense (d_s d_i)-dimensional complex matrix alone
        takes 16.8 MB; the sweep holds nothing larger than d_s x d_i."""
        tracemalloc.start()
        try:
            run_sweep([0.5], [32], [BELL])
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
            run_sweep([0.5], [1000], [BELL])
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
            run_sweep([0.5], [3000], [BELL])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("etas, dims, families", [
        ([k / 100 for k in range(1, 91)], range(1000, 1100), [spectrum_family(np.arange(1.0, 1001.0) / 500500.0)]),
        ([0.5], range(2, 3001), [BELL, uniform_rank(2)]),
    ])
    def test_memory_bound_over_many_probes(self, etas, dims, families):
        """A stack of probes of one width is evaluated before its weights
        times the eta grid pass 2^16: holding all 100 probes of the first
        grid, of 1000 weights each, until the end took 647 MB.  The second
        grid's 6000 flat probes, 4.5 million weights (36 MB) written out,
        were 144 MB padded to one stack; they are one weight each."""
        tracemalloc.start()
        try:
            run_sweep(etas, dims, families)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("d", [10**3, 10**7])
    def test_flat_probes_take_memory_independent_of_d(self, d):
        """``bell`` and ``uniform-rank:1000`` are one weight each at any
        dimension, so a sweep of them over 11 etas stays under one bound at
        d = 10^3 and at 10^7.  Written out and padded over the eta grid,
        they took 0.8 MiB at d = 10^3 and 4.0 GB of peak RSS at 10^7."""
        families = [cli.parse_family(text, d) for text in ("bell", "uniform-rank:1000")]
        tracemalloc.start()
        try:
            table = run_sweep([k / 10 for k in range(11)], [d], families)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**17
        assert sweep_columns(table)["d_i"].tolist() == [d, 1000] * 11

    @pytest.mark.parametrize("text, d_i, copies", [
        ("bell", 5, 5),
        ("uniform-rank:3", 3, 3),
        ("spectrum", 4, 1),
        ("spectrum-tied", 7, 1),
    ], ids=["bell-5", "uniform-rank:3-3", "spectrum-4", "spectrum-tied-7"])
    def test_families_return_weights(self, tmp_path, kernel_calls, text, d_i, copies):
        """The weights, descending, and the copies that each family reaches
        the kernels with at d_s = 7 (Bell's at d_s = 5): parsed once, but
        Bell's built by ``run_sweep`` at the dimension.  A flat family is one
        weight with its rank as copies; a spectrum is each of its nonzero
        entries, equal ones too, with one copy.  ``d_i`` counts every entry,
        zeros too."""
        entries = {"spectrum": [0.5, 0.0, 0.2, 0.3], "spectrum-tied": [0.125, 0.25, 0.125, 0.0, 0.125, 0.25, 0.125]}
        if text in entries:
            spec = tmp_path / "spec.json"
            spec.write_text(str(entries[text]))
            lam = schmidt_probe(entries[text])
            text = f"spectrum:{spec}"
        else:
            lam = np.full(d_i, 1.0 / d_i)
        family = cli.parse_family(text, 7)
        assert (family is None) == (text == "bell")
        table = run_sweep([0.5], [d_i if family is None else 7], [family])
        (_, (weights,), (m,), _, _), (_, (weights_overlap,), (m_overlap,), _, _) = kernel_calls
        assert weights.dtype == m.dtype == float and m == copies
        assert np.array_equal(np.repeat(weights, copies), lam[lam != 0.0]) and np.all(np.diff(weights) <= 0.0)
        assert np.array_equal(weights_overlap, weights) and m_overlap == m
        assert abs(math.fsum(m * weights) - 1.0) <= 1e-15
        assert sweep_columns(table)["d_i"].tolist() == [d_i]
        assert family is None or (np.array_equal(weights, family[0][family[0] != 0.0]) and m == family[1])

    def test_bell_weights_are_exactly_one_over_d(self, kernel_calls):
        """The Bell probe's one weight is the correctly rounded 1/d, with d
        copies; squaring a rounded 1/sqrt(d) misses it at 583 of d in [2,
        1000), d = 2 among them."""
        run_sweep([0.5], range(2, 1000), [BELL])
        rows = [
            (lam, m, int(d))
            for kind, stack, copies, _, d_s in kernel_calls if kind == "error"
            for lam, m, d in zip(stack, copies, d_s)
        ]
        assert [d for _, _, d in rows] == list(range(2, 1000))
        for lam, m, d in rows:
            assert lam.tolist() == [1.0 / d] and m == d, d

    def test_uniform_rank_weights_are_bell_weights(self, kernel_calls):
        """Weight and copies bit for bit, so their sweep rows are equal:
        rescaling ``sqrt(1/d)`` missed 1/d at 153 of d in [1, 300)."""
        for d in [*range(1, 65), 1000, 10**7]:
            rank = cli.parse_family(f"uniform-rank:{d}", d)
            kernel_calls.clear()
            table = run_sweep(np.linspace(0.0, 1.0, 21), [d], [BELL, rank])
            (_, (bell, flat), (bell_m, flat_m), *_), _ = kernel_calls  # one error call, one overlap call
            assert np.array_equal(bell, rank[0]) and np.array_equal(flat, rank[0]), d
            assert bell_m == flat_m == rank[1], d
            assert np.array_equal(table[0::2], table[1::2]), d


class TestSweepRecordValidation:
    """The cross-checks ``run_sweep`` runs once on its finished columns, made
    to fail by skewing one column."""

    def test_rejects_disagreeing_overlap_columns(self, monkeypatch):
        exact = analysis.channel_overlap
        monkeypatch.setattr(analysis, "channel_overlap", lambda lam, eta, d_s, m: exact(lam, eta, d_s, m) - 0.05)
        with pytest.raises(VerificationError, match="disagree by 5.000e-02 at"):
            run_sweep([0.5], [2], [BELL])

    def test_rejects_out_of_range_probability(self, monkeypatch):
        """A probe's error above the unentangled one's leaves the bracket."""
        exact = analysis.schmidt_helstrom_error
        monkeypatch.setattr(analysis, "schmidt_helstrom_error", lambda *args: exact(*args) + 0.2)
        with pytest.raises(VerificationError, match=r"^p_err=0\.5125\d* outside \[0\.3125, 0\.375\] at \(eta=0\.5,"):
            run_sweep([0.5], [2], [BELL])

    def test_rejects_out_of_range_baseline(self, monkeypatch):
        """An unentangled error below the probe's leaves the bracket."""
        exact = analysis.flat_probe_error

        def baseline_skewed(eta, n, p0):
            return exact(eta, n, p0) - 1.0 * (np.asarray(n) == 2)  # n = d_s: the baseline

        monkeypatch.setattr(analysis, "flat_probe_error", baseline_skewed)
        with pytest.raises(VerificationError, match=r"^p_err=0\.3125\d* outside \[0\.3125, -0\.625\] at"):
            run_sweep([0.5], [2], [BELL])

    def test_checks_follow_every_probe(self, tmp_path, monkeypatch, capsys, kernel_calls):
        """A family infeasible at a later dimension exits 1 before any probe
        is evaluated, even where an earlier probe would fail a cross-check
        (exit 2)."""
        monkeypatch.setattr(
            analysis, "channel_overlap",
            lambda lam, eta, d_s, m: np.full(np.broadcast_shapes(eta.shape, d_s.shape), np.nan),
        )
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--eta", "0.5", "--d", "4,2", "--out", str(out)]
        assert cli.main([*argv, "--family", "uniform-rank:3"]) == 1
        assert capsys.readouterr().err == "error: rank 3 exceeds the signal dimension 2\n"
        assert kernel_calls == [] and not out.exists()
        assert cli.main([*argv, "--family", "uniform-rank:2"]) == 2
        assert "disagree by nan" in capsys.readouterr().err
        assert len(kernel_calls) == 1 and not out.exists()


class TestSweepColumns:
    """A sweep evaluates each probe as columns over the eta grid."""

    def test_one_kernel_call_per_stack_of_one_width(self, kernel_calls):
        """The probes of one width (count of nonzero weights), in output
        order, are one stack of their own nonzero weights with one number of
        copies a probe: one error and one overlap call over the eta column,
        each probe with its own d_s, a repeated d_s again.  Widths go in
        first-seen order, and a flat probe is one weight at any dimension.
        A stack ends before its weights times the grid would pass the chunk
        bound; the baseline is a closed form."""
        def calls():
            shapes = [(kind, lam.shape, m.shape, etas, d_s) for kind, lam, m, etas, d_s in kernel_calls]
            kernel_calls.clear()
            return shapes

        # Bell and a flat rank are one weight each: one stack, at d = 10^7 too
        table = run_sweep([0.0, 0.3, 0.7, 1.0], [3, 5, 3], [BELL, uniform_rank(2)])
        assert len(table) == 24
        assert calls() == [(kind, (6, 1), (6,), (4, 1), [3, 3, 5, 5, 3, 3]) for kind in ("error", "overlap")]
        run_sweep(np.linspace(0, 1, 40), [10**7, 10**7 + 1], [BELL, uniform_rank(1000)])
        dims = [10**7] * 2 + [10**7 + 1] * 2
        assert calls() == [(kind, (4, 1), (4,), (40, 1), dims) for kind in ("error", "overlap")]
        # each stack is exactly its probes' nonzero weights, no padding, the width first seen first
        spread, pair = spectrum_family([0.5, 0.0, 0.2, 0.3]), spectrum_family([0.75, 0.25])
        run_sweep([0.0, 0.5, 1.0], [3, 5], [spread, BELL, pair, uniform_rank(2)])
        stacks = [(lam.tolist(), m.tolist(), d_s) for kind, lam, m, _, d_s in kernel_calls if kind == "error"]
        assert stacks == [
            ([spread[0][:3].tolist()] * 2, [1, 1], [3, 5]),
            ([[1 / 3], [0.5], [1 / 5], [0.5]], [3, 2, 5, 2], [3, 3, 5, 5]),
            ([pair[0].tolist()] * 2, [1, 1], [3, 5]),
        ]
        assert [lam.tolist() for kind, lam, *_ in kernel_calls if kind == "overlap"] == [lam for lam, _, _ in stacks]
        kernel_calls.clear()
        # a second probe would make 2 x 1000 weights x 40 etas, past 2^16: a call a probe
        wide = spectrum_family(np.arange(1.0, 1001.0) / 500500.0)  # 1000 weights
        run_sweep(np.linspace(0, 1, 40), [1000, 1001, 1002], [wide])
        dims = (1000, 1001, 1002)
        assert calls() == [(kind, (1, 1000), (1,), (40, 1), [d]) for d in dims for kind in ("error", "overlap")]
        # widths 2, 3 and 1000 in one grid: three stacks, in first-seen order; four entries, one zero, are 3 wide
        narrow = [spectrum_family([0.75, 0.25]), spectrum_family([0.5, 0.3, 0.2])]
        run_sweep(np.linspace(0, 1, 40), [1000], [*narrow, wide, spread])
        assert [shape for kind, shape, *_ in calls() if kind == "error"] == [(1, 2), (2, 3), (1, 1000)]

    @pytest.mark.parametrize("etas, dims", [
        ([0.0, 0.2, 0.5, 0.9, 1.0], [9, 17, 40, 9, 12]),
        (np.linspace(0.0, 1.0, 51), range(9, 300, 9)),
    ])
    def test_rows_equal_sweeps_of_one_family(self, etas, dims):
        """A grid of mixed widths, a stack per width, gives each family's
        rows exactly as a sweep of that family alone: flat, rank-limited
        and user spectra, with exact zeros, weights of 1e-300 and one
        weight (d_i = 1)."""
        families = [
            BELL,
            uniform_rank(2),
            spectrum_family([0.5, 0.0, 0.3, 0.0, 0.2]),
            spectrum_family([1e-300, 0.4, 1e-12, 0.0, 0.3, 0.2, 0.1 - 1e-12, 0.0, 1e-300]),
            uniform_rank(1),
        ]
        table = run_sweep(etas, dims, families, 0.4)
        for f, family in enumerate(families):
            assert np.array_equal(table[f :: len(families)], run_sweep(etas, dims, [family], 0.4)), f

    @pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_baseline_column_is_the_closed_form(self, p0):
        """``p_err_ci`` is the unentangled probe's exact error at the float
        inputs, within one step of its correctly rounded value."""
        etas, dims = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0], [2, 3, 7, 16]
        table = run_sweep(etas, dims, [BELL, uniform_rank(1)], p0)
        assert len(table) == 48
        r = sweep_columns(table)
        for eta, d_s, p_err_ci in zip(r["eta"].tolist(), r["d_s"].tolist(), r["p_err_ci"].tolist()):
            assert p_err_ci in float_neighbours(exact_flat_error(eta, int(d_s), p0)), (eta, d_s)
        if p0 in (0.0, 1.0):
            # a certain prior is never mistaken
            assert r["p_err"].tolist() == [0.0] * 48

    def test_rows_equal_single_point_sweeps(self):
        """Each row of a grid equals a sweep of its point alone."""
        etas, dims = [0.2, 0.0, 1.0, 0.65], [4, 3, 4]
        families = [BELL, spectrum_family([0.7, 1e-12, 0.3 - 1e-12])]
        table = run_sweep(etas, dims, families, 0.37)
        points = [(e, d, f) for e in etas for d in dims for f in families]
        assert len(table) == len(points)
        for row, (e, d, f) in zip(table.tolist(), points):
            assert row == run_sweep([e], [d], [f], 0.37)[0].tolist()


class TestVerifyMonotonicity:
    def test_eta_axis_rank_one(self):
        # closed form collapses to 1/sqrt(1 + eta^2) for d_s=2, k_i=1
        etas = [0.0, 0.25, 0.5, 0.75, 1.0]
        r = sweep_columns(run_sweep(etas, [2], [uniform_rank(1)]))
        expected = [1 / np.sqrt(1 + e**2) for e in etas]
        assert np.allclose(r["h01_closed"], expected, atol=1e-12)
        h = r["h01_direct"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_bell_dimension_axis(self):
        r = sweep_columns(run_sweep([0.5], [2, 3, 4, 5], [BELL]))
        h = r["h01_direct"].tolist()
        p = r["p_err"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))
        assert all(b < a for a, b in zip(p, p[1:]))

    def test_rank_axis_at_fixed_dimension(self):
        """Flat spectra of rising rank form a majorization chain, so the error
        may not rise along them either."""
        families = [uniform_rank(r) for r in (1, 2, 3, 4)]
        r = sweep_columns(run_sweep([0.7], [4], families))
        h = r["h01_direct"].tolist()
        p = r["p_err"].tolist()
        assert all(b < a for a, b in zip(h, h[1:]))
        assert all(b <= a for a, b in zip(p, p[1:]))

    def test_full_grid_passes(self):
        """Along eta, along d_s and along the families (flat ranks 1, 2, then
        d_s: a majorization chain), neither measure rises."""
        etas, dims = [0.0, 0.5, 1.0], [2, 3, 4]
        families = [uniform_rank(1), uniform_rank(2), BELL]
        r = sweep_columns(run_sweep(etas, dims, families))
        grid = np.column_stack((r["h01_direct"], r["p_err"]))
        grid = grid.reshape(len(etas), len(dims), len(families), 2)
        for axis in range(3):
            assert np.all(np.diff(grid, axis=axis) <= 1e-12)


class TestVerifyBellOptimality:
    def test_square_case_margins(self):
        report = verify_bell_optimality(2, 200, seed=11)
        assert report.margin >= -1e-9
        assert report.margin_h01 >= -1e-9
        assert report.margin_p_err >= -1e-9

    def test_self_comparison_margin_is_zero(self):
        """The kernel and the overlap on flat weights give the reference."""
        report = verify_bell_optimality(3, 5, seed=1)
        flat = np.full(3, 1.0 / 3)
        h01 = h01_closed_form(report.eta, 3, 1.0 / float(np.sum(flat * flat)))
        p_err = schmidt_helstrom_error(flat, report.eta, 3, report.p0)
        assert h01 - report.bell_h01 == 0.0
        assert p_err - report.bell_p_err == 0.0

    @pytest.mark.parametrize("d, eta, p0", [(2, 0.5, 0.5), (3, 0.5, 0.5), (4, 0.3, 0.4), (5, 0.9, 0.2), (8, 1.0, 0.7)])
    def test_reference_is_the_closed_forms(self, monkeypatch, d, eta, p0):
        """``bell_p_err`` is the Bell end of the bracket and ``bell_h01`` the
        overlap at k_i = d, bit for bit; the kernel runs once a chunk, on
        the samples only."""
        exact, calls = analysis.schmidt_helstrom_error, []

        def counted(weights, *args):
            calls.append(len(weights))
            return exact(weights, *args)

        monkeypatch.setattr(analysis, "schmidt_helstrom_error", counted)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", 4 * d * d)
        report = verify_bell_optimality(d, 10, seed=d, eta=eta, p0=p0)
        assert report.bell_p_err == flat_probe_error(eta, d * d, p0)
        assert report.bell_h01 == h01_closed_form(eta, d, d)
        assert calls == [4, 4, 2]

    def test_bell_matches_closed_form(self):
        report = verify_bell_optimality(3, 10, seed=2, eta=0.5)
        assert report.bell_h01 == pytest.approx(h01_closed_form(0.5, 3, 3.0), abs=1e-9)

    def test_sampled_overlap_floored_by_reference(self):
        """No sample's overlap falls below the closed form at k_i = d, the
        largest effective rank on d idler modes, which the reference attains."""
        report = verify_bell_optimality(4, 300, seed=4, eta=0.5)
        floor = h01_closed_form(0.5, 4, 4.0)
        assert report.best_sampled_h01 >= floor - 1e-9
        assert report.bell_h01 == pytest.approx(floor, abs=1e-9)

    def test_deterministic_for_fixed_seed(self):
        a = verify_bell_optimality(2, 50, seed=33)
        b = verify_bell_optimality(2, 50, seed=33)
        assert a == b

    @pytest.mark.parametrize("d, seed", [(3, 3), (2, 4), (4, 2), (3, 5)])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("p0", [0.0, 0.4, 1.0])
    def test_matches_dense_loop(self, d, seed, eta, p0):
        """Every field against a per-sample loop over the dense oracle."""
        n = 12
        report = verify_bell_optimality(d, n, seed, eta=eta, p0=p0)
        bell_h01, bell_p_err = evaluate_state_metrics(bell_state(d), eta, p0)
        dense = [
            evaluate_state_metrics(haar_random_state(d, d, int(s)), eta, p0)
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
        assert (got["d_s"], got["d_i"], got["n_samples"], got["seed"]) == (d, d, n, seed)
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
            verify_bell_optimality(3, 5, seed=1)

    def test_bell_effective_rank_equals_dimension(self):
        for d in range(2, 7):
            k = effective_rank_k(idler_reduction(bell_state(d)))
            assert k == pytest.approx(d, abs=1e-10)
            assert sweep_columns(run_sweep([0.5], [d], [BELL]))["k_i"][0] == pytest.approx(d, abs=1e-12)


def spectrum_rows(*spectra):
    """Sweep rows at d_s = 4, eta = 1/2 and p0 = 1/2, one per idler spectrum,
    as dicts by column name, each held to the dense route within 1e-12."""
    table = run_sweep([0.5], [4], [spectrum_family(s) for s in spectra])
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in table.tolist()]
    for spec, r in zip(spectra, rows):
        h01, p_err = evaluate_state_metrics(schmidt_amplitudes(4, schmidt_probe(spec)), 0.5)
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
        (row,) = run_sweep([eta], [d_s], [spectrum_family(spectrum)], p0).tolist()
        record = dict(zip(SWEEP_COLUMNS, row))
        state = schmidt_amplitudes(d_s, schmidt_probe(spectrum))
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
        fam = spectrum_family([0.6, 0.4])
        r = sweep_columns(run_sweep([0.5], [3], [fam]))
        assert r["k_i"][0] == pytest.approx(1 / (0.36 + 0.16), abs=1e-10)
        assert r["d_i"][0] == 2

    def test_entry_order_does_not_move_a_row(self):
        """All 120 orders of a spectrum's entries give one row, bit for bit:
        k_i summed in the entries' order took two values an ulp apart."""
        spectrum = np.array([1e-300, 0.695713033936472, 0.6116909670278784, 1e-12, 0.8503356083660849])
        spectrum /= spectrum.sum()
        etas = [0.0, 0.25, 0.5, 1.0]
        families = [spectrum_family(spectrum[list(order)]) for order in permutations(range(5))]
        table = run_sweep(etas, [5, 9], families, 0.37)
        assert len(families) == 120 and len(np.unique(table, axis=0)) == len(etas) * 2


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
