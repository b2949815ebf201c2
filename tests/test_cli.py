"""Tests for the command-line front end, run in-process through ``main``."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qillum import analysis, cli
from qillum.cli import MAX_RANGE_POINTS, CliError, main, parse_float_grid

DATA = Path(__file__).parent / "data"

BELL_2 = {
    "d_s": 2,
    "d_i": 2,
    "amplitudes": [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]],
}
MIXED_4 = {
    "dim": 4,
    "entries": [
        [[0.4, 0.0], [0.1, 0.05], [0.0, 0.0], [0.0, 0.0]],
        [[0.1, -0.05], [0.3, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0], [0.0, -0.05]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.05], [0.1, 0.0]],
    ],
}
MIXED_2 = {"dim": 2, "entries": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
# squared norm 0.5: invalid at any sensible tolerance
HALF_NORM = {"d_s": 2, "d_i": 1, "amplitudes": [[0.5, 0.0], [0.5, 0.0]]}
# json writes these as NaN, which Python's json reads back
NAN_AMPLITUDE = {"d_s": 2, "d_i": 1, "amplitudes": [[math.nan, 0.0], [0.0, 0.0]]}
NAN_DIAGONAL = {"dim": 2, "entries": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_helstrom(tmp_path, state0, state1, *extra):
    return main([
        "helstrom",
        "--state0", write_json(tmp_path / "s0.json", state0),
        "--state1", write_json(tmp_path / "s1.json", state1),
        *extra,
    ])


@pytest.fixture(autouse=True)
def default_tolerance(monkeypatch):
    monkeypatch.delenv("QI_TOL", raising=False)


class TestSweep:
    GOLDEN_ARGS = [
        "--eta", "0:0.25:1", "--d", "2,3,4",
        "--family", "bell", "--family", "uniform-rank:2", "--priors", "0.3",
    ]

    def test_golden_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *self.GOLDEN_ARGS, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "sweep_golden.csv").read_bytes()

    @pytest.mark.parametrize("p0", ["0.37", "0.8"])
    def test_spectrum_golden_csv(self, tmp_path, p0):
        """Rows of user spectra: unsorted with a zero weight, and near rank one
        with weights of 1e-12, beside a flat spectrum."""
        families = []
        for name, spec in (("tilted", [0, 0.52, 0.01, 0.47]),
                           ("near_pure", [0.999999999998, 1e-12, 1e-12])):
            families += ["--family", f"spectrum:{write_json(tmp_path / f'{name}.json', spec)}"]
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0:0.25:1", "--d", "4,5,7", *families, "--family", "uniform-rank:3",
                "--priors", p0, "--out", str(out)]
        assert main(["sweep", *argv]) == 0
        # no column goes through BLAS or LAPACK, so every byte is pinned
        assert out.read_bytes() == (DATA / f"sweep_spectrum_golden_p{p0}.csv").read_bytes()

    @pytest.mark.parametrize("offset, qi_tol, code", [
        (5e-4, None, 1), (5e-4, "1e-3", 0), (1e-10, None, 0), (1e-10, "1e-12", 1),
    ])
    def test_spectrum_sum_honours_qi_tol(self, tmp_path, monkeypatch, capsys, offset, qi_tol, code):
        if qi_tol is not None:
            monkeypatch.setenv("QI_TOL", qi_tol)
        spec = write_json(tmp_path / "spec.json", [0.5, 0.5 + offset])
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "2", "--family", f"spectrum:{spec}", "--out", str(out)]
        assert main(["sweep", *argv]) == code
        assert out.exists() == (code == 0)
        if code:
            assert capsys.readouterr().err.startswith("error: spectrum sums to")

    def test_zero_spectrum_exits_1_at_any_tolerance(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QI_TOL", "1")
        spec = write_json(tmp_path / "spec.json", [0, 0])
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "2", "--family", f"spectrum:{spec}", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr().err == "error: spectrum sums to 0.0; a probe needs a positive sum\n"
        assert not out.exists()

    def test_rank_is_checked_before_allocating(self, tmp_path, capsys):
        # 10^12 weights would take 7.28 TiB
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "4", "--family", "uniform-rank:1000000000000", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr().err == "error: rank 1000000000000 exceeds the signal dimension 4\n"
        assert not out.exists()

    def test_verification_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        exact = analysis.channel_overlap

        def skewed(*args, **kwargs):
            return exact(*args, **kwargs) + 1e-6

        monkeypatch.setattr(analysis, "channel_overlap", skewed)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "2", "--out", str(out)]) == 2
        assert "numerical verification failed" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_overlap_exits_2(self, tmp_path, monkeypatch, capsys):
        """A NaN in the direct overlap column fails the agreement check."""
        monkeypatch.setattr(analysis, "channel_overlap", lambda lam, eta, d_s: np.full(len(eta), np.nan))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "3", "--out", str(out)]) == 2
        assert "closed/direct overlap disagree by nan" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_is_written_as_zero(self, tmp_path):
        """``-0`` reads as 0, in a list or as a range start, and as the prior;
        nothing else in the CSV changes."""
        outs = [tmp_path / f"sweep{k}.csv" for k in range(3)]
        for out, eta, p0 in zip(outs, ["-0,0.5", "-0:0.5:0.5", "0,0.5"], ["-0", "-0.0", "0"]):
            assert main(["sweep", f"--eta={eta}", "--d", "3", "--priors", p0, "--out", str(out)]) == 0
        text = outs[2].read_text()
        assert text.splitlines()[1].startswith("0,3,")
        assert outs[0].read_text() == text and outs[1].read_text() == text

    def test_plot_has_one_curve_per_dimension_and_family(self, tmp_path):
        """Each curve's ``every`` clause picks exactly the CSV rows of its
        dimension and family, once per eta; a repeated dimension has one
        curve.  The CSV has no family column: a row's family is its index
        modulo the number of families."""
        families = ["bell", "uniform-rank:1", "uniform-rank:2"]
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--eta", "0:0.25:1", "--d", "4,2,4,3", "--plot", "--out", str(out)]
        for name in families:
            argv += ["--family", name]
        assert main(argv) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        script = out.with_suffix(".gp").read_text()
        plots = [line for line in script.splitlines() if line.startswith("plot ")]
        assert len(plots) == 2
        for column, name in ((6, "h01_direct"), (7, "p_err")):
            assert header[column - 1] == name
            curves = re.findall(
                rf'skip 1 every (\d+)::(\d+) using 1:{column} with linespoints '
                r"title '\S+ d_s=(\d+) (\S+)'",
                script,
            )
            assert sorted((int(d), f) for *_, d, f in curves) == [
                (d, f) for d in (2, 3, 4) for f in sorted(families)
            ]
            for stride, first, d, family in curves:
                picked = rows[int(first) :: int(stride)]
                assert len(picked) == 5
                assert [float(row[0]) for row in picked] == [0.0, 0.25, 0.5, 0.75, 1.0]
                assert all(row[1] == d for row in picked)
                assert int(first) % len(families) == families.index(family)

    def test_plot_titles_keep_quotes_in_file_names(self, tmp_path):
        """File names and titles are single-quoted gnuplot strings, in which a
        doubled quote stands for one and a double quote or a backslash
        stands for itself."""
        spec = write_json(tmp_path / """it's "q".json""", [0.5, 0.5])
        out = tmp_path / """x"y'z\\w.csv"""
        argv = ["sweep", "--eta", "0,1", "--d", "2", "--family", f"spectrum:{spec}", "--plot", "--out", str(out)]
        assert main(argv) == 0
        script = out.with_suffix(".gp").read_text()
        quoted = r"'((?:[^']|'')*)'"
        titles = re.findall(rf"title {quoted}$", script, re.M)
        assert [t.replace("''", "'") for t in titles] == [f"{kind} d_s=2 spectrum:{spec}" for kind in ("overlap", "p_err")]
        (png,) = re.findall(rf"^set output {quoted}$", script, re.M)
        assert png.replace("''", "'") == """x"y'z\\w.png"""
        data = re.findall(rf"^(?:plot |  ){quoted} skip 1 ", script, re.M)
        assert [d.replace("''", "'") for d in data] == [out.name] * 2

    def test_plot_columns_follow_the_column_names(self, tmp_path, monkeypatch):
        """The script plots the columns named ``eta``, ``h01_direct`` and
        ``p_err`` wherever the header puts them."""
        out = tmp_path / "sweep.csv"
        script = cli.render_gnuplot_script(out, [2], ["bell"])
        assert re.findall(r"using (\d+):(\d+) ", script) == [("1", "6"), ("1", "7")]
        monkeypatch.setattr(cli, "SWEEP_COLUMNS", tuple(reversed(analysis.SWEEP_COLUMNS)))
        script = cli.render_gnuplot_script(out, [2], ["bell"])
        assert re.findall(r"using (\d+):(\d+) ", script) == [("9", "4"), ("9", "3")]

    def test_bad_grid_exits_1(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "1.5", "--d", "2", "--out", str(out)]) == 1

    def test_row_cap_exits_1(self, tmp_path, capsys):
        # 1001 etas x 19 dims x 2 families = 38038 rows; no probe is built
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0:0.001:1", "--d", "2:1:20", "--family", "bell",
                "--family", "uniform-rank:2", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert f"more than {analysis.MAX_SWEEP_ROWS}" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_non_finite_spectrum(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[0.5, NaN, 0.5]")
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "3", "--family", f"spectrum:{spec}", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr().err.startswith("error: spectrum entries")
        assert not out.exists()

    def test_error_may_rise_with_idler_rank(self, tmp_path):
        """No monotonicity gate: k_i rises from the first spectrum to the
        second and the overlap falls, but the exact error rises."""
        families = []
        for name, spec in (("lo", [0.67, 0.16, 0.13, 0.04]), ("hi", [0.0, 0.52, 0.01, 0.47])):
            families += ["--family", f"spectrum:{write_json(tmp_path / f'{name}.json', spec)}"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "4", *families, "--out", str(out)]) == 0
        header, lo, hi = (line.split(",") for line in out.read_text().splitlines())
        k_i, h01, p_err = (header.index(c) for c in ("k_i", "h01_direct", "p_err"))
        assert float(lo[k_i]) < float(hi[k_i])
        assert float(lo[h01]) > float(hi[h01])
        assert float(lo[p_err]) < float(hi[p_err])


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaves state in
    it for the next."""

    def golden_sweep(self, tmp_path):
        out = tmp_path / "golden.csv"
        assert main(["sweep", *TestSweep.GOLDEN_ARGS, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "sweep_golden.csv").read_bytes()

    def test_family_lists_do_not_accumulate(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        argv = ["sweep", "--eta", "0.5", "--d", "3"]
        assert main([*argv, "--family", "uniform-rank:1", "--family", "uniform-rank:2", "--out", str(first)]) == 0
        assert main([*argv, "--family", "bell", "--out", str(second)]) == 0
        assert len(first.read_text().splitlines()) == 3
        header, row = second.read_text().splitlines()
        assert row.split(",")[1:4] == ["3", "3", "3"]  # d_s, d_i and k_i of the bell probe alone
        assert main([*argv, "--out", str(first)]) == 0  # no --family: the default bell
        assert first.read_text() == second.read_text()

    def test_usage_error_then_valid_sweep(self, tmp_path, capsys):
        assert main(["sweep", "--eta", "0.5", "--family", "bell"]) == 1  # --d and --out missing
        assert "required" in capsys.readouterr().err
        self.golden_sweep(tmp_path)

    def test_help_then_valid_sweep(self, tmp_path, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qillum")
        self.golden_sweep(tmp_path)


class TestVerifyBell:
    GOLDEN_ARGS = ["--d", "4", "--samples", "20", "--seed", "3", "--eta", "0.3", "--p0", "0.4"]

    def test_golden_report(self, capsys):
        assert main(["verify-bell", *self.GOLDEN_ARGS]) == 0
        assert capsys.readouterr().out == (DATA / "verify_bell_golden.json").read_text()

    def test_chunking_does_not_change_the_report(self, capsys, monkeypatch):
        """One chunk or seven of at most three samples: the same stdout."""
        chunks = []
        exact = analysis.haar_random_amplitudes

        def counted(d_s, d_i, seeds):
            chunks.append(len(seeds))
            return exact(d_s, d_i, seeds)

        monkeypatch.setattr(analysis, "haar_random_amplitudes", counted)
        assert main(["verify-bell", *self.GOLDEN_ARGS]) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", 3 * 4 * 4)
        assert main(["verify-bell", *self.GOLDEN_ARGS]) == 0
        assert capsys.readouterr().out == whole
        assert chunks == [20] + [3] * 6 + [2]

    def test_negative_zero_is_printed_as_zero(self, capsys):
        argv = ["verify-bell", "--d", "3", "--samples", "4", "--seed", "1"]
        assert main([*argv, "--eta", "-0", "--p0", "-0"]) == 0
        report = capsys.readouterr().out
        assert '"eta": 0.0,' in report and '"p0": 0.0,' in report
        assert main([*argv, "--eta", "0", "--p0", "0"]) == 0
        assert capsys.readouterr().out == report

    def test_honours_qi_tol(self, monkeypatch):
        # no sample's Schmidt weights sum to 1 within 1e-30
        monkeypatch.setenv("QI_TOL", "1e-30")
        assert main(["verify-bell", "--d", "3", "--samples", "3", "--seed", "1"]) == 1


class TestGridParsing:
    def test_range_points_unchanged(self):
        assert parse_float_grid("0:0.25:1") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_float_grid("0:0.1:1") == [0.1 * k for k in range(11)]
        assert parse_float_grid("2:1:5") == [2.0, 3.0, 4.0, 5.0]

    def test_range_cap(self):
        assert len(parse_float_grid(f"0:1:{MAX_RANGE_POINTS - 1}")) == MAX_RANGE_POINTS
        with pytest.raises(CliError, match="points"):
            parse_float_grid(f"0:1:{MAX_RANGE_POINTS}")
        with pytest.raises(CliError, match="points"):
            parse_float_grid("0:1:inf")

    def test_huge_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0:1e-12:1", "--d", "2", "--out", str(out)]) == 1
        assert "points" in capsys.readouterr().err
        assert not out.exists()


class TestHelstrom:
    def test_povm_output_unchanged(self, tmp_path, capsys):
        assert run_helstrom(tmp_path, BELL_2, MIXED_4, "--p0", "0.35", "--povm") == 0
        assert capsys.readouterr().out == (DATA / "helstrom_povm.txt").read_text()

    @pytest.mark.parametrize("state0, state1, extra", [
        (NAN_AMPLITUDE, NAN_AMPLITUDE, []),
        (NAN_DIAGONAL, MIXED_2, []),
        (NAN_DIAGONAL, MIXED_2, ["--povm"]),
    ], ids=["amplitudes", "entries", "entries-povm"])
    def test_rejects_nan(self, tmp_path, capsys, state0, state1, extra):
        assert run_helstrom(tmp_path, state0, state1, *extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_integral_float_dimensions_pass(self, tmp_path, capsys):
        """A dimension is an integral JSON number: ``2.0`` reads as ``2``."""
        assert run_helstrom(tmp_path, BELL_2, MIXED_4, "--p0", "0.35", "--povm") == 0
        want = capsys.readouterr().out
        bell = {**BELL_2, "d_s": 2.0, "d_i": 2.0}
        mixed = {**MIXED_4, "dim": 4.0}
        assert run_helstrom(tmp_path, bell, mixed, "--p0", "0.35", "--povm") == 0
        assert capsys.readouterr().out == want

    def test_rejects_negative_eigenvalue(self, tmp_path, capsys):
        # Hermitian with unit trace, but eigenvalues 1.2 and -0.2
        bad = {"dim": 2, "entries": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]}
        assert run_helstrom(tmp_path, bad, bad) == 1
        assert "positive" in capsys.readouterr().err


class TestProblemValidation:
    # 1e400 is finite JSON text that Python reads as float infinity
    RAW_FILES = {
        "mixed_4": json.dumps(MIXED_4),
        "mixed_2": json.dumps(MIXED_2),
        "dim_1e400": '{"dim": 1e400, "entries": [[[1, 0]]]}',
        "d_s_1e400": '{"d_s": 1e400, "d_i": 1, "amplitudes": [[1, 0], [0, 0]]}',
        "spec_null": "[null, 1]",
        "spec_nested": "[[0.5], [0.5]]",
        "spec_strings": '["0.5", "0.5"]',
        "spec_booleans": "[true, false]",
        "spec_huge_int": f"[1{'0' * 400}, 0]",
        # each is a valid two-dimensional state if the value is read with
        # int() or complex(): d_s as 2, d_i as 1, true as 1 and false as 0
        "d_s_2_9": '{"d_s": 2.9, "d_i": 1, "amplitudes": [[1, 0], [0, 0]]}',
        "d_i_true": '{"d_s": 2, "d_i": true, "amplitudes": [[1, 0], [0, 0]]}',
        "d_s_string": '{"d_s": "2", "d_i": 1, "amplitudes": [[1, 0], [0, 0]]}',
        "amp_booleans": '{"d_s": 2, "d_i": 1, "amplitudes": [[true, false], [false, false]]}',
        "dim_2_5": '{"dim": 2.5, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        "dim_string": '{"dim": "2", "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        "entries_booleans": '{"dim": 2, "entries": [[[0.5, 0], [0, false]], [[0, 0], [0.5, 0]]]}',
    }

    @pytest.mark.parametrize("argv", [
        ["helstrom", "--state0", "{mixed_4}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{mixed_4}", "--state1", "{mixed_4}", "--p0", "1.5"],
        ["verify-bell", "--d", "3", "--samples", "3", "--seed", "1", "--p0", "1.5"],
        ["verify-bell", "--d", "1", "--samples", "3", "--seed", "1"],
        ["verify-bell", "--d", "3", "--samples", "0", "--seed", "1"],
        ["verify-bell", "--d", "3", "--samples", "3", "--seed", "1", "--eta", "2"],
        ["verify-bell", "--d", "3", "--samples", "3", "--seed", "1", "--eta", "nan"],
        ["sweep", "--eta", "0.5", "--d", "inf", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "1e400", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_null}", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_nested}", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_strings}", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_booleans}", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_huge_int}", "--out", "{out}"],
        ["helstrom", "--state0", "{dim_1e400}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{d_s_1e400}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{d_s_2_9}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{d_i_true}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{d_s_string}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{amp_booleans}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{dim_2_5}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{dim_string}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{entries_booleans}", "--state1", "{mixed_2}"],
    ], ids=[
        "dimension-mismatch", "helstrom-p0", "verify-bell-p0", "verify-bell-d-1",
        "verify-bell-samples-0", "verify-bell-eta-2", "verify-bell-eta-nan", "sweep-d-inf", "sweep-d-1e400",
        "spectrum-null", "spectrum-nested", "spectrum-strings", "spectrum-booleans",
        "spectrum-huge-int", "helstrom-dim-1e400", "helstrom-d_s-1e400",
        "helstrom-d_s-2.9", "helstrom-d_i-true", "helstrom-d_s-string", "helstrom-amplitude-booleans",
        "helstrom-dim-2.5", "helstrom-dim-string", "helstrom-entry-booleans",
    ])
    def test_exits_1(self, tmp_path, capsys, argv):
        files = {"out": str(tmp_path / "sweep.csv")}
        for name, text in self.RAW_FILES.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(text)
        assert main([a.format(**files) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestOutOfMemory:
    """An allocation too large for the host ends in exit 1, not a traceback.
    The computation is made to raise, so nothing large is allocated."""

    @pytest.mark.parametrize("function, argv", [
        ("run_sweep", ["sweep", "--eta", "0.5", "--d", "2", "--out", "{out}"]),
        ("verify_bell_optimality", ["verify-bell", "--d", "3", "--samples", "3", "--seed", "1"]),
    ], ids=["sweep", "verify-bell"])
    def test_exits_1(self, tmp_path, monkeypatch, capsys, function, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(cli, function, exhausted)
        out = tmp_path / "sweep.csv"
        assert main([a.format(out=out) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 14.6 TiB\n"
        assert captured.out == ""
        assert not out.exists()


class TestTolerance:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9", "abc"])
    def test_rejects_unusable_qi_tol(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("QI_TOL", value)
        assert run_helstrom(tmp_path, HALF_NORM, HALF_NORM) == 1
        captured = capsys.readouterr()
        assert "QI_TOL" in captured.err
        assert captured.out == ""

    def test_accepts_finite_positive_qi_tol(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QI_TOL", "1e-6")
        assert run_helstrom(tmp_path, BELL_2, BELL_2) == 0
        assert math.isclose(float(capsys.readouterr().out), 0.5, abs_tol=1e-12)
