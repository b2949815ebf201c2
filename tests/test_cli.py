"""Tests for the command-line front end, run in-process through ``main``."""

import json
import math
from pathlib import Path

import pytest

from qillum import analysis
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

    def test_verification_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        exact = analysis.hs_distinguishability

        def skewed(*args, **kwargs):
            return exact(*args, **kwargs) + 1e-6

        monkeypatch.setattr(analysis, "hs_distinguishability", skewed)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "2", "--out", str(out)]) == 2
        assert "numerical verification failed" in capsys.readouterr().err
        assert not out.exists()

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
    }

    @pytest.mark.parametrize("argv", [
        ["helstrom", "--state0", "{mixed_4}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{mixed_4}", "--state1", "{mixed_4}", "--p0", "1.5"],
        ["verify-bell", "--d", "3", "--samples", "3", "--seed", "1", "--p0", "1.5"],
        ["sweep", "--eta", "0.5", "--d", "inf", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "1e400", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_null}", "--out", "{out}"],
        ["sweep", "--eta", "0.5", "--d", "2", "--family", "spectrum:{spec_nested}", "--out", "{out}"],
        ["helstrom", "--state0", "{dim_1e400}", "--state1", "{mixed_2}"],
        ["helstrom", "--state0", "{d_s_1e400}", "--state1", "{mixed_2}"],
    ], ids=[
        "dimension-mismatch", "helstrom-p0", "verify-bell-p0", "sweep-d-inf", "sweep-d-1e400",
        "spectrum-null", "spectrum-nested", "helstrom-dim-1e400", "helstrom-d_s-1e400",
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
