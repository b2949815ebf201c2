"""Tests for the command-line front end, run in-process through ``main``."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum import analysis, cli, discrimination, states
from qillum.cli import MAX_SWEEP_ROWS, main, parse_float_grid
from qillum.discrimination import diagonalize, flat_probe_error, helstrom_error, optimal_povm
from qillum.states import DEFAULT_TOL, density_from_dict
from conftest import (
    AWKWARD_PARTS,
    assert_printed_digits,
    assert_reads_back,
    density_to_dict,
    ginibre,
    max_abs_diff,
    povm_error,
    pure_state_dict,
    random_density,
)
import run_cli_cases

DATA = Path(__file__).parent / "data"
CLI_CASES = run_cli_cases.load_cases()

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
# a second pure state for BELL_2: the pair takes the 2x2 route
ZERO_4 = {"d_s": 2, "d_i": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
# squared norm 0.5: invalid at any sensible tolerance
HALF_NORM = {"d_s": 2, "d_i": 1, "amplitudes": [[0.5, 0.0], [0.5, 0.0]]}
# json writes these as NaN, which the state-file reader rejects
NAN_AMPLITUDE = {"d_s": 2, "d_i": 1, "amplitudes": [[math.nan, 0.0], [0.0, 0.0]]}
NAN_DIAGONAL = {"dim": 2, "entries": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
# nested past Python's recursion limit, not past cli.MAX_JSON_DEPTH: orjson reads it, and ``repr`` cannot print it
DEEP = "[" * 10_000 + "]" * 10_000
# nested 10^6 deep, arrays and objects: orjson overflowed its stack on these (SIGSEGV, exit 139)
DEEPEST_ARRAYS, DEEPEST_OBJECTS = "[" * 10**6 + "]" * 10**6, '{"a": ' * 10**6 + "1" + "}" * 10**6
# half the largest float, rounded up: a sum or difference of two overflows
BIG = 8.98846567431158e307


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


def run_python(*args):
    """``python *args`` in a subprocess that imports ``qillum`` from this
    checkout, with the manifest runner's ``PYTHONPATH``."""
    env = run_cli_cases.process_env({}, Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestCliCases:
    """The cases of ``tests/data/cli_cases.json``, each through ``main`` in a
    working directory of its own; ``tests/run_cli_cases.py`` documents
    their format and runs them through a command."""

    @pytest.mark.parametrize("case", CLI_CASES, ids=[case["name"] for case in CLI_CASES])
    def test_case(self, case):
        assert run_cli_cases.run_case(case) == []

    def test_manifest_is_sound(self):
        """Every case has a unique name and its keys, every file it names is
        in ``tests/data/``, and every file there is named by a case or a
        test."""
        assert run_cli_cases.validate(CLI_CASES) == []


class TestSweep:
    GOLDEN_ARGS = [
        "--eta", "0:0.25:1", "--d", "2,3,4",
        "--family", "bell", "--family", "uniform-rank:2", "--priors", "0.3",
    ]

    @pytest.mark.parametrize("offset, code", [(5e-4, 1), (2e-9, 1), (1e-10, 0)])
    def test_spectrum_sum_is_held_to_the_tolerance(self, tmp_path, capsys, offset, code):
        spec = write_json(tmp_path / "spec.json", [0.5, 0.5 + offset])
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "2", "--family", f"spectrum:{spec}", "--out", str(out)]
        assert main(["sweep", *argv]) == code
        assert out.exists() == (code == 0)
        if code:
            assert capsys.readouterr().err.startswith("error: spectrum sums to")

    def test_zero_spectrum_exits_1_at_any_tolerance(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", [0, 0])
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "2", "--family", f"spectrum:{spec}", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr().err == "error: spectrum sums to 0.0, expected 1 within 1.0e-09\n"
        assert not out.exists()

    def test_rank_is_checked_before_allocating(self, tmp_path, capsys):
        # 10^12 weights would take 7.28 TiB
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "4", "--family", "uniform-rank:1000000000000", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr().err == "error: rank 1000000000000 exceeds the signal dimension 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--d", "2", "--family", "spectrum:{wide}"], "spectrum length 3 not in [1, 2]"),
        (["--d", "4", "--family", "uniform-rank:0"], "rank must be >= 1, got 0"),
        (["--d", "4", "--family", "uniform-rank:-2"], "rank must be >= 1, got -2"),
        # named at the smallest --d, and before a later family's file is read
        (["--d", "3,2", "--family", "uniform-rank:4"], "rank 4 exceeds the signal dimension 2"),
        (["--d", "4,3", "--family", "uniform-rank:4", "--family", "spectrum:{missing}"],
         "rank 4 exceeds the signal dimension 3"),
    ], ids=["spectrum-wider-than-d", "rank-0", "rank-negative", "smallest-d", "first-family"])
    def test_infeasible_family_exits_1(self, tmp_path, monkeypatch, capsys, argv, message):
        """An infeasible family exits 1 before ``run_sweep`` is called, and
        no CSV is written."""
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("run_sweep was called"))
        files = {"wide": write_json(tmp_path / "wide.json", [0.5, 0.3, 0.2]), "missing": tmp_path / "missing.json"}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", *(a.format(**files) for a in argv), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_spectrum_is_checked_once_per_sweep(self, tmp_path, monkeypatch):
        """A ``spectrum:`` file is checked and normalized once, not at each
        of the three dimensions, and the rows stay those of the golden."""
        exact, calls = cli.schmidt_probe, []
        monkeypatch.setattr(cli, "schmidt_probe", lambda *args: calls.append(args) or exact(*args))
        families = []
        for name, spec in (("tilted", [0, 0.52, 0.01, 0.47]), ("near_pure", [0.999999999998, 1e-12, 1e-12])):
            families += ["--family", f"spectrum:{write_json(tmp_path / f'{name}.json', spec)}"]
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--eta", "0:0.25:1", "--d", "4,5,7", *families, "--family", "uniform-rank:3",
                "--priors", "0.37", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / "sweep_spectrum_golden_p0.37.csv").read_bytes()
        assert len(calls) == 2

    @pytest.mark.parametrize("p0", ["0.3", "0.5"])
    def test_flat_spectrum_prints_the_uniform_rank_rows(self, tmp_path, p0):
        """A ``spectrum:`` file of four equal weights, four weights of one
        copy, prints the bytes of ``uniform-rank:4``, one weight of four
        copies."""
        spec = write_json(tmp_path / "flat.json", [0.25, 0.25, 0.25, 0.25])
        outs = {family: tmp_path / f"{k}.csv" for k, family in enumerate([f"spectrum:{spec}", "uniform-rank:4"])}
        for family, out in outs.items():
            argv = ["sweep", "--eta", "0:0.05:1", "--d", "4:1:12", "--family", family, "--priors", p0, "--out", str(out)]
            assert main(argv) == 0
        spectrum, rank = (out.read_bytes() for out in outs.values())
        assert spectrum == rank and spectrum.count(b"\n") == 1 + 21 * 9

    def test_repeated_dimension_repeats_its_rows(self, tmp_path):
        """Every probe is evaluated in output order, a repeated d_s again:
        with ``--d 4,2,4`` both d_s = 4 blocks of each eta are the ``--d 4``
        rows, byte for byte, whatever widths share their chunk."""
        spec = write_json(tmp_path / "spec.json", [0.3, 0.7])
        argv = ["sweep", "--eta", "0:0.25:1", "--family", "bell", "--family", "uniform-rank:2",
                "--family", f"spectrum:{spec}"]
        outs = {d: tmp_path / f"d{d}.csv" for d in ("4,2,4", "4")}
        for d, out in outs.items():
            assert main([*argv, "--d", d, "--out", str(out)]) == 0
        rows = {d: out.read_text().splitlines()[1:] for d, out in outs.items()}
        assert len(rows["4,2,4"]) == 45
        for k in range(5):
            block = rows["4,2,4"][9 * k : 9 * k + 9]
            assert block[0:3] == block[6:9] == rows["4"][3 * k : 3 * k + 3]
            assert all(row.split(",")[1] == "2" for row in block[3:6])

    @pytest.mark.parametrize("suffix", [".gp", ".png"])
    def test_out_named_like_a_plot_file_exits_1(self, tmp_path, monkeypatch, capsys, suffix):
        """``sweep`` writes its CSV and nothing else: ``--plot`` is an unknown
        option, which stops the run before any work, and an ``--out`` ending
        in ``.gp`` or ``.png`` is a CSV like any other."""
        out = tmp_path / f"sweep{suffix}"
        argv = ["sweep", "--eta", "0.5", "--d", "2", "--out", str(out)]
        with monkeypatch.context() as patched:
            patched.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("run_sweep was called"))
            assert main([*argv, "--plot"]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.endswith("error: unrecognized arguments: --plot\n")
        assert list(tmp_path.iterdir()) == []
        assert main(argv) == 0
        assert out.read_text().startswith(cli.CSV_HEADER)
        assert list(tmp_path.iterdir()) == [out]

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
        monkeypatch.setattr(analysis, "channel_overlap", lambda lam, eta, d_s, m: np.full(len(eta), np.nan))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "3", "--out", str(out)]) == 2
        assert "closed/direct overlap disagree by nan" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_weight_fails_the_bracket(self, tmp_path, monkeypatch, capsys):
        """A NaN weight reaches the kernel (the overlap columns stay
        finite): its error is NaN, which the bracket check fails."""
        exact = analysis.schmidt_helstrom_error

        def spoiled(lam, *args):
            lam = lam.copy()
            lam[0, 0] = math.nan
            return exact(lam, *args)

        monkeypatch.setattr(analysis, "schmidt_helstrom_error", spoiled)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "3", "--out", str(out)]) == 2
        assert "numerical verification failed: p_err=nan outside" in capsys.readouterr().err
        assert not out.exists()

    def test_every_cell_goes_through_fmt(self, tmp_path, monkeypatch):
        """``cli._fmt`` is the CSV's per-cell formatter, called once a cell
        with a Python float: a formatter patched in its place writes every
        data cell."""
        calls = []

        def counting(x):
            calls.append(x)
            return format(x, ".6g")

        monkeypatch.setattr(cli, "_fmt", counting)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *self.GOLDEN_ARGS, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == cli.CSV_HEADER and len(rows) == 5 * 3 * 2
        assert len(calls) == len(rows) * len(analysis.SWEEP_COLUMNS)
        assert all(type(x) is float for x in calls)
        assert [cell for row in rows for cell in row.split(",")] == [format(x, ".6g") for x in calls]

    def test_largest_grid_renders_as_a_per_row_join(self):
        """The 9999 rows of ``--eta 0:0.01:1 --d 2:1:100``, against a
        per-row join of ``format(float(x), ".12g")``."""
        table = analysis.run_sweep(parse_float_grid("0:0.01:1"), cli.parse_int_grid("2:1:100"), [None])
        assert len(table) == 9999
        rows = [",".join(format(float(x), ".12g") for x in row) for row in table]
        assert cli.render_sweep_csv(table) == "\n".join([cli.CSV_HEADER, *rows]) + "\n"

    def test_negative_zero_is_written_as_zero(self, tmp_path):
        """``-0`` reads as 0, in a list or as a range start, and as the prior;
        nothing else in the CSV changes."""
        outs = [tmp_path / f"sweep{k}.csv" for k in range(3)]
        for out, eta, p0 in zip(outs, ["-0,0.5", "-0:0.5:0.5", "0,0.5"], ["-0", "-0.0", "0"]):
            assert main(["sweep", f"--eta={eta}", "--d", "3", "--priors", p0, "--out", str(out)]) == 0
        text = outs[2].read_text()
        assert text.splitlines()[1].startswith("0,3,")
        assert outs[0].read_text() == text and outs[1].read_text() == text

    def test_bad_grid_exits_1(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "1.5", "--d", "2", "--out", str(out)]) == 1

    def test_row_cap_exits_1(self, tmp_path, capsys):
        # 1001 etas x 19 dims x 2 families = 38038 rows; no probe is built
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0:0.001:1", "--d", "2:1:20", "--family", "bell",
                "--family", "uniform-rank:2", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert f"more than {MAX_SWEEP_ROWS}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_rejects_non_finite_spectrum(self, tmp_path, capsys, literal):
        spec = tmp_path / "spec.json"
        spec.write_text(f"[0.5, {literal}, 0.5]")
        out = tmp_path / "sweep.csv"
        argv = ["--eta", "0.5", "--d", "3", "--family", f"spectrum:{spec}", "--out", str(out)]
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read spectrum file {str(spec)!r}")
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


class TestArgv:
    """``main()`` reads ``sys.argv[1:]``, and a subcommand's argv goes
    straight to the subcommand's parser from there as from a list."""

    @pytest.mark.parametrize("argv, code", [
        (["sweep", *TestSweep.GOLDEN_ARGS, "--out", "sweep.csv"], 0),
        (["sweep", "--eta", "0.5", "--d", "2", "--plot", "--out", "sweep.csv"], 1),  # a usage error after the name
    ], ids=["golden", "unknown-option"])
    def test_none_reads_sys_argv(self, tmp_path, monkeypatch, capsys, argv, code):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "120")  # argparse wraps the usage line to the terminal's width
        monkeypatch.setattr(sys, "argv", ["qillum", *argv])
        monkeypatch.setattr(cli.build_parser()[0], "parse_known_args",
                            lambda *args: pytest.fail("the top-level parser read a subcommand's argv"))
        out, runs = tmp_path / "sweep.csv", []
        for args in ([argv], []):
            runs.append((main(*args), capsys.readouterr(), out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        if code == 0:
            assert runs[0][2] == (DATA / "sweep_golden.csv").read_bytes()
        else:
            assert runs[0][1].err.endswith("qillum sweep: error: unrecognized arguments: --plot\n")


@pytest.fixture
def chunks(monkeypatch):
    """The number of samples in each chunk verify-bell draws, in order."""
    sizes = []
    exact = analysis.haar_random_amplitudes

    def counted(d_s, d_i, seeds):
        sizes.append(len(seeds))
        return exact(d_s, d_i, seeds)

    monkeypatch.setattr(analysis, "haar_random_amplitudes", counted)
    return sizes


class TestVerifyBell:
    GOLDEN_ARGS = ["--d", "4", "--samples", "20", "--seed", "3", "--eta", "0.3", "--p0", "0.4"]

    def test_chunking_does_not_change_the_report(self, capsys, monkeypatch, chunks):
        """One chunk or seven of at most three samples: the same stdout."""
        assert main(["verify-bell", *self.GOLDEN_ARGS]) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", 3 * 4 * 4)
        assert main(["verify-bell", *self.GOLDEN_ARGS]) == 0
        assert capsys.readouterr().out == whole
        assert chunks == [20] + [3] * 6 + [2]

    def test_golden_report_past_a_chunk(self, capsys, chunks):
        """1100 samples at d = 8 are a chunk of 1024 and one of 76; the
        report's bytes are the ``verify_bell_report_past_a_chunk`` case's."""
        assert main(["verify-bell", "--d", "8", "--samples", "1100", "--seed", "2", "--eta", "0.5"]) == 0
        assert chunks == [1024, 76]

    @pytest.mark.parametrize("end", ["bell", "unentangled", "nan", "nan-weight"])
    def test_sample_outside_the_bracket_exits_2(self, capsys, monkeypatch, end):
        """Sample 4, in the second chunk of three samples, is moved past
        one end of its closed-form bracket (or to NaN, or given a NaN weight,
        for which the kernel itself returns NaN); the other samples keep
        their errors.  The kernel runs once a chunk, never on the
        reference's flat weights."""
        value = {
            "bell": flat_probe_error(0.5, 9) - 1e-9,
            "unentangled": flat_probe_error(0.5, 3) + 1e-9,
            "nan": math.nan,
            "nan-weight": None,
        }[end]
        calls = []
        exact = analysis.schmidt_helstrom_error

        def spoiled(weights, *args):
            calls.append(len(weights))
            if len(calls) == 2 and value is None:
                weights = weights.copy()
                weights[1, 0] = math.nan
            p_err = exact(weights, *args)
            if len(calls) == 2 and value is not None:
                p_err[1] = value
            return p_err

        monkeypatch.setattr(analysis, "schmidt_helstrom_error", spoiled)
        monkeypatch.setattr(analysis, "_CHUNK_AMPLITUDES", 3 * 3 * 3)
        assert main(["verify-bell", "--d", "3", "--samples", "5", "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical verification failed: sample 4: p_err=")
        assert calls == [3, 2]

    @pytest.mark.parametrize("option, value, message", [
        ("--p0", "1.5", "prior p0 must lie in [0, 1], got 1.5"),
        ("--eta", "2", "eta must be in [0, 1], got 2.0"),
    ])
    def test_bad_parameter_exits_1_before_sampling(self, capsys, chunks, option, value, message):
        assert main(["verify-bell", "--d", "8", "--samples", "2000", "--seed", "1", option, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert chunks == []

    @pytest.mark.parametrize("option, value, message, size", [
        ("--d", cli.MAX_VERIFY_DIM + 1,
         f"verify-bell samples at most {cli.MAX_VERIFY_DIM} dimensions, got {cli.MAX_VERIFY_DIM + 1}",
         40 * (cli.MAX_VERIFY_DIM + 1) ** 2),
        ("--samples", cli.MAX_VERIFY_SAMPLES + 1,
         f"verify-bell draws at most {cli.MAX_VERIFY_SAMPLES} samples, got {cli.MAX_VERIFY_SAMPLES + 1}",
         4 * (cli.MAX_VERIFY_SAMPLES + 1)),
    ], ids=["d", "samples"])
    def test_above_the_cap_exits_1_before_any_allocation(self, capsys, chunks, option, value, message, size):
        """One past ``MAX_VERIFY_DIM`` (one sample, about 40 d^2 bytes) or
        ``MAX_VERIFY_SAMPLES`` (the seeds, 4 bytes a sample) exits 1 with one
        line naming the cap, having allocated under 1% of that and drawn no
        sample."""
        argv = {"--d": "2", "--samples": "1", option: str(value)}
        tracemalloc.start()
        try:
            assert main(["verify-bell", "--seed", "1", *(x for kv in argv.items() for x in kv)]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * size
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert chunks == []

    def test_one_generator_per_chunk(self, capsys, monkeypatch, chunks):
        """1025 samples at d = 8 are two chunks, and each builds one
        ``PCG64``, not one per sample: every seed's state comes from one
        pass over the chunk's seeds."""
        built = []
        exact = np.random.PCG64

        def counted(*args):
            built.append(args)
            return exact(*args)

        monkeypatch.setattr(np.random, "PCG64", counted)
        assert main(["verify-bell", "--d", "8", "--samples", "1025", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 1025
        assert chunks == [1024, 1]
        assert 1 <= len(built) <= len(chunks)

    def test_negative_zero_is_printed_as_zero(self, capsys):
        argv = ["verify-bell", "--d", "3", "--samples", "4", "--seed", "1"]
        assert main([*argv, "--eta", "-0", "--p0", "-0"]) == 0
        report = capsys.readouterr().out
        assert '"eta": 0.0,' in report and '"p0": 0.0,' in report
        assert main([*argv, "--eta", "0", "--p0", "0"]) == 0
        assert capsys.readouterr().out == report


class TestGridParsing:
    def test_range_points_unchanged(self):
        assert parse_float_grid("0:0.25:1") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_float_grid("0:0.1:1") == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert parse_float_grid("2:1:5") == [2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("text", [
        "0:0.1:1", "-1:0.3:1", "0.7:0.07:1.4", "1e-30:1:3", "9007199254740992:1.0000000000000002:9007199254741000",
    ])
    def test_range_points_round_once_from_the_decimals(self, text):
        """Point k is ``start + k step`` on the decimals written, rounded
        once, against exact rationals.  Past 2**53 the exact sum is just
        above a tie between two floats; rounded first to Decimal's default
        28 digits it would land on the tie and round down."""
        start, step, _ = (Fraction(part) for part in text.split(":"))
        points = parse_float_grid(text)
        assert points == [float(start + k * step) for k in range(len(points))]

    def test_range_cap(self):
        assert len(parse_float_grid(f"0:1:{MAX_SWEEP_ROWS - 1}")) == MAX_SWEEP_ROWS
        with pytest.raises(ValueError, match="points"):
            parse_float_grid(f"0:1:{MAX_SWEEP_ROWS}")
        with pytest.raises(ValueError, match="stop must be finite, got inf"):
            parse_float_grid("0:1:inf")

    def test_huge_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0:1e-12:1", "--d", "2", "--out", str(out)]) == 1
        assert "points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d", ["3.9999999999", "2.0000000001"])
    def test_d_must_be_an_exact_integer(self, tmp_path, capsys, d):
        """A signal dimension within a hair of an integer is not rounded to
        it, as a state file's ``d_s`` is not."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", d, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: expected integers, got {d}\n"
        assert not out.exists()


def random_state_object(rng, dim, spec):
    """A random state in the wire format: ``("amp", d_s, d_i)`` a pure state
    in the ``amplitudes`` format, ``("rho", rank)`` a density matrix of that
    rank in the ``entries`` format."""
    if spec[0] == "amp":
        amp = ginibre(rng, dim, 1).reshape(spec[1:])
        return pure_state_dict(amp / np.linalg.norm(amp))
    return density_to_dict(random_density(rng, dim, spec[1]))


#: The benchmark's shapes of state pair: ``(seed, dim, spec0, spec1)``, the
#: specs as :func:`random_state_object` takes them.
BENCHMARK_PAIRS = [
    (1, 32, ("amp", 8, 4), ("rho", 3)),
    (2, 32, ("rho", 32), ("rho", 1)),
    (3, 48, ("rho", 48), ("amp", 6, 8)),
    (4, 64, ("amp", 8, 8), ("amp", 16, 4)),
    (5, 64, ("rho", 2), ("rho", 64)),
    (6, 96, ("amp", 12, 8), ("rho", 5)),
    (7, 96, ("rho", 96), ("rho", 48)),
]

#: README's example state files, byte for byte.
README_STATES = {
    "bell.json": '{"d_s": 2, "d_i": 2, "amplitudes": [[0.7071067811865476, 0], [0, 0], [0, 0], '
                 '[0.7071067811865476, 0]]}',
    "mixed.json": '{"dim": 4, "entries": [[[0.25, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0.25, 0], [0, 0], '
                  '[0, 0]], [[0, 0], [0, 0], [0.25, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0.25, 0]]]}',
}


class TestHelstrom:
    @pytest.mark.parametrize("seed, dim, spec0, spec1", BENCHMARK_PAIRS)
    def test_povm_text_at_benchmark_sizes(self, tmp_path, capsys, seed, dim, spec0, spec1):
        """The benchmark's shapes of pair: the printed error and measurement
        are ``helstrom_error``'s and ``optimal_povm``'s on one
        ``diagonalize``, the measurement bit for bit, and it attains the
        printed error; the pure pair's error is mpmath's to the printed
        digit."""
        rng = np.random.default_rng(seed)
        obj0, obj1 = random_state_object(rng, dim, spec0), random_state_object(rng, dim, spec1)
        p0 = round(float(rng.uniform(0.2, 0.8)), 6)
        assert run_helstrom(tmp_path, obj0, obj1, "--p0", repr(p0), "--povm") == 0
        out = capsys.readouterr().out
        state0, state1 = density_from_dict(obj0), density_from_dict(obj1)
        line0, line1 = out.splitlines()
        spectrum = diagonalize(state0, state1, p0, vectors=True)
        assert line0 == cli._fmt(helstrom_error(spectrum))
        povm = optimal_povm(spectrum)
        assert_reads_back(json.loads(line1), povm)
        rho0, rho1 = (np.outer(s, s.conj()) if s.ndim == 1 else s for s in (state0, state1))
        assert povm_error(rho0, rho1, p0, povm) == pytest.approx(float(line0), abs=dim * 1e-9)
        if state0.ndim == state1.ndim == 1:
            assert_printed_digits(line0, pure_error_mp(state0, state1, p0))

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
        """Hermitian with unit trace, but eigenvalues 1.2 and -0.2: the
        Cholesky certificate fails at the first or at the second pivot, and
        the smallest eigenvalue is named, as the ``helstrom_negative_eigenvalue``
        case pins it."""
        message = f"invalid state in {str(tmp_path / 's0.json')!r}: not positive semidefinite: min eigenvalue -2.000e-01"
        for entries in ([[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]],
                        [[[0.5, 0.0], [0.7, 0.0]], [[0.7, 0.0], [0.5, 0.0]]]):
            assert run_helstrom(tmp_path, {"dim": 2, "entries": entries}, MIXED_2) == 1
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (f"error: {message}\n", "")

    def test_povm_that_misses_the_error_exits_2(self, tmp_path, monkeypatch, capsys):
        """Swapped elements attain ``1 - error``: the run stops before
        printing, on the dense and on the pure pair's route."""
        exact = cli.optimal_povm
        monkeypatch.setattr(cli, "optimal_povm", lambda *args: exact(*args)[::-1])
        for state1 in (MIXED_4, ZERO_4):
            assert run_helstrom(tmp_path, BELL_2, state1, "--p0", "0.35", "--povm") == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(r"numerical verification failed: .*gap \S+ > bound \S+\n", captured.err)
            assert "np.float64" not in captured.err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_povm_exits_2(self, tmp_path, monkeypatch, capsys, bad):
        """A measurement with a NaN or infinite entry attains a non-finite
        error, so the check stops it before anything is printed: orjson
        would print such an entry as ``null``."""
        exact = cli.optimal_povm

        def tainted(*args):
            e0, e1 = exact(*args)
            e0 = e0.copy()
            e0[0, 0] = bad
            return e0, e1

        monkeypatch.setattr(cli, "optimal_povm", tainted)
        for state1 in (MIXED_4, ZERO_4):  # the dense and the pure pair's route
            assert run_helstrom(tmp_path, BELL_2, state1, "--p0", "0.35", "--povm") == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(r"numerical verification failed: .*gap \S+ > bound \S+\n", captured.err)

    def test_povm_check_passes_at_tiny_tolerance(self, tmp_path, monkeypatch, capsys):
        """With ``DEFAULT_TOL`` at 1e-300 the check's bound is its 16 float
        steps a dimension alone, and a correct run still passes with the same
        bytes.  The pair is exact in binary (unit norm, unit trace), so it
        passes validation there too."""
        pure = {"d_s": 2, "d_i": 2, "amplitudes": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]}
        mixed = {"dim": 4, "entries": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
        assert run_helstrom(tmp_path, pure, mixed, "--p0", "0.35", "--povm") == 0
        want = capsys.readouterr().out
        for module in (states, discrimination, cli):  # validation, the measurement's cutoff and the check
            monkeypatch.setattr(module, "DEFAULT_TOL", 1e-300)
        assert run_helstrom(tmp_path, pure, mixed, "--p0", "0.35", "--povm") == 0
        assert capsys.readouterr().out == want

    def test_povm_check_holds_at_tiny_tolerance(self, monkeypatch):
        """``helstrom_povm.txt``'s pair and the benchmark's shapes: their
        files fail validation at ``1e-300`` (a norm or trace off by an ulp),
        so the check is run on the decoded states directly, with
        ``DEFAULT_TOL`` patched where the cutoff and the check read it."""
        cases = [(density_from_dict(BELL_2), density_from_dict(MIXED_4), 0.35)]
        for seed, dim, spec0, spec1 in BENCHMARK_PAIRS:
            rng = np.random.default_rng(seed)
            state0, state1 = (density_from_dict(random_state_object(rng, dim, s)) for s in (spec0, spec1))
            cases.append((state0, state1, round(float(rng.uniform(0.2, 0.8)), 6)))
        for state0, state1, p0 in cases:
            error = helstrom_error(diagonalize(state0, state1, p0))
            for tol in (DEFAULT_TOL, 1e-300):
                monkeypatch.setattr(discrimination, "DEFAULT_TOL", tol)
                monkeypatch.setattr(cli, "DEFAULT_TOL", tol)
                povm = optimal_povm(diagonalize(state0, state1, p0, vectors=True))
                cli._check_povm_error(state0, state1, p0, povm, error)


def pure_error_mp(psi0, psi1, p0):
    """``(1 - ||p0 |psi0><psi0| - p1 |psi1><psi1| ||_1) / 2`` at 80 digits,
    for the float amplitudes as stored and ``p1 = 1 - p0`` exactly, clipped
    to ``[0, 1]``: the rank-2 difference has the trace norm ``sqrt(m^2 - 4
    p0 p1 |<psi0|psi1>|^2)``, ``m = p0 |psi0|^2 + p1 |psi1|^2``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        z0, z1 = ([mpmath.mpc(z) for z in psi.tolist()] for psi in (psi0, psi1))
        n0, n1 = (mpmath.fsum(z.real**2 + z.imag**2 for z in zs) for zs in (z0, z1))
        c = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(z0, z1))
        p0 = mpmath.mpf(p0)
        m = p0 * n0 + (1 - p0) * n1
        value = (1 - mpmath.sqrt(m**2 - 4 * p0 * (1 - p0) * abs(c) ** 2)) / 2
        return min(max(value, mpmath.mpf(0)), mpmath.mpf(1))


def pure_pair(rng, n, kind, theta=0.0):
    """Two unit amplitude vectors of dimension ``n``: independent Haar
    vectors, or the first with itself (``equal``), times ``e^{i theta}``
    (``phase``), or with a Haar vector made orthogonal to it in floats
    (``orthogonal``, two Gram-Schmidt passes)."""
    base0, base1 = (g / np.linalg.norm(g) for g in ginibre(rng, n, 2).T)
    if kind == "equal":
        base1 = base0
    elif kind == "phase":
        base1 = np.exp(1j * theta) * base0
    elif kind == "orthogonal":
        for _ in range(2):
            base1 = base1 - np.vdot(base0, base1) * base0
        base1 = base1 / np.linalg.norm(base1)
    return base0, base1


def amplitude_object(psi):
    return {"d_s": len(psi), "d_i": 1, "amplitudes": np.stack((psi.real, psi.imag), -1).tolist()}


#: A squared-norm offset within the tolerance: the validation's own
#: rounding keeps the stored norm inside it.
NORM_OFFSET = st.one_of(st.just(0.0), st.floats(-0.99e-9, 0.99e-9))


class TestPurePair:
    """Two pure states take the 2x2 route: no ``dim x dim`` array without
    ``--povm``, and an error right to the printed digit."""

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(2, 64), st.integers(2, 2048)),
        kind=st.sampled_from(["haar", "equal", "phase", "orthogonal"]),
        theta=st.floats(-math.pi, math.pi),
        offsets=st.tuples(NORM_OFFSET, NORM_OFFSET),
        p0=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    )
    @example(seed=1, n=1024, kind="haar", theta=0.0, offsets=(0.0, 0.0), p0=0.5)
    @example(seed=2, n=2048, kind="haar", theta=0.0, offsets=(0.9e-9, -0.9e-9), p0=0.3)
    @example(seed=3, n=2048, kind="orthogonal", theta=0.0, offsets=(-0.9e-9, -0.5e-9), p0=0.7)
    @example(seed=4, n=16, kind="equal", theta=0.0, offsets=(0.0, 0.0), p0=0.5)
    @example(seed=5, n=16, kind="equal", theta=0.0, offsets=(0.9e-9, -0.9e-9), p0=0.5)
    @example(seed=6, n=33, kind="phase", theta=2.0, offsets=(0.3e-9, 0.3e-9), p0=0.5)
    @example(seed=7, n=8, kind="orthogonal", theta=0.0, offsets=(-0.9e-9, 0.0), p0=1.0)
    @example(seed=8, n=8, kind="haar", theta=0.0, offsets=(0.0, -0.9e-9), p0=0.0)
    def test_error_to_the_printed_digit(self, tmp_path_factory, seed, n, kind, theta, offsets, p0):
        """Against 80-digit mpmath on the amplitudes as stored, squared
        norms off 1 by up to ``0.99 DEFAULT_TOL``; up to 64 dimensions the
        printed measurement is Hermitian, sums to ``I``, has ``E1`` of rank
        at most 1 and attains the error within the check's bound."""
        bases = pure_pair(np.random.default_rng(seed), n, kind, theta)
        psi0, psi1 = (psi * math.sqrt(1.0 + d) for psi, d in zip(bases, offsets))
        povm = ["--povm"] if n <= 64 else []
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run_helstrom(tmp_path_factory.mktemp("pair"), amplitude_object(psi0), amplitude_object(psi1),
                                "--p0", repr(p0), *povm) == 0
        lines = out.getvalue().splitlines()
        assert_printed_digits(lines[0], pure_error_mp(psi0, psi1, p0))
        if povm:
            e0, e1 = (np.array(e["entries"]).view(complex)[..., 0] for e in json.loads(lines[1]))
            assert np.array_equal(e0, e0.conj().T) and np.array_equal(e1, e1.conj().T)
            assert max_abs_diff(e0 + e1, np.eye(n)) <= 4 * np.finfo(float).eps
            assert np.linalg.eigvalsh(e1)[-2] <= 1e-12
            attained = povm_error(np.outer(psi0, psi0.conj()), np.outer(psi1, psi1.conj()), p0, (e0, e1))
            assert abs(attained - float(lines[0])) <= n * (DEFAULT_TOL + 16 * np.finfo(float).eps)

    def test_pure_pair_at_1e5_dims_builds_no_matrix(self, tmp_path, capsys):
        """A projector at 1e5 dimensions would take 160 GB."""
        n = 10**5
        psi0, psi1 = pure_pair(np.random.default_rng(9), n, "haar")
        paths = [write_json(tmp_path / f"s{k}.json", amplitude_object(psi)) for k, psi in enumerate((psi0, psi1))]
        tracemalloc.start()
        try:
            assert main(["helstrom", "--state0", paths[0], "--state1", paths[1], "--p0", "0.4"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        want = 0.5 * (1.0 - math.sqrt(1.0 - 4 * 0.4 * 0.6 * abs(np.vdot(psi0, psi1)) ** 2))
        assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-9)

    def test_povm_above_the_cap_exits_1_before_any_matrix(self, tmp_path, capsys):
        """One dimension past ``MAX_POVM_DIM`` ``--povm`` exits 1 with one
        line naming the cap, having allocated under 1% of one ``dim x dim``
        complex matrix (67 MB); without ``--povm`` the pair prints its error."""
        n = cli.MAX_POVM_DIM + 1
        psi0, psi1 = pure_pair(np.random.default_rng(11), n, "haar")
        paths = [write_json(tmp_path / f"s{k}.json", amplitude_object(psi)) for k, psi in enumerate((psi0, psi1))]
        argv = ["helstrom", "--state0", paths[0], "--state1", paths[1], "--p0", "0.4"]
        tracemalloc.start()
        try:
            assert main([*argv, "--povm"]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 16 * n * n
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --povm prints at most {cli.MAX_POVM_DIM} dimensions, got {n}; "
                                "the error alone, without --povm, has no cap\n")
        assert main(argv) == 0
        want = 0.5 * (1.0 - math.sqrt(1.0 - 4 * 0.4 * 0.6 * abs(np.vdot(psi0, psi1)) ** 2))
        assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-9)


class TestRoute:
    """Which eigensolves a query makes, from wrapped ``numpy.linalg.eigh``
    and ``eigvalsh``: ``(name, size)`` per call."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, len(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("state0, state1", [(BELL_2, MIXED_4), (MIXED_4, BELL_2), (MIXED_4, MIXED_4)],
                             ids=["pure-stored", "stored-pure", "stored-stored"])
    def test_dense_pair(self, tmp_path, capsys, eig_calls, state0, state1):
        """One ``eigh`` with ``--povm``, one ``eigvalsh`` without."""
        assert run_helstrom(tmp_path, state0, state1, "--p0", "0.35", "--povm") == 0
        assert eig_calls == [("eigh", 4)]
        eig_calls.clear()
        assert run_helstrom(tmp_path, state0, state1, "--p0", "0.35") == 0
        assert eig_calls == [("eigvalsh", 4)]

    def test_pure_pair(self, tmp_path, capsys, eig_calls):
        """No eigensolve without ``--povm``, one 2x2 ``eigh`` with it."""
        obj0, obj1 = (amplitude_object(psi) for psi in pure_pair(np.random.default_rng(10), 64, "haar"))
        assert run_helstrom(tmp_path, obj0, obj1, "--p0", "0.35") == 0
        assert eig_calls == []
        assert run_helstrom(tmp_path, obj0, obj1, "--p0", "0.35", "--povm") == 0
        assert eig_calls == [("eigh", 2)]


def float_texts(x):
    """JSON texts that read back as the float ``x``: the shortest, 17
    significant digits and 40 digits of its exact value (``json``'s
    ``Infinity`` for an infinity)."""
    if not math.isfinite(x):
        return st.just(json.dumps(x))
    return st.sampled_from([json.dumps(x), f"{x:.16e}", f"{Decimal(x):.39e}"])


@st.composite
def awkward_texts(draw):
    """JSON number texts a parser may round differently: an awkward,
    subnormal or any float in one of :func:`float_texts`' forms; a 17- to
    40-digit truncation of, or the exact tie between, a float and its
    neighbour towards 0; a random 40-digit decimal, down to the subnormals
    and beyond double range; an integer beyond 64 bits."""
    kind = draw(st.sampled_from(["float", "near-tie", "digits", "integer"]))
    if kind == "integer":
        return str(draw(st.integers(2**64, 2**300)) * draw(st.sampled_from([1, -1])))
    if kind == "digits":
        return f"{draw(st.integers(10**39, 10**40 - 1))}e{draw(st.integers(-365, 290))}"
    x = draw(st.one_of(
        st.sampled_from(AWKWARD_PARTS), st.floats(allow_nan=False), st.floats(-1e-307, 1e-307), st.floats(-1.0, 1.0),
    ))
    if kind == "float":
        return draw(float_texts(x))
    if not (math.isfinite(x) and x != 0.0):
        return json.dumps(x)
    tie = (Decimal(x) + Decimal(math.nextafter(x, 0.0))) / 2
    return f"{tie:e}" if draw(st.booleans()) else f"{tie:.{draw(st.integers(16, 39))}e}"


@st.composite
def state_files(draw):
    """``(text, valid)``: a state file in either wire format.  Either a
    valid random state written in :func:`float_texts`' forms, or one whose
    every number is from :func:`awkward_texts`, which hardly ever decodes to
    a state."""
    fmt = draw(st.sampled_from(["amplitudes", "entries"]))
    d_s, d_i = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    dim = d_s * d_i if fmt == "amplitudes" else draw(st.integers(1, 3))
    dims = [str, lambda d: f"{d}.0", lambda d: f"{d}e0"]
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        obj = random_state_object(rng, dim, ("amp", d_s, d_i) if fmt == "amplitudes" else ("rho", dim))
        parts = np.ravel(obj[fmt]).tolist()
        numbers, valid = [draw(float_texts(x)) for x in parts], True
    else:
        numbers, valid = [draw(awkward_texts()) for _ in range(2 * dim * (1 if fmt == "amplitudes" else dim))], False
    pairs = [f"[{re}, {im}]" for re, im in zip(numbers[::2], numbers[1::2])]
    if fmt == "amplitudes":
        head = f'"d_s": {draw(st.sampled_from(dims))(d_s)}, "d_i": {draw(st.sampled_from(dims))(d_i)}'
        body = ", ".join(pairs)
    else:
        head = f'"dim": {draw(st.sampled_from(dims))(dim)}'
        body = ", ".join(f"[{', '.join(pairs[r * dim:(r + 1) * dim])}]" for r in range(dim))
    return f'{{{head}, "{fmt}": [{body}]}}', valid


def json_numbers(value):
    """The numbers in a decoded JSON value, in document order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in json_numbers(item)]
    return [value]


class TestStateFileReading:
    """``cli._read_json`` reads a file with ``orjson`` as ``json`` reads
    it, number by number, and ``cli._load_density`` decodes a valid state
    to the array :func:`~qillum.states.density_from_dict` gives on
    ``json``'s reading, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=state_files())
    @example(case=('{"dim": 1, "entries": [[[1.7976931348623158e308, 0]]]}', False))
    @example(case=('{"dim": 1, "entries": [[[1e-400, -0.0]]]}', False))
    @example(case=('{"d_s": 2, "d_i": 1, "amplitudes": [[18446744073709551616, -0], [-9223372036854775809, 0]]}', False))
    @example(case=('{"d_s": 2, "d_i": 1, "amplitudes": [[2.4703282292062327e-324, 0], [1, 0]]}', True))
    def test_decodes_as_json_does(self, tmp_path_factory, case):
        text, valid = case
        path = tmp_path_factory.mktemp("state") / "state.json"
        path.write_text(text)
        want = json_numbers(json.loads(text))
        try:
            got = json_numbers(cli._read_json(str(path), "state"))
        except ValueError:  # strict JSON: json's reading holds an infinity (1e400 or Infinity)
            assert not all(map(math.isfinite, want))
            return
        # orjson reads an integer beyond 64 bits as its nearest float; repr tells every float's bits apart
        want = [float(x) if type(x) is int and not -2**63 <= x < 2**64 else x for x in want]
        assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]
        if valid:
            got = cli._load_density(str(path))
            want = density_from_dict(json.loads(text))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("template", [
        '{{"d_s": 2, "d_i": 1, "amplitudes": [[{}, 0], [0, 0]]}}',
        '{{"dim": {}, "entries": [[[1, 0]]]}}',
    ], ids=["amplitude", "dim"])
    def test_rejects_non_finite_when_read(self, tmp_path, capsys, literal, template):
        bad = tmp_path / "bad.json"
        bad.write_text(template.format(literal))
        argv = ["helstrom", "--state0", str(bad), "--state1", write_json(tmp_path / "ok.json", MIXED_2)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read state file {str(bad)!r}")
        assert captured.out == ""

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "1}")], ids=["arrays", "objects"])
    def test_nesting_bound_is_exact(self, tmp_path, opening, closing):
        """``MAX_JSON_DEPTH`` levels are parsed and one more is refused; a
        shallow text with more brackets than the bound is scanned and
        passes."""
        path = tmp_path / "nested.json"
        depth = cli.MAX_JSON_DEPTH
        path.write_text(opening * depth + closing + closing[-1] * (depth - 1))
        cli._read_json(str(path), "spectrum")
        path.write_text(opening * (depth + 1) + closing + closing[-1] * depth)
        with pytest.raises(ValueError, match=f"nested deeper than {depth}$"):
            cli._read_json(str(path), "spectrum")
        path.write_text("[" + "[0.5, 0], " * depth + "[0.5, 0]]")
        assert len(cli._read_json(str(path), "spectrum")) == depth + 1

    def test_orjson_is_imported_by_helstrom_only(self, tmp_path):
        """Importing ``cli`` and the runs that read no file, ``sweep`` and
        ``verify-bell``, leave ``orjson`` unimported, so its import time and
        memory stay out of them."""
        states = [write_json(tmp_path / "s0.json", BELL_2), write_json(tmp_path / "s1.json", MIXED_4)]
        script = f"""
import contextlib, io, sys
from qillum import cli
assert "orjson" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sweep", "--eta", "0.5", "--d", "2", "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
    assert "orjson" not in sys.modules
    assert cli.main(["verify-bell", "--d", "2", "--samples", "2", "--seed", "1"]) == 0
    assert "orjson" not in sys.modules
    assert cli.main(["helstrom", "--state0", {states[0]!r}, "--state1", {states[1]!r}]) == 0
assert "orjson" in sys.modules
"""
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr


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
        "no_format_key": '{"d_s": 2, "d_i": 1}',
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
        ["helstrom", "--state0", "{mixed_2}", "--state1", "{no_format_key}"],
    ], ids=[
        "dimension-mismatch", "helstrom-p0", "verify-bell-p0", "verify-bell-d-1",
        "verify-bell-samples-0", "verify-bell-eta-2", "verify-bell-eta-nan", "sweep-d-inf", "sweep-d-1e400",
        "spectrum-null", "spectrum-nested", "spectrum-strings", "spectrum-booleans",
        "spectrum-huge-int", "helstrom-dim-1e400", "helstrom-d_s-1e400",
        "helstrom-d_s-2.9", "helstrom-d_i-true", "helstrom-d_s-string", "helstrom-amplitude-booleans",
        "helstrom-dim-2.5", "helstrom-dim-string", "helstrom-entry-booleans",
        "helstrom-no-format-key",
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

    @pytest.mark.parametrize("etas", ["0.5,nan", "0.2,1.5", "0,-1e-300"])
    def test_any_bad_eta_in_an_array_is_rejected(self, tmp_path, capsys, etas):
        """The message names the first bad entry of an eta grid; NaN fails
        too."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", etas, "--d", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: eta must be in [0, 1], got {float(etas.split(',')[1])}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--eta", "0.5", "--d", "2,1", "--out", "{out}"], "signal dimension must be >= 2, got 1"),
        (["sweep", "--eta", "0.5", "--d", "2", "--priors", "1.5", "--out", "{out}"], "prior p0 must lie in [0, 1], got 1.5"),
        (["sweep", "--eta", "0.5", "--d", "2", "--priors", "nan", "--out", "{out}"], "prior p0 must lie in [0, 1], got nan"),
        # a bad parameter is named before any file is read, here a missing one (a bad eta: the manifest's case)
        (["helstrom", "--p0", "1.5", "--state0", "{missing}", "--state1", "{missing}"],
         "prior p0 must lie in [0, 1], got 1.5"),
        # a range is checked for a non-finite part before it is expanded
        (["sweep", "--eta=0:inf:1", "--d", "2", "--out", "{out}"], "range '0:inf:1': step must be finite, got inf"),
        (["sweep", "--eta=0:0.1:inf", "--d", "2", "--out", "{out}"], "range '0:0.1:inf': stop must be finite, got inf"),
        (["sweep", "--eta=-inf:1:0", "--d", "2", "--out", "{out}"], "range '-inf:1:0': start must be finite, got -inf"),
        (["sweep", "--eta=0:nan:1", "--d", "2", "--out", "{out}"], "range '0:nan:1': step must be finite, got nan"),
        # a value after its option that starts with "-" and is not a plain decimal is read as the value
        # (-inf: the manifest's verify_bell_eta_minus_inf)
        (["verify-bell", "--d", "3", "--samples", "3", "--seed", "1", "--eta", "-nan"], "eta must be in [0, 1], got nan"),
        (["verify-bell", "--d", "3", "--samples", "3", "--seed", "1", "--eta", "-1e-3"], "eta must be in [0, 1], got -0.001"),
        (["sweep", "--eta", "0.5", "--d", "2", "--priors", "-1e-3", "--out", "{out}"], "prior p0 must lie in [0, 1], got -0.001"),
        (["sweep", "--eta", "-0.5:0.1:0", "--d", "2", "--out", "{out}"], "eta must be in [0, 1], got -0.5"),
        (["sweep", "--eta", "0.5", "--d", "-2,3", "--out", "{out}"], "signal dimension must be >= 2, got -2"),
        (["verify-bell", "--d", "3", "--samples", "3", "--seed", "-1", "--eta", "0.5"], "seed must be >= 0, got -1"),
    ], ids=["sweep-d-1", "sweep-priors-1.5", "sweep-priors-nan", "helstrom-before-files",
            "range-step-inf", "range-stop-inf", "range-start-inf", "range-step-nan",
            "eta-minus-nan", "eta-minus-1e-3", "priors-minus-1e-3", "eta-minus-range", "d-minus-list",
            "seed-minus-1"])
    def test_names_the_bad_parameter(self, tmp_path, capsys, argv, message):
        out, missing = tmp_path / "sweep.csv", tmp_path / "missing.json"
        assert main([a.format(out=out, missing=missing) for a in argv]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {message}\n", "")
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, usage", [
        ("sweep", ["--eta", "0.5", "--d", "2", "--plot", "--out", "{out}"],
         "usage: qillum sweep [-h] --eta ETA --d D [--family FAMILY] [--priors P0] --out OUT"),
        ("helstrom", ["--state0", "{out}", "--state1", "{out}", "--plot"],
         "usage: qillum helstrom [-h] --state0 STATE0 --state1 STATE1 [--p0 P0] [--povm]"),
    ], ids=["sweep", "helstrom"])
    def test_unknown_option_gets_its_subcommands_usage(self, tmp_path, monkeypatch, capsys, command, argv, usage):
        """An unknown option is reported with the usage of the subcommand
        it was given to, not the top-level one, and nothing is run."""
        monkeypatch.setenv("COLUMNS", "120")  # argparse wraps the usage line to the terminal's width
        out = tmp_path / "sweep.csv"
        assert main([command, *(a.format(out=out) for a in argv)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0] == usage
        assert captured.err.endswith(f"qillum {command}: error: unrecognized arguments: --plot\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("family, text", [
        ("spectrum", DEEP),
        ("spectrum", DEEPEST_ARRAYS),
        ("state", DEEPEST_OBJECTS),
        ("state", f'{{"d_s": {DEEP}, "d_i": 1, "amplitudes": [[1, 0], [0, 0]]}}'),
        ("state", f'{{"dim": 1, "entries": [[[1, {DEEP}]]]}}'),
        ("state", f'{{"dim": 1, "entries": [[[0.0, {BIG}]]]}}'),
        ("state", f'{{"dim": 2, "entries": [[[{BIG}, 0], [0, 0]], [[0, 0], [{BIG}, 0]]]}}'),
        ("state", json.dumps(density_to_dict(np.diag([BIG, BIG, 0, 0, 0, 0, -BIG, -BIG]).astype(complex)))),
    ], ids=["spectrum-deep", "spectrum-deepest", "state-deepest", "d_s-deep", "entry-deep", "hermiticity-overflow",
            "trace-overflow", "trace-nan"])
    def test_exits_1_cleanly(self, tmp_path, capsys, family, text):
        """A value nested past the recursion limit or 10^6 deep, or entries
        whose Hermiticity defect or trace overflows, end in one ``error:``
        line: no traceback, no warning, from the shell and in-process."""
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if family == "spectrum":
            argv = ["sweep", "--eta", "0.5", "--d", "2", "--family", f"spectrum:{bad}", "--out", str(tmp_path / "x.csv")]
        else:
            argv = ["helstrom", "--state0", str(bad), "--state1", write_json(tmp_path / "ok.json", MIXED_2)]
        done = run_python("-m", "qillum.cli", *argv)
        assert done.returncode == 1
        assert re.fullmatch(r"error: [^\n]*\n", done.stderr), done.stderr
        assert main(argv) == 1  # pytest turns a warning into an exception here
        assert capsys.readouterr().err == done.stderr


# README's pure and mixed states, a spectrum, and one argv of each command that reads them
FUZZ_FILES = {**{name: json.loads(text) for name, text in README_STATES.items()}, "spec.json": [0.5, 0.3, 0.2]}
FUZZ_ARGVS = [
    ["sweep", "--eta", "0:0.5:1", "--d", "3,4", "--family", "bell", "--family", "spectrum:spec.json",
     "--family", "uniform-rank:2", "--priors", "0.4", "--out", "out.csv"],
    ["verify-bell", "--d", "3", "--samples", "4", "--seed", "1", "--eta", "0.5", "--p0", "0.3"],
    ["helstrom", "--state0", "bell.json", "--state1", "mixed.json", "--p0", "0.5", "--povm"],
]
# every rank, sample count and dimension these can make is at most 4, but a sweep's --d of 1e308, whose
# probes are still one weight or a file's entries
FUZZ_TOKENS = [
    "sweep", "verify-bell", "helstrom", "--eta", "--d", "--family", "--priors", "--out", "--samples", "--seed",
    "--p0", "--povm", "--state0", "--state1", "--plot", "bell.json", "mixed.json", "spec.json", "out.csv",
    "spectrum:spec.json", "spectrum:bell.json", "spectrum:missing.json", "uniform-rank:3", "uniform-rank:0",
    "uniform-rank:x", "bell", "0", "1", "2", "3", "-1", "0.5", "1.5", "nan", "-inf", "1e-3", "1e308", "5e-324",
    "0:0.5:1", "2:1:4", "4,2", "", "x",
]
FUZZ_VALUES = ["x", "0.5", True, None, [[0.5, 0]], [], {}, 1e308, 5e-324, 2**63, -1, 0, 2]
FUZZ_KEYS = ["d_s", "d_i", "dim", "amplitudes", "entries", "x"]


def json_paths(value, path=()):
    """The path of every node of a decoded JSON value, the root's first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


@st.composite
def mutated_json(draw, value):
    """``value`` after up to three mutations: a node dropped, replaced from
    :data:`FUZZ_VALUES`, or moved to a key from :data:`FUZZ_KEYS`."""
    value = json.loads(json.dumps(value))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(json_paths(value))))
        new = json.loads(json.dumps(draw(st.sampled_from(FUZZ_VALUES))))
        if not path:
            value = new
            continue
        *head, key = path
        parent = value
        for step in head:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "replace", "rename"]))
        if action == "drop":
            del parent[key]
        elif action == "replace" or isinstance(parent, list):
            parent[key] = new
        else:
            parent[draw(st.sampled_from(FUZZ_KEYS))] = parent.pop(key)
    return value


@st.composite
def fuzz_cases(draw):
    """Mutated :data:`FUZZ_FILES` as text, and an argv of
    :data:`FUZZ_ARGVS` with up to three tokens dropped, replaced or inserted
    from :data:`FUZZ_TOKENS`."""
    files = {name: json.dumps(draw(mutated_json(value))) for name, value in FUZZ_FILES.items()}
    argv = list(draw(st.sampled_from(FUZZ_ARGVS)))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(argv)))
        action, token = draw(st.sampled_from(["drop", "replace", "insert"])), draw(st.sampled_from(FUZZ_TOKENS))
        if action == "insert" or k == len(argv):
            argv.insert(k, token)
        elif action == "drop":
            del argv[k]
        else:
            argv[k] = token
    return files, argv


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(case=fuzz_cases())
    # a family's own error, which random mutations seldom reach
    @example(case=({name: json.dumps(value) for name, value in FUZZ_FILES.items()},
                   [*FUZZ_ARGVS[0][:-2], "--family", "uniform-rank:0", *FUZZ_ARGVS[0][-2:]]))
    def test_exits_0_1_or_2_with_one_message(self, case):
        """Mutated state and spectrum files and a mutated argv of any
        command: ``main`` returns 0, 1 or 2 and raises nothing, warnings
        included.  A failure prints exactly one message line, or argparse's
        usage and one error line, and a success nothing on stderr."""
        files, argv = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            for name, text in files.items():
                Path(name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), (code, argv)
        if code == 0:
            assert err == "", argv
        elif err.startswith("usage: qillum"):
            assert code == 1, err
            assert re.fullmatch(r"usage: qillum[^\n]*\n( [^\n]*\n)*qillum[^\n]*: error: [^\n]*\n", err), err
        else:
            assert re.fullmatch(r"(error|numerical verification failed): [^\n]*\n", err), err
            assert err.startswith("error") == (code == 1), (code, err)


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


class TestFixedTolerance:
    """Every check holds to ``DEFAULT_TOL``: no environment variable, ``QI_TOL``
    included, loosens any of them.  The ``helstrom_readme_example_with_qi_tol``
    case holds README's example to its golden under ``QI_TOL``."""

    def test_environment_changes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QI_TOL", "1")
        assert run_helstrom(tmp_path, pure_state_dict([[1.0], [1.0]]), MIXED_2) == 1
        assert "squared norm 2, expected 1" in capsys.readouterr().err
        spec = write_json(tmp_path / "spec.json", [0.5, 0.5005])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.5", "--d", "2", "--family", f"spectrum:{spec}", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: spectrum sums to 1.0005,")
        assert not out.exists()
