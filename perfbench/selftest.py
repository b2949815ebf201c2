"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at smoke size (``--smoke``), so the whole file takes
well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = {"linalg.eig.flops", "linalg.eig.max_dim", "cli.bytes_in", "cli.bytes_out"}

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seconds: float = 0, seed: int = 5) -> tuple[dict, dict]:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    report, result = proc.stdout.splitlines()[-2:]
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for m in spec:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        for name in ("op_s_tail", "error_rate", "max_abs_err"):
            assert report["metrics"][name]["unit"]
        assert report["metrics"]["error_rate"]["value"] == 0
        assert report["metrics"]["max_abs_err"]["value"] <= 1e-9
    assert report["env"]["blas_threads"] == 1 and report["env"]["seed"] == 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    # different run lengths give different numbers of passes; counts per
    # item must not depend on it
    _, first = smoke(workload, 1, seconds=0)
    _, second = smoke(workload, 1, seconds=0.5)
    counts = [n for n in first["metrics"] if n.endswith(".calls") or n in COUNT_METRICS]
    assert len(counts) >= 10
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_scaled_times_do_not_depend_on_host_speed():
    fast = run.Pass(100, 1.0, [0.25, 0.5], slowdown=1.0)
    slow = run.Pass(100, 3.0, [0.5, 1.0], slowdown=2.0)
    assert slow.items_per_s == fast.items_per_s == 100 / 0.75
    assert slow.op_s() == fast.op_s() == [0.25, 0.5]
    probe = run.SpeedProbe(np, (8, 2, 1, 1e-3))
    assert 0 < probe.slowdown() < 100


def test_tracer_tolerates_missing_and_picks_up_new_functions():
    layer = types.ModuleType("fake.illumination")
    caller = types.ModuleType("fake.discrimination")

    def kernel(m):
        return np.linalg.eigvalsh(m)

    kernel.__module__ = layer.__name__
    layer.kernel = caller.kernel = kernel
    original_eigvalsh = np.linalg.eigvalsh
    tracer = Tracer()
    tracer.install({"illumination": layer}, [layer, caller])
    try:
        tracer.active = True
        caller.kernel(np.eye(3))
        tracer.active = False
        caller.kernel(np.eye(4))  # inactive: not recorded
    finally:
        tracer.uninstall()
    assert caller.kernel is kernel and np.linalg.eigvalsh is original_eigvalsh
    assert tracer.value("illumination.kernel.calls") == 1
    assert tracer.value("illumination.ci_baseline.calls") == 0
    assert tracer.value("illumination.ci_baseline.s") == 0
    assert tracer.value("linalg.eig.calls") == 1
    assert tracer.value("linalg.eig.flops") == 27
    assert tracer.value("linalg.eig.max_dim") == 3
    assert tracer.value("linalg.eig.useful_ratio") == 0
    assert tracer.value("illumination.self_s") > 0


def _tamper_sweep(cli, monkeypatch):
    monkeypatch.setattr(cli, "_fmt", lambda x: format(float(x), ".6g"))


def _tamper_helstrom(cli, monkeypatch):
    real = cli.helstrom_error
    monkeypatch.setattr(cli, "helstrom_error", lambda problem, tol: real(problem, tol) + 1e-6)


def _tamper_povm(cli, monkeypatch):
    real = cli.optimal_povm

    def swapped(problem, tol):
        povm = real(problem, tol)
        return type(povm)(povm.elements[::-1], tol)

    monkeypatch.setattr(cli, "optimal_povm", swapped)


def _tamper_haar(cli, monkeypatch):
    real = cli.verify_bell_optimality

    def shifted(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, bell_p_err=report.bell_p_err + 1e-6)

    monkeypatch.setattr(cli, "verify_bell_optimality", shifted)


@pytest.mark.parametrize("workload, tamper", [
    ("sweep-dense", _tamper_sweep),
    ("helstrom-io", _tamper_helstrom),
    ("helstrom-io", _tamper_povm),
    ("verify-haar", _tamper_haar),
])
def test_wrong_output_counts_as_failed(workload, tamper, monkeypatch, capsys):
    import qillum.cli as cli

    for var in (*run.BLAS_THREAD_VARS, "QI_TOL"):  # run.main edits these; restore them afterwards
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    tamper(cli, monkeypatch)
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
