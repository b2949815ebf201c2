"""Benchmark of the ``qillum`` command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``.  The program is driven
through its public entry point ``qillum.cli.main(argv)`` in this process,
for whole passes over the workload's ops that fit in ``--seconds``.
Every output is checked against references the benchmark computes itself.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Op
times are the process's CPU time, scaled to a reference host speed by a
fixed probe run between passes (:class:`SpeedProbe`), so that a shared
host that lends the run less of a core does not read as a slower program.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, per item, from the traced passes; ``trace.overhead_s``
is the traced minus the untraced time per item.  ``--smoke`` shrinks every
workload to a size that runs in about a second.

The second-to-last line of stdout is a JSON report with the run
environment and every metric, including those that are not gated
(``op_s_tail``, ``error_rate``, ``max_abs_err``).  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

BLAS is pinned to one thread, and ``QI_TOL`` is removed from the
environment so the program runs at its default tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_PROBE_MODULES = (
    "json, decimal, email.mime.text, http.client, xml.dom.minidom, unittest, argparse, dataclasses"
)
#: CPU seconds a fresh interpreter takes to import SETUP_PROBE_MODULES on an
#: unloaded 2-vCPU x86_64 host (Python 3.11).
SETUP_PROBE_REF_S = 0.055
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
PER_ITEM_SUFFIXES = (".calls", ".s", ".self_s", ".flops", ".bytes_in", ".bytes_out")
#: Probe CPU time after a pass, as a share of the pass's CPU time.
PROBE_SHARE = 0.08
#: Least CPU time of one probe.
PROBE_MIN_S = 0.02


class SpeedProbe:
    """Fixed work that tracks how fast the host runs this process now.

    On a shared host the same op's CPU time moves by a factor of two within
    minutes as other tenants load the core, and code slows by how much it
    leans on what they share.  So the probe does the workload's kind of work,
    as its ``probe`` names it: ``(dim, calls, parses, ref_s)`` is ``calls``
    ``eigvalsh`` on a fixed complex Hermitian ``dim`` x ``dim`` matrix and
    ``parses`` parses of a fixed JSON list of 2304 complex pairs, and the
    CPU seconds that unit takes on an unloaded 2-vCPU x86_64 host (Python
    3.11, numpy with OpenBLAS on one thread).  It never calls ``qillum``.
    """

    def __init__(self, np, probe: tuple[int, int, int, float]):
        dim, self.calls, self.parses, self.ref_s = probe
        self.eigvalsh = np.linalg.eigvalsh
        rng = np.random.default_rng(0)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self.matrix = g + g.conj().T
        pairs = rng.standard_normal((2304, 2))
        self.doc = json.dumps(pairs.tolist())

    def unit(self) -> None:
        for _ in range(self.calls):
            self.eigvalsh(self.matrix)
        for _ in range(self.parses):
            sum(complex(re, im) for re, im in json.loads(self.doc))

    def slowdown(self, budget_s: float = 0.0) -> float:
        """CPU time per unit over ``ref_s``, from whole units run for about
        ``budget_s`` CPU seconds (at least :data:`PROBE_MIN_S`), after one
        untimed unit that warms the caches."""
        self.unit()
        n = 0
        c0 = time.process_time()
        while n == 0 or time.process_time() - c0 < max(budget_s, PROBE_MIN_S):
            self.unit()
            n += 1
        return (time.process_time() - c0) / n / self.ref_s


@dataclass
class Pass:
    """One untraced pass: items done, wall and CPU time of its ops, and the
    host slowdown the probe measured around it."""

    items: int
    wall_s: float
    op_cpu_s: list[float] = field(default_factory=list)
    slowdown: float = 1.0

    @property
    def items_per_s(self) -> float:
        return self.items * self.slowdown / sum(self.op_cpu_s)

    def op_s(self) -> list[float]:
        return [t / self.slowdown for t in self.op_cpu_s]


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, args, qi_tol_given) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "qi_tol_env": qi_tol_given,
    }


def cold_import_cpu_s(modules: str) -> float:
    """CPU seconds a fresh interpreter spends importing ``modules``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
        f"import {modules}; print(time.process_time() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout)


def measure_setup_s() -> list[float]:
    """Cold ``import qillum.cli`` in fresh interpreters, in CPU seconds
    scaled by the host slowdown that a cold import of fixed standard-library
    modules shows just before; one warm-up, then :data:`SETUP_REPEATS` timed
    imports.  Import time follows this probe, not :class:`SpeedProbe`."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        slowdown = cold_import_cpu_s(SETUP_PROBE_MODULES) / SETUP_PROBE_REF_S
        times.append(cold_import_cpu_s("qillum.cli") / slowdown)
    return times[1:]


def tail(times: list[float]) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-n * p // 100))  # nearest rank
        value = ordered[int(rank) - 1]
        beyond = sum(t > value for t in ordered)
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": value, "unit": "s", "percentile": p, "beyond": beyond, "n": n}
    return {"value": None, "unit": "s", "percentile": None, "beyond": 0, "n": n,
            "note": f"too few ops for a tail with {TAIL_MIN_BEYOND} samples beyond it"}


class Runner:
    """Runs ops through the CLI, times them, checks their outputs."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_abs_err = 0.0
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.items: dict[bool, int] = {False: 0, True: 0}
        self.passes: list[Pass] = []  # untraced ones
        self.last_cpu = 0.0
        self.first = None  # (op, output) of the first op run
        self.bytes_in = 0
        self.bytes_out = 0

    def call(self, argv: list[str], traced: bool) -> tuple[int | None, str, float]:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if traced:
                self.tracer.active = True
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed op; keep measuring
                rc = None
                err.write(traceback.format_exc())
            self.last_cpu = time.process_time() - c0
            elapsed = time.perf_counter() - t0
            if traced:
                self.tracer.active = False
        if rc != 0 and err.getvalue():
            self.failures.append(err.getvalue().strip().splitlines()[-1])
        return rc, out.getvalue(), elapsed

    def invoke(self, op, traced: bool) -> tuple[int | None, str, str, float]:
        """Call the op with fresh output files; return the exit code, stdout,
        stdout followed by the output files' text, and the op time."""
        for path in op.outputs:
            path.unlink(missing_ok=True)
        rc, stdout, elapsed = self.call(op.argv, traced)
        output = stdout + "".join(p.read_text() for p in op.outputs if p.exists())
        return rc, stdout, output, elapsed

    def run(self, op, traced: bool) -> tuple[str, float]:
        rc, stdout, output, elapsed = self.invoke(op, traced)
        self.attempted += 1
        self.times[traced].append(elapsed)
        self.items[traced] += op.items
        if traced:
            self.bytes_in += sum(p.stat().st_size for p in op.inputs)
            self.bytes_out += len(output.encode())
        try:
            self.max_abs_err = max(self.max_abs_err, op.check(rc, stdout))
        except Exception as exc:  # any failed check is a failed op
            self.failed += 1
            self.failures.append(f"{op.argv[0]}: {type(exc).__name__}: {exc}")
        return output, elapsed

    def run_pass(self, ops, traced: bool) -> Pass:
        """Run ops in order; return (and, untraced, record) the pass."""
        result = Pass(sum(op.items for op in ops), 0.0)
        for op in ops:
            output, t = self.run(op, traced)
            result.wall_s += t
            result.op_cpu_s.append(self.last_cpu)
            if self.first is None:
                self.first = (op, output)
        if not traced:
            self.passes.append(result)
        return result

    def repeat(self, op, first_output: str) -> None:
        """Re-run an op untimed and require byte-identical output."""
        self.attempted += 1
        rc, _, output, _ = self.invoke(op, traced=False)
        if rc != 0 or output != first_output:
            self.failed += 1
            self.failures.append(f"{op.argv[0]}: repeated run with the same inputs gave different output")


def run_workload(workload, seconds: float, runner: Runner, trace: bool, probe: SpeedProbe | None) -> None:
    """Whole passes for at most ``seconds``: a pass is not started when the
    previous one shows it would end past the limit.  At least one pass runs,
    or, with tracing, one untraced and one traced pass; they alternate, and
    every traced pass replays the inputs of pass 1, so traced counts per
    item do not depend on how many passes fit.  With a probe, each untraced
    pass is followed by one, and takes the mean slowdown of the probes
    before and after it."""
    start = time.perf_counter()
    before = probe.slowdown() if probe else 1.0
    last_pass = 0.0
    k = 0
    while k < (2 if trace else 1) or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        traced = trace and k % 2 == 1
        done = runner.run_pass(workload.pass_ops(1 if traced else k), traced)
        if probe and not traced:
            after = probe.slowdown(PROBE_SHARE * sum(done.op_cpu_s))
            done.slowdown = (before + after) / 2
            before = after
        last_pass = time.perf_counter() - pass_start
        k += 1
    runner.repeat(*runner.first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    qi_tol_given = os.environ.pop("QI_TOL", None)
    if not (SRC / "qillum" / "cli.py").is_file():
        print(f"error: no qillum sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import numpy as np

    import qillum
    import qillum.cli as cli
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    if Path(qillum.__file__).resolve().parent != SRC / "qillum":
        print(f"error: imported qillum from {qillum.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup_s()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    tracer = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        if args.trace:
            tracer = Tracer()
            modules = {}
            for layer in LAYERS:
                try:
                    modules[layer] = importlib.import_module(f"qillum.{layer}")
                except ImportError:
                    continue
            tracer.install(modules, [qillum, *modules.values()])
        runner = Runner(cli, tracer)
        probe = None if args.trace else SpeedProbe(np, workload.probe)
        run_workload(workload, args.seconds, runner, bool(args.trace), probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    report = {"env": environment(np, args, qi_tol_given), "items": workload.items_label,
              "failures": runner.failures[:5]}
    if args.trace:
        n = runner.items[True]
        overhead = sum(runner.times[True]) / n - sum(runner.times[False]) / runner.items[False]
        totals = {"cli.bytes_in": runner.bytes_in, "cli.bytes_out": runner.bytes_out}
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = totals[name] if name in totals else tracer.value(name)
                if name.endswith(PER_ITEM_SUFFIXES):
                    value /= n
            metrics[name] = {"value": value, "unit": m["unit"]}
        report["spans_per_item"] = {
            name: {"calls": s["calls"] / n, "s": s["s"] / n} for name, s in tracer.spans().items()
        }
        report["metrics"] = metrics
    else:
        passes = runner.passes
        times = [t for p in passes for t in p.op_s()]
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": statistics.median(p.items_per_s for p in passes),
            "op_s_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        report["metrics"] = {
            **metrics,
            "op_s_tail": tail(times),
            "wall_items_per_s": {"value": statistics.median(p.items / p.wall_s for p in passes),
                                 "unit": "1/s"},
            "wall_op_s_p50": {"value": statistics.median(runner.times[False]), "unit": "s"},
            "host_slowdown": {"value": statistics.median(p.slowdown for p in passes), "unit": "ratio"},
            "error_rate": {"value": runner.failed / runner.attempted, "unit": "ratio",
                           "failed": runner.failed, "attempted": runner.attempted},
            "max_abs_err": {"value": runner.max_abs_err, "unit": "abs"},
        }
    print(json.dumps(report))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
