"""Seeded workloads for the ``qillum`` CLI and the checks of their outputs.

Each workload turns a seed into a list of CLI invocations (:class:`Op`) per
pass, writes any input files it needs, and checks every output against
reference values it computes itself with plain numpy, never through
``qillum``.  References are computed when the workload is built, before
anything is timed.

A check raises :class:`CheckFailed` or returns the largest deviation of a
reported number from its reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Largest accepted deviation of a reported number from its reference.
CHECK_TOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with the benchmark's reference."""


@dataclass
class Op:
    """One CLI invocation: its argv, how many items it completes, the files
    it reads and writes, and the check of its exit code and stdout."""

    argv: list[str]
    items: int
    check: Callable[[int, str], float]
    inputs: list[Path] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)


def _near(name: str, got: float, want: float, tol: float = CHECK_TOL) -> float:
    err = abs(got - want)
    if not err <= tol:
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r} (|diff| {err:.3e} > {tol:.1e})")
    return err


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def dense_helstrom(rho0: np.ndarray, rho1: np.ndarray, p0: float) -> float:
    """Minimum error probability ``(1 - ||p0 rho0 - p1 rho1||_1) / 2``."""
    w = np.linalg.eigvalsh(p0 * rho0 - (1.0 - p0) * rho1)
    return float(min(max(0.5 * (1.0 - np.sum(np.abs(w))), 0.0), 1.0))


def h01_closed(eta: float, d_s: int, k_i: float) -> float:
    return 1.0 / np.sqrt(1.0 + eta**2 * (d_s * k_i - 1.0))


# ---------------------------------------------------------------------------
# sweep-dense


def _flat_probe(d_s: int, rank: int) -> np.ndarray:
    """Amplitudes (signal-major) of sum_m |m>|m> / sqrt(rank) on d_s x rank."""
    amp = np.zeros((d_s, rank), dtype=complex)
    amp[np.arange(rank), np.arange(rank)] = 1.0 / np.sqrt(rank)
    return amp


def _sweep_reference(eta: float, d_s: int, family: str) -> dict:
    """Reference row: closed forms where they exist, dense trace norm else.

    ``bell`` is the flat probe of rank d_s, ``uniform-rank:r`` that of rank
    r; both have k_i equal to the rank.  The unentangled baseline error
    ``(1 - eta (1 - 1/d_s)) / 2`` holds for any input at p0 = 1/2.
    """
    rank = d_s if family == "bell" else int(family.split(":")[1])
    row = {
        "eta": eta,
        "d_s": d_s,
        "d_i": rank,
        "k_i": float(rank),
        "h01_closed": h01_closed(eta, d_s, rank),
        "h01_direct": h01_closed(eta, d_s, rank),
        "p_err_ci": 0.5 * (1.0 - eta * (1.0 - 1.0 / d_s)),
        "advantage": h01_closed(eta, d_s, 1.0) - h01_closed(eta, d_s, rank),
    }
    if family == "bell":
        row["p_err"] = 0.5 * (1.0 - eta * (1.0 - 1.0 / d_s**2))
    else:
        a = _flat_probe(d_s, rank)
        psi = a.reshape(-1)
        phi_i = a.T @ a.conj()
        absent = np.kron(np.eye(d_s) / d_s, phi_i)
        present = eta * np.outer(psi, psi.conj()) + (1.0 - eta) * absent
        row["p_err"] = dense_helstrom(present, absent, 0.5)
    return row


CSV_COLUMNS = ("eta", "d_s", "d_i", "k_i", "h01_closed", "h01_direct", "p_err", "p_err_ci", "advantage")


class SweepDense:
    """``sweep`` over eta x d_s x {bell, uniform-rank}: 40 rows per op.

    The bell rows at d_s = 16 and 24 are dense 256- and 576-dimensional
    eigenproblems.  The seed permutes the order of the dimensions and the
    families on the command line, which permutes the rows but not the work.
    """

    items_label = "rows"
    #: The speed probe (``run.SpeedProbe``): an eigenproblem the size of the
    #: bell rows at d_s = 24, which outgrows the caches.
    probe = (576, 1, 0, 0.0745)

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        if smoke:
            self.eta_arg, self.etas = "0:0.5:1", [0.0, 0.5, 1.0]
            self.dims, self.families = [2, 3], ["bell", "uniform-rank:2"]
        else:
            self.eta_arg, self.etas = "0:0.25:1", [0.0, 0.25, 0.5, 0.75, 1.0]
            self.dims, self.families = [4, 8, 16, 24], ["bell", "uniform-rank:4"]
        self.seed = seed
        self.out = workdir / "sweep.csv"
        self.reference = {
            (eta, d, f): _sweep_reference(eta, d, f)
            for eta in self.etas
            for d in self.dims
            for f in self.families
        }

    def pass_ops(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        dims = [self.dims[i] for i in rng.permutation(len(self.dims))]
        families = [self.families[i] for i in rng.permutation(len(self.families))]
        argv = ["sweep", "--eta", self.eta_arg, "--d", ",".join(map(str, dims))]
        for f in families:
            argv += ["--family", f]
        argv += ["--out", str(self.out)]
        expected = [self.reference[(e, d, f)] for e in self.etas for d in dims for f in families]

        def check(rc: int, stdout: str) -> float:
            _require(rc == 0, f"exit code {rc}")
            lines = self.out.read_text().splitlines()
            _require(lines[0] == ",".join(CSV_COLUMNS), f"header {lines[0]!r}")
            _require(len(lines) - 1 == len(expected), f"{len(lines) - 1} rows, expected {len(expected)}")
            worst = 0.0
            for line, ref in zip(lines[1:], expected):
                cells = line.split(",")
                _require(len(cells) == len(CSV_COLUMNS), f"row {line!r}")
                for col, cell in zip(CSV_COLUMNS, cells):
                    if col in ("d_s", "d_i"):
                        _require(cell == str(ref[col]), f"{col}={cell} in row {line!r}, expected {ref[col]}")
                    else:
                        worst = max(worst, _near(f"{col} in row {line!r}", float(cell), ref[col]))
            return worst

        return [Op(argv, len(expected), check, outputs=[self.out])]


# ---------------------------------------------------------------------------
# verify-haar


class VerifyHaar:
    """``verify-bell --d 8 --samples 100``: many small (64-dim) problems.

    Each op gets its own seed, drawn from the benchmark seed.  The checks
    bind only what holds for any sampling scheme: the bell reference equals
    its closed form, no sample beats it, and the margins are consistent.
    """

    items_label = "samples"
    #: The speed probe (``run.SpeedProbe``): small eigenproblems and
    #: interpreter work, like the per-sample work.
    probe = (96, 6, 3, 0.0105)
    eta = 0.5
    p0 = 0.5

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.d, self.samples = (3, 5) if smoke else (8, 100)
        self.seed = seed
        self.bell_h01 = h01_closed(self.eta, self.d, self.d)
        self.bell_p_err = 0.5 * (1.0 - self.eta * (1.0 - 1.0 / self.d**2))

    def pass_ops(self, k: int) -> list[Op]:
        op_seed = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        argv = ["verify-bell", "--d", str(self.d), "--samples", str(self.samples), "--seed", str(op_seed)]

        def check(rc: int, stdout: str) -> float:
            _require(rc == 0, f"exit code {rc}")
            r = json.loads(stdout)
            expected_keys = {
                "d_s", "d_i", "n_samples", "seed", "eta", "p0", "bell_h01", "bell_p_err",
                "best_sampled_h01", "best_sampled_p_err", "margin_h01", "margin_p_err", "margin",
            }
            _require(set(r) == expected_keys, f"report keys {sorted(r)}")
            _require(
                (r["d_s"], r["d_i"], r["n_samples"], r["seed"], r["eta"], r["p0"])
                == (self.d, self.d, self.samples, op_seed, self.eta, self.p0),
                f"report echoes wrong parameters: {r}",
            )
            worst = max(
                _near("bell_h01", r["bell_h01"], self.bell_h01),
                _near("bell_p_err", r["bell_p_err"], self.bell_p_err),
            )
            _require(self.bell_h01 - CHECK_TOL <= r["best_sampled_h01"] <= 1.0 + CHECK_TOL,
                     f"best_sampled_h01 {r['best_sampled_h01']} outside [bell, 1]")
            _require(self.bell_p_err - CHECK_TOL <= r["best_sampled_p_err"] <= 0.5 + CHECK_TOL,
                     f"best_sampled_p_err {r['best_sampled_p_err']} outside [bell, 1/2]")
            _near("margin_h01", r["margin_h01"], r["best_sampled_h01"] - r["bell_h01"], 1e-15)
            _near("margin_p_err", r["margin_p_err"], r["best_sampled_p_err"] - r["bell_p_err"], 1e-15)
            _near("margin", r["margin"], min(r["margin_h01"], r["margin_p_err"]), 0.0)
            return worst

        return [Op(argv, self.samples, check)]


# ---------------------------------------------------------------------------
# helstrom-io

# (dim, state0, state1): ("amp", d_s, d_i) is a pure state in the
# `amplitudes` format, ("rho", rank) a density matrix of that rank in the
# `entries` format.
HELSTROM_PAIRS = [
    (32, ("amp", 8, 4), ("rho", 3)),
    (32, ("rho", 32), ("rho", 1)),
    (48, ("rho", 48), ("amp", 6, 8)),
    (64, ("amp", 8, 8), ("amp", 16, 4)),
    (64, ("rho", 2), ("rho", 64)),
    (96, ("amp", 12, 8), ("rho", 5)),
    (96, ("rho", 96), ("rho", 48)),
]
HELSTROM_PAIRS_SMOKE = [
    (4, ("amp", 2, 2), ("rho", 2)),
    (6, ("rho", 6), ("amp", 3, 2)),
    (8, ("rho", 1), ("amp", 4, 2)),
]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _write_state(rng: np.random.Generator, dim: int, spec: tuple, path: Path) -> np.ndarray:
    """Write a random state of the given kind; return its density matrix.

    Floats are written with ``json``'s shortest round-trip repr, so the
    returned matrix is exactly what the CLI reads back.
    """
    if spec[0] == "amp":
        _, d_s, d_i = spec
        amp = _ginibre(rng, d_s * d_i, 1).reshape(-1)
        amp /= np.linalg.norm(amp)
        obj = {"d_s": d_s, "d_i": d_i, "amplitudes": [[z.real, z.imag] for z in amp.tolist()]}
        rho = np.outer(amp, amp.conj())
    else:
        g = _ginibre(rng, dim, spec[1])
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho = 0.5 * (rho + rho.conj().T)
        obj = {"dim": dim, "entries": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}
    path.write_text(json.dumps(obj))
    return rho


def _parse_povm_element(obj: dict, dim: int) -> np.ndarray:
    _require(obj["dim"] == dim, f"POVM element dim {obj['dim']}, expected {dim}")
    e = np.array([[complex(re, im) for re, im in row] for row in obj["entries"]])
    _require(e.shape == (dim, dim), f"POVM element shape {e.shape}")
    return e


class HelstromIo:
    """``helstrom --povm`` on seeded JSON state files, one query per op.

    The pairs mix the two wire formats, dimensions 32 to 96 and ranks from
    1 to full; they have no Schmidt structure.  The seed draws the states
    and the priors; the list of shapes is fixed so that every seed costs the
    same.  The printed error is checked against a dense trace norm, and the
    printed measurement against the error it attains.
    """

    items_label = "queries"
    #: The speed probe (``run.SpeedProbe``): eigenproblems the size of the
    #: largest pairs, and JSON parsing, like the CLI's I/O.
    probe = (96, 6, 3, 0.0105)

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        self.ops = []
        for n, (dim, spec0, spec1) in enumerate(HELSTROM_PAIRS_SMOKE if smoke else HELSTROM_PAIRS):
            paths = [workdir / f"pair{n}_state{j}.json" for j in (0, 1)]
            rho0 = _write_state(rng, dim, spec0, paths[0])
            rho1 = _write_state(rng, dim, spec1, paths[1])
            p0 = round(float(rng.uniform(0.2, 0.8)), 6)
            argv = ["helstrom", "--state0", str(paths[0]), "--state1", str(paths[1]), "--p0", repr(p0), "--povm"]
            check = self._checker(rho0, rho1, p0, dense_helstrom(rho0, rho1, p0))
            self.ops.append(Op(argv, 1, check, inputs=paths))

    @staticmethod
    def _checker(rho0: np.ndarray, rho1: np.ndarray, p0: float, p_ref: float):
        dim = rho0.shape[0]

        def check(rc: int, stdout: str) -> float:
            _require(rc == 0, f"exit code {rc}")
            lines = stdout.splitlines()
            _require(len(lines) == 2, f"{len(lines)} output lines, expected 2")
            p_err = float(lines[0])
            err = _near("p_err", p_err, p_ref)
            elements = json.loads(lines[1])
            _require(len(elements) == 2, f"{len(elements)} POVM elements, expected 2")
            e0, e1 = (_parse_povm_element(obj, dim) for obj in elements)
            for name, e in (("E0", e0), ("E1", e1)):
                _near(f"{name} Hermiticity defect", float(np.max(np.abs(e - e.conj().T))), 0.0)
                w_min = float(np.linalg.eigvalsh(e)[0])
                _require(w_min >= -CHECK_TOL, f"{name} not positive: min eigenvalue {w_min:.3e}")
            _near("E0 + E1 - I", float(np.max(np.abs(e0 + e1 - np.eye(dim)))), 0.0)
            attained = p0 * np.real(np.trace(rho0 @ e1)) + (1.0 - p0) * np.real(np.trace(rho1 @ e0))
            _near("error attained by the POVM", float(attained), p_err, dim * CHECK_TOL)
            return err

        return check

    def pass_ops(self, k: int) -> list[Op]:
        return self.ops


WORKLOADS = {"sweep-dense": SweepDense, "verify-haar": VerifyHaar, "helstrom-io": HelstromIo}
