"""Command-line front end: parameter sweeps, optimality verification and
one-off minimum-error queries on states stored as JSON files.

Exit codes: 0 success, 1 validation or usage error, 2 numerical-verification
failure.  The ``QI_TOL`` environment variable overrides the default
validation tolerance of 1e-9; it must be a finite number above 0, else the
run stops with exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .states import DEFAULT_TOL, density_from_dict, density_to_dict, state_from_dict
from .discrimination import helstrom_error, optimal_povm
from .analysis import (
    StateFamily,
    SweepRecord,
    VerificationError,
    bell_family,
    fixed_spectrum_family,
    run_sweep,
    uniform_rank_family,
    verify_bell_optimality,
)

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRecord))
MARGIN_FLOOR = -1e-9
#: Largest number of points a ``start:step:stop`` range may expand to.
MAX_RANGE_POINTS = 10_000


class CliError(Exception):
    """Invalid configuration or input; maps to exit code 1."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def parse_float_grid(text: str) -> list[float]:
    """Parse '0,0.5,1' or 'start:step:stop' (stop inclusive within step/2).

    A range may expand to at most :data:`MAX_RANGE_POINTS` points.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"range must be start:step:stop, got {text!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise CliError(f"non-numeric range {text!r}") from exc
        if step <= 0:
            raise CliError(f"range step must be positive, got {step}")
        values = []
        v = start
        while v <= stop + step / 2:
            if len(values) == MAX_RANGE_POINTS:
                raise CliError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
            values.append(v)
            v = start + step * len(values)
        if not values:
            raise CliError(f"range {text!r} is empty")
        return values
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise CliError(f"non-numeric list {text!r}") from exc
    if not values:
        raise CliError("grid must be non-empty")
    return values


def parse_int_grid(text: str) -> list[int]:
    values = parse_float_grid(text)
    ints = []
    for v in values:
        if not (math.isfinite(v) and abs(v - round(v)) <= 1e-9):
            raise CliError(f"expected integers, got {v}")
        ints.append(int(round(v)))
    return ints


def parse_family(text: str) -> StateFamily:
    if text == "bell":
        return bell_family()
    if text.startswith("uniform-rank:"):
        try:
            rank = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad rank in {text!r}") from exc
        return uniform_rank_family(rank)
    if text.startswith("spectrum:"):
        path = text.split(":", 1)[1]
        try:
            spectrum = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read spectrum file {path!r}: {exc}") from exc
        if not isinstance(spectrum, list) or not spectrum:
            raise CliError(f"spectrum file {path!r} must hold a non-empty list")
        try:
            values = [float(x) for x in spectrum]
        except (TypeError, ValueError) as exc:
            raise CliError(f"spectrum file {path!r} must hold numbers: {exc}") from exc
        return fixed_spectrum_family(values)
    raise CliError(f"unknown family {text!r}; use bell, uniform-rank:<r> or spectrum:<file>")


def render_sweep_csv(records) -> str:
    """Format validated records as CSV."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) for v in dataclasses.astuple(r)))
    return "\n".join(lines) + "\n"


def render_gnuplot_script(csv_path: Path, dims: list[int]) -> str:
    png = csv_path.with_suffix(".png").name
    lines = [
        "# Overlap and minimum error probability versus eta, one curve per dimension.",
        'set datafile separator ","',
        "set terminal pngcairo size 1200,500",
        f'set output "{png}"',
        "set multiplot layout 1,2",
        'set xlabel "eta"',
        "set key outside",
        'set ylabel "normalized overlap"',
    ]
    h01_curves = ", \\\n  ".join(
        f'"{csv_path.name}" skip 1 using 1:($2=={d}?$6:1/0) with linespoints title "overlap d_s={d}"'
        for d in dims
    )
    p_curves = ", \\\n  ".join(
        f'"{csv_path.name}" skip 1 using 1:($2=={d}?$7:1/0) with linespoints title "p_err d_s={d}"'
        for d in dims
    )
    lines.append(f"plot {h01_curves}")
    lines.append('set ylabel "error probability"')
    lines.append(f"plot {p_curves}")
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def cmd_sweep(args, tol: float) -> int:
    etas = parse_float_grid(args.eta)
    dims = parse_int_grid(args.d)
    families = [parse_family(f) for f in (args.family or ["bell"])]
    try:
        records = run_sweep(etas, dims, families, p0=args.p0, tol=tol)
    except VerificationError as exc:
        print(f"numerical verification failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = Path(args.out)
    out.write_text(render_sweep_csv(records))
    if args.plot:
        gp = out.with_suffix(".gp")
        gp.write_text(render_gnuplot_script(out, dims))
    return 0


def cmd_verify_bell(args, tol: float) -> int:
    if args.d < 2:
        raise CliError(f"dimension must be >= 2, got {args.d}")
    if args.samples < 1:
        raise CliError(f"need at least one sample, got {args.samples}")
    if not 0.0 <= args.eta <= 1.0:
        raise CliError(f"eta must be in [0, 1], got {args.eta}")
    report = verify_bell_optimality(
        args.d, args.d, args.samples, args.seed, eta=args.eta, p0=args.p0, tol=tol
    )
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    if report.margin < MARGIN_FLOOR:
        return 2
    return 0


def _load_density(path: str, tol: float):
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read state file {path!r}: {exc}") from exc
    try:
        if isinstance(obj, dict) and "amplitudes" in obj:
            return state_from_dict(obj, tol).density(tol)
        if isinstance(obj, dict) and "entries" in obj:
            return density_from_dict(obj, tol)
    except ValueError as exc:
        raise CliError(f"invalid state in {path!r}: {exc}") from exc
    raise CliError(f"{path!r} holds neither a pure state nor a density matrix")


def cmd_helstrom(args, tol: float) -> int:
    rho0 = _load_density(args.state0, tol)
    rho1 = _load_density(args.state1, tol)
    print(_fmt(helstrom_error(rho0, rho1, args.p0)))
    if args.povm:
        povm = optimal_povm(rho0, rho1, args.p0, tol)
        print(json.dumps([density_to_dict(e) for e in povm], sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Distinguishability of single-photon illumination channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid and write CSV")
    sweep.add_argument("--eta", required=True, help="comma list or start:step:stop")
    sweep.add_argument("--d", required=True, help="signal dimensions, comma list or range")
    sweep.add_argument(
        "--family",
        action="append",
        help="bell | uniform-rank:<r> | spectrum:<file>; repeatable (default bell)",
    )
    sweep.add_argument("--priors", dest="p0", type=float, default=0.5, metavar="P0")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.add_argument("--plot", action="store_true", help="also write a gnuplot script")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify-bell", help="sample random inputs against the entangled reference")
    verify.add_argument("--d", type=int, required=True)
    verify.add_argument("--samples", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--eta", type=float, default=0.5)
    verify.add_argument("--p0", type=float, default=0.5)
    verify.set_defaults(func=cmd_verify_bell)

    hel = sub.add_parser("helstrom", help="minimum error probability for two stored states")
    hel.add_argument("--state0", required=True)
    hel.add_argument("--state1", required=True)
    hel.add_argument("--p0", type=float, default=0.5)
    hel.add_argument("--povm", action="store_true", help="also print the optimal measurement")
    hel.set_defaults(func=cmd_helstrom)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        tol = float(os.environ.get("QI_TOL", DEFAULT_TOL))
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        print("error: QI_TOL must be a finite number above 0", file=sys.stderr)
        return 1
    try:
        return args.func(args, tol)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
