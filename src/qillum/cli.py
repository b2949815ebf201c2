"""Command-line front end: parameter sweeps, optimality verification and
one-off minimum-error queries on states stored as JSON files.

The parsers are built on the first :func:`main` call and reused for the
process.  An argv whose first argument names a subcommand goes straight
to that subcommand's parser, found in the ``choices`` of the top-level
parser's subcommand action, as the top-level parse would hand it over
(which takes every argument after the name for the subcommand, ``-h``
too); any other argv (none, ``-h`` or ``--help`` first, an unknown name)
is parsed by the top-level parser, for its help or its usage error.
Every input file is parsed by :func:`_read_json` with ``orjson``
as strict JSON (``NaN``, ``Infinity`` and literals beyond double range
fail there), once it is known to nest no deeper than
:data:`MAX_JSON_DEPTH`.  ``sweep`` writes
:func:`~qillum.analysis.run_sweep`'s table as CSV under
:data:`~qillum.analysis.SWEEP_COLUMNS`, each cell through
:data:`_fmt` (``"%.12g" % x``), its ASCII bytes in one binary write.
A ``--family`` is a probe's Schmidt weights and their number of copies,
built once a sweep (Bell's at each dimension): one weight for ``bell``
and ``uniform-rank:<r>``, read from a JSON list for ``spectrum:<file>``.
``helstrom`` decodes two state files in either wire format of
:mod:`~qillum.states` by :func:`~qillum.states.density_from_dict` (a pure
state to its amplitude vector), diagonalizes the pair once
(:func:`~qillum.discrimination.diagonalize`: two pure states in a 2x2
problem, any other pair in one dense eigensolve) and prints the error
through :data:`_fmt`; with ``--povm`` it also prints the optimal
measurement, from the same decomposition, once it has checked that the
measurement attains the error (so no NaN or infinity is printed), as
:func:`~qillum.states.densities_to_json` writes it: ``orjson``'s compact JSON.

Every user parameter is checked here once, before any file is read, and
the modules below take it unchecked: ``eta`` and ``p0`` in ``[0, 1]`` and
``d`` at least 2, NaN failing each (:func:`_check_parameters`); ``--d``
integral, at most :data:`MAX_VERIFY_DIM` for ``verify-bell``;
``--samples`` at least 1 and at most :data:`MAX_VERIFY_SAMPLES`; ``--seed``
at least 0; a sweep at most :data:`MAX_SWEEP_ROWS` rows.  Then each
family is checked against the smallest ``--d`` (:func:`parse_family`),
before any probe is evaluated.
``helstrom --povm`` prints a measurement of at most :data:`MAX_POVM_DIM`
dimensions, checked once both states are read, before any eigensolve.

Exit codes: 0 success, 1 validation or usage error (``ValueError``,
``OSError``), 2 numerical-verification failure (``VerificationError``).
A run that runs out of memory (an oversized dimension) also exits 1.  One
fixed validation tolerance, :data:`~qillum.states.DEFAULT_TOL` (1e-9),
holds for stored states (``helstrom``, whose ``--povm`` check allows
``dim`` times it), for the Schmidt weights of ``verify-bell``'s samples
and for the sum of a ``sweep`` ``spectrum:`` file; no setting changes it.
``sweep``'s ``bell`` and ``uniform-rank`` probes are exact, and ``sweep``
holds its two overlap routes to a fixed agreement bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .states import DEFAULT_TOL, densities_to_json, density_from_dict, require_numbers, schmidt_probe
from .discrimination import diagonalize, helstrom_error, optimal_povm
from .analysis import SWEEP_COLUMNS, VerificationError, run_sweep, verify_bell_optimality

CSV_HEADER = ",".join(SWEEP_COLUMNS)
#: Largest number of rows (eta x dimension x family) one sweep may have, so
#: also of points a ``start:step:stop`` range may expand to.
MAX_SWEEP_ROWS = 10_000
#: Largest dimension ``helstrom --povm`` prints a measurement for: two dense
#: ``dim x dim`` complex matrices as text, at about 270 bytes of peak memory an
#: entry (over 1 GiB at 2048 dimensions).  The error alone has no cap.
MAX_POVM_DIM = 2048
#: Largest ``--d`` ``verify-bell`` samples at: one sample takes about 40 d^2
#: bytes (its normals, its amplitudes and the ``svd``'s workspace), 0.7 GB at the cap.
MAX_VERIFY_DIM = 4096
#: Largest ``--samples`` of ``verify-bell``, whose seeds, 4 bytes a sample, are
#: drawn before the first sample (40 MB at the cap).
MAX_VERIFY_SAMPLES = 10**7


#: Deepest nesting of JSON arrays and objects an input file may have (a valid one has 4):
#: orjson recurses a level at a time, and 10^6 levels overflow its stack (SIGSEGV).
MAX_JSON_DEPTH = 1 << 14
#: ``bytes.translate`` arguments that keep a text's brackets, ``[{`` as the byte +1 and ``]}`` as -1.
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff"), bytes(sorted(set(range(256)) - set(b"[{]}")))


#: A float to 12 significant figures, as ``format(x, ".12g")`` writes it: every printed number's formatter.
_fmt = "%.12g".__mod__


def number(text: str) -> float:
    """``float(text)``, with ``-0`` read as ``0`` so that no output echoes it."""
    return float(text) + 0.0


def parse_float_grid(text: str) -> list[float]:
    """Parse '0,0.5,1' or 'start:step:stop' (stop inclusive within step/2).

    A range's start, step and stop are finite, and it may expand to at most
    :data:`MAX_SWEEP_ROWS` points.  Point ``k`` is ``start + k step`` on the
    decimals written (``repr``), rounded once: ``0:0.1:1`` gives ``0.3``.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop, got {text!r}")
        try:
            start, step, stop = (number(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"non-numeric range {text!r}") from exc
        for name, value in zip(("start", "step", "stop"), (start, step, stop)):
            if not math.isfinite(value):
                raise ValueError(f"range {text!r}: {name} must be finite, got {value}")
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        from decimal import Context, Decimal, localcontext  # here, not at module level: only a range needs it
        values, v, origin, unit = [], start, Decimal(repr(start)), Decimal(repr(step))
        with localcontext(Context(prec=800)):  # exact: start + k step on two doubles' decimals has < 700 digits
            while v <= stop + step / 2:
                if len(values) == MAX_SWEEP_ROWS:
                    raise ValueError(f"range {text!r} has more than {MAX_SWEEP_ROWS} points")
                values.append(v)
                v = float(origin + len(values) * unit)
        if not values:
            raise ValueError(f"range {text!r} is empty")
        return values
    try:
        values = [number(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"non-numeric list {text!r}") from exc
    if not values:
        raise ValueError("grid must be non-empty")
    return values


def parse_int_grid(text: str) -> list[int]:
    values = parse_float_grid(text)
    for v in values:
        if not (math.isfinite(v) and v == int(v)):
            raise ValueError(f"expected integers, got {v}")
    return [int(v) for v in values]


def _check_parameters(etas, dims, p0: float) -> None:
    """Raise ``ValueError`` naming the first ``eta`` outside ``[0, 1]``, the
    first signal dimension below 2, or a prior ``p0`` outside ``[0, 1]``;
    NaN fails each."""
    for values, ok, rule in (
        (etas, lambda x: 0.0 <= x <= 1.0, "eta must be in [0, 1]"),
        (dims, lambda x: x >= 2, "signal dimension must be >= 2"),
        ([p0], lambda x: 0.0 <= x <= 1.0, "prior p0 must lie in [0, 1]"),
    ):
        bad = [x for x in values if not ok(x)]
        if bad:
            raise ValueError(f"{rule}, got {bad[0]}")


def parse_family(text: str, d_s: int) -> tuple[np.ndarray, int] | None:
    """The probe :func:`~qillum.analysis.run_sweep` takes for the family
    ``text``, at most ``d_s`` (the smallest signal dimension) weights wide,
    as its weights and their number of copies: ``None`` for ``bell``;
    ``([1/rank], rank)`` for ``uniform-rank:<rank>``, at O(1) for any rank;
    ``(schmidt_probe(spectrum), 1)`` for a ``spectrum:`` file, each entry a
    weight of its own (:func:`~qillum.states.schmidt_probe` checks the
    sum)."""
    if text == "bell":
        return None
    if text.startswith("uniform-rank:"):
        try:
            rank = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad rank in {text!r}") from exc
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank > d_s:
            raise ValueError(f"rank {rank} exceeds the signal dimension {d_s}")
        return np.array([1.0 / rank]), rank
    if text.startswith("spectrum:"):
        path = text.split(":", 1)[1]
        spectrum = _read_json(path, "spectrum")
        if not isinstance(spectrum, list) or not spectrum:
            raise ValueError(f"spectrum file {path!r} must hold a non-empty list")
        try:
            require_numbers(spectrum)
        except ValueError as exc:
            raise ValueError(f"spectrum file {path!r}: {exc}") from exc
        if len(spectrum) > d_s:
            raise ValueError(f"spectrum length {len(spectrum)} not in [1, {d_s}]")
        return schmidt_probe(spectrum), 1
    raise ValueError(f"unknown family {text!r}; use bell, uniform-rank:<r> or spectrum:<file>")


def render_sweep_csv(table) -> str:
    """A checked sweep table as CSV: each cell, a Python float, through one :data:`_fmt` call."""
    cells = map(_fmt, table.ravel().tolist())  # zip(*[cells] * n) deals them out in rows of n
    return "\n".join([CSV_HEADER, *map(",".join, zip(*[cells] * table.shape[1])), ""])


def cmd_sweep(args) -> int:
    etas = parse_float_grid(args.eta)
    dims = parse_int_grid(args.d)
    names = args.family or ["bell"]
    _check_parameters(etas, dims, args.p0)
    n_rows = len(etas) * len(dims) * len(names)
    if n_rows > MAX_SWEEP_ROWS:
        raise ValueError(f"grid has {n_rows} rows, more than {MAX_SWEEP_ROWS}")
    families = [parse_family(f, min(dims)) for f in names]
    table = run_sweep(etas, dims, families, p0=args.p0)
    with open(args.out, "wb") as out:  # the CSV is ASCII: its bytes, with no text layer
        out.write(render_sweep_csv(table).encode("ascii"))
    return 0


def cmd_verify_bell(args) -> int:
    _check_parameters([args.eta], [args.d], args.p0)
    if args.d > MAX_VERIFY_DIM:
        raise ValueError(f"verify-bell samples at most {MAX_VERIFY_DIM} dimensions, got {args.d}")
    if args.samples < 1:
        raise ValueError(f"need at least one sample, got {args.samples}")
    if args.samples > MAX_VERIFY_SAMPLES:
        raise ValueError(f"verify-bell draws at most {MAX_VERIFY_SAMPLES} samples, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    report = verify_bell_optimality(args.d, args.samples, args.seed, eta=args.eta, p0=args.p0)
    print(json.dumps(vars(report), indent=2, sort_keys=True))  # its fields, all scalars: no copy
    return 0


def _read_json(path: str, what: str):
    """The value in the JSON file ``path``, parsed by ``orjson`` unless its
    brackets, those in strings too, nest deeper than :data:`MAX_JSON_DEPTH`.
    Only a file with more opening brackets than that is scanned, so no dense
    state up to dimension 127 is."""
    from orjson import loads  # here, not at module level: a run that reads no file never imports it

    try:
        data = Path(path).read_bytes()
        chars = np.frombuffer(data, dtype=np.uint8)  # numpy counts a vector at a time, bytes.count a byte
        if np.count_nonzero(chars == ord("[")) + np.count_nonzero(chars == ord("{")) > MAX_JSON_DEPTH:
            steps = np.frombuffer(data.translate(*_BRACKET_STEPS), dtype=np.int8)
            if np.cumsum(steps, dtype=np.int64).max() > MAX_JSON_DEPTH:
                raise ValueError(f"nested deeper than {MAX_JSON_DEPTH}")
        return loads(data)
    except (OSError, ValueError) as exc:  # orjson's error subclasses json's, a ValueError
        raise ValueError(f"cannot read {what} file {path!r}: {exc}") from exc


def _load_density(path: str):
    obj = _read_json(path, "state")
    try:
        return density_from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"invalid state in {path!r}: {exc}") from exc


def _check_povm_error(state0, state1, p0: float, povm, error: float) -> None:
    """Raise :class:`VerificationError` unless the measurement ``povm``
    attains ``error``, ``p0 Tr[rho0 E1] + p1 Tr[rho1 E0]``, within ``dim *
    DEFAULT_TOL`` (:func:`optimal_povm`'s slack) plus ``16 dim`` float
    steps.  A trace of a product of Hermitian matrices is one ``vdot``, and
    ``Tr[rho E] = <psi|E|psi>`` for a pure state's amplitude vector: O(dim^2)."""
    e0, e1 = povm
    attained = float(p0 * _expectation(state0, e1) + (1.0 - p0) * _expectation(state1, e0))
    gap, bound = abs(attained - error), len(state0) * (DEFAULT_TOL + 16.0 * np.finfo(float).eps)
    if not gap <= bound:
        raise VerificationError(
            f"the measurement attains error {attained!r}, not {error!r}: gap {gap:.3e} > bound {bound:.3e}"
        )


def _expectation(state, e) -> float:
    if state.ndim == 2:
        return np.vdot(e, state).real
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or infinite E: the gap check fails
        return np.vdot(state, e @ state).real


def cmd_helstrom(args) -> int:
    _check_parameters([], [], args.p0)
    state0 = _load_density(args.state0)
    state1 = _load_density(args.state1)
    if len(state0) != len(state1):
        raise ValueError(f"dimension mismatch: {len(state0)} vs {len(state1)}")
    if args.povm and len(state0) > MAX_POVM_DIM:
        raise ValueError(f"--povm prints at most {MAX_POVM_DIM} dimensions, got {len(state0)}; "
                         "the error alone, without --povm, has no cap")
    spectrum = diagonalize(state0, state1, args.p0, vectors=args.povm)
    error = helstrom_error(spectrum)
    lines = [_fmt(error)]
    if args.povm:
        povm = optimal_povm(spectrum)
        del spectrum  # the eigenvectors go before the measurement is encoded
        _check_povm_error(state0, state1, args.p0, povm, error)
        lines.append(densities_to_json(povm))
    print("\n".join(lines))
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subcommands' parsers by name (the
    ``choices`` of its subcommand action), each of which sets ``func`` to
    its command and ``parser`` to itself."""
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
    sweep.add_argument("--priors", dest="p0", type=number, default=0.5, metavar="P0")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify-bell", help="sample random inputs against the entangled reference")
    verify.add_argument("--d", type=int, required=True)
    verify.add_argument("--samples", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--eta", type=number, default=0.5)
    verify.add_argument("--p0", type=number, default=0.5)
    verify.set_defaults(func=cmd_verify_bell)

    hel = sub.add_parser("helstrom", help="minimum error probability for two stored states")
    hel.add_argument("--state0", required=True)
    hel.add_argument("--state1", required=True)
    hel.add_argument("--p0", type=number, default=0.5)
    hel.add_argument("--povm", action="store_true", help="also print the optimal measurement")
    hel.set_defaults(func=cmd_helstrom)
    for command in sub.choices.values():  # argparse's own reads -inf, -nan and -1e-3 as options
        command._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
        command.set_defaults(parser=command)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:  # the top-level parse would hand it the rest, unread
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
        else:
            args, extra = parser.parse_known_args(argv)
        if extra:  # parse_args would name them with the top-level usage, not the subcommand's
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except VerificationError as exc:  # a ValueError, so caught first
        print(f"numerical verification failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
