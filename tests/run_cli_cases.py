"""The command-line cases of ``tests/data/cli_cases.json``: their loader,
their checks, and a runner that runs every case through a given command.

Each case is one ``qillum`` command line, run in an empty working
directory of its own.  Its keys:

- ``name`` and ``why``: a unique name, and one line on what the case holds;
- ``argv``: the arguments after the command;
- ``files``: the input files written before the run, by name, each as its
  text, as ``{"pieces": [[text, count], ...]}`` (each text repeated
  ``count`` times, all joined: an input too large to write out) or as
  ``{"data": name}`` (a copy of a file in ``tests/data/``);
- ``env``: variables set on top of the caller's environment;
- ``exit``: the exit code (default 0);
- ``stdout``, and each file of ``outputs`` by name: its bytes, as
  ``{"golden": name}`` (a file in ``tests/data/``), ``{"text": text}`` or
  ``{"sha256": digest}``; stdout is empty by default;
- ``stderr``: all of stderr but its final newline, empty by default;
- ``absent``: files the run must not leave;
- ``process``: when true, tier-1 runs the case through ``python -m
  qillum.cli`` in a subprocess, not through ``cli.main`` in its own
  process, which a crash of the run (a signal) would end.

Tier-1 runs every case in process (``tests/test_cli.py``).  To run every
case through a command instead, as CI does with the installed script::

    PYTHONPATH=src python tests/run_cli_cases.py --command "python -m qillum.cli"
    python tests/run_cli_cases.py --command qillum
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "cli_cases.json"
REQUIRED_KEYS = {"name", "why", "argv"}
KEYS = REQUIRED_KEYS | {"files", "env", "exit", "stdout", "outputs", "stderr", "absent", "process"}


def load_cases() -> list[dict]:
    return json.loads(MANIFEST.read_text())


def _data_files(case) -> set[str]:
    """The files of ``tests/data/`` a case copies as input or compares to."""
    specs = [*case.get("files", {}).values(), case.get("stdout", {}), *case.get("outputs", {}).values()]
    return {spec.get("data") or spec.get("golden") for spec in specs if isinstance(spec, dict)} - {None}


def validate(cases) -> list[str]:
    """What is wrong with the manifest: a missing or unknown key, a repeated
    case name, a named file missing from ``tests/data/``, or a file there
    that no case names and no test module mentions."""
    problems, names, used = [], [case.get("name") for case in cases], {MANIFEST.name}
    for case in cases:
        problems += [f"{case.get('name')}: no key {key!r}" for key in sorted(REQUIRED_KEYS - set(case))]
        problems += [f"{case.get('name')}: unknown key {key!r}" for key in sorted(set(case) - KEYS)]
        problems += [f"{case.get('name')}: no file tests/data/{name}" for name in sorted(_data_files(case))
                     if not (DATA / name).is_file()]
        used |= _data_files(case)
    problems += [f"case name {name!r} repeats" for name in sorted({n for n in names if names.count(n) > 1})]
    tests = "".join(path.read_text() for path in sorted(DATA.parent.glob("*.py")) if path.name != Path(__file__).name)
    problems += [f"tests/data/{path.name} is used by no case and no test" for path in sorted(DATA.iterdir())
                 if path.name not in used and path.name not in tests]
    return problems


def _input_bytes(spec) -> bytes:
    if isinstance(spec, str):
        return spec.encode()
    if "pieces" in spec:
        return "".join(text * count for text, count in spec["pieces"]).encode()
    return (DATA / spec["data"]).read_bytes()


def run_case(case, command=None) -> list[str]:
    """How one run of ``case`` differs from what it expects: run through
    ``command``, an argv list, if given; else through ``cli.main`` in this
    process, or, for a ``process`` case, through ``python -m qillum.cli``
    on the ``qillum`` this process imports."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for name, spec in case.get("files", {}).items():
            (cwd / name).write_bytes(_input_bytes(spec))
        if command is not None:
            result = _run_process(command, case, cwd)
        elif case.get("process"):
            import qillum

            result = _run_process([sys.executable, "-m", "qillum.cli"], case, cwd, Path(qillum.__file__).parents[1])
        else:
            result = _run_main(case, cwd)
        return _check(case, *result, cwd)


def _run_main(case, cwd):
    from qillum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, case.get("env", {})), contextlib.chdir(cwd):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"])
    return code, out.getvalue().encode(), err.getvalue().encode()


def _run_process(command, case, cwd, src=None):
    """``command`` with the case's argv in ``cwd``, in :func:`process_env`."""
    done = subprocess.run([*command, *case["argv"]], cwd=cwd, env=process_env(case.get("env", {}), src),
                          capture_output=True)
    return done.returncode, done.stdout, done.stderr


def process_env(env, src=None) -> dict:
    """The caller's environment with ``env`` on top, and the entries of
    ``PYTHONPATH``, ``src`` first, made absolute, so that a subprocess run
    in another directory imports the same ``qillum``."""
    env = {**os.environ, **env}
    paths = [os.path.abspath(path) for path in [src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)] if path]
    if paths:
        env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _check(case, code, out, err, cwd) -> list[str]:
    """How a run's exit code, stdout, stderr and files in ``cwd`` differ from the case's."""
    want_code = case.get("exit", 0)
    want_err = (case["stderr"] + "\n").encode() if "stderr" in case else b""
    problems = [f"exit {code}, expected {want_code}"] if code != want_code else []
    if err != want_err:
        problems.append(f"stderr {err.decode(errors='replace')!r}, expected {want_err.decode()!r}")
    problems += _differs("stdout", out, case.get("stdout", {"text": ""}))
    for name, spec in case.get("outputs", {}).items():
        path = cwd / name
        problems += _differs(name, path.read_bytes(), spec) if path.is_file() else [f"{name} was not written"]
    problems += [f"{name} exists" for name in case.get("absent", []) if (cwd / name).exists()]
    return problems


def _differs(what, data, spec) -> list[str]:
    if "golden" in spec:
        same, want = data == (DATA / spec["golden"]).read_bytes(), f"tests/data/{spec['golden']}"
    elif "text" in spec:
        same, want = data == spec["text"].encode(), repr(spec["text"])
    else:
        same, want = hashlib.sha256(data).hexdigest() == spec["sha256"], f"sha256 {spec['sha256']}"
    return [] if same else [f"{what} {data[:200]!r} ({len(data)} bytes) differs from {want}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every case of tests/data/cli_cases.json through a command.")
    parser.add_argument("--command", required=True,
                        help='the command each case\'s argv follows, split as a shell splits it, e.g. "python -m '
                             'qillum.cli" or qillum')
    command = shlex.split(parser.parse_args(argv).command)
    cases = load_cases()
    problems = validate(cases)
    for problem in problems:
        print(f"manifest: {problem}")
    failed = 0
    for case in cases:
        found = run_case(case, command)
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok  '} {case['name']}", *(f"     {p}" for p in found), sep="\n")
    print(f"{len(cases) - failed} of {len(cases)} cases passed")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
