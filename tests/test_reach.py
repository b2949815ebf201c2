"""Every public function and hand-written method of ``states``,
``discrimination``, ``analysis`` and ``cli`` is reached from the command
line.

Code that only tests reach does not belong in the package: a builder or an
oracle the tests need lives in ``conftest``.  The commands are traced with
``sys.setprofile`` and every code object entered is recorded.  Methods that
``dataclass`` generates are not written in the module's source and are not
checked; of the dunder methods only ``__init__`` is.
"""

import inspect
import json
import sys

import pytest

from qillum import analysis, cli, discrimination, states

BELL_2 = {
    "d_s": 2,
    "d_i": 2,
    "amplitudes": [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]],
}
MIXED_4 = {
    "dim": 4,
    "entries": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
}


def written_code(module):
    """Code objects of the module's public functions, and of the public
    methods, properties and ``__init__`` of its classes, by qualified name."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[name] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                    found[f"{name}.{attr}"] = member.__code__
    return found


def test_cli_reaches_every_public_function(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([0, 0.52, 0.01, 0.47]))
    pure = tmp_path / "pure.json"
    pure.write_text(json.dumps(BELL_2))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(MIXED_4))
    commands = [
        ["sweep", "--eta", "0:0.5:1", "--d", "4,5", "--family", "bell", "--family", "uniform-rank:2",
         "--family", f"spectrum:{spec}", "--priors", "0.3", "--out", str(tmp_path / "sweep.csv")],
        ["verify-bell", "--d", "3", "--samples", "5", "--seed", "1"],
        ["helstrom", "--state0", str(pure), "--state1", str(mixed), "--povm"],
    ]

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in commands[:-1]]
        monkeypatch.setattr(sys, "argv", ["qillum", *commands[-1]])
        with pytest.raises(SystemExit) as done:
            cli.console_main()
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0, 0] and done.value.code == 0

    expected = {}
    for module in (states, discrimination, analysis, cli):
        expected.update(
            (f"{module.__name__}.{name}", code) for name, code in written_code(module).items()
        )
    assert "qillum.states.density_from_dict" in expected
    assert "qillum.analysis.OptimalityReport.__init__" not in expected  # generated
    assert "qillum.cli.console_main" in expected
    unreached = sorted(name for name, code in expected.items() if code not in entered)
    assert unreached == []
