"""Per-layer spans around the calls into ``qillum``, recorded from outside.

:class:`Tracer` replaces, for the duration of a run, every public function
of each layer module with a timing wrapper, in every module namespace that
holds a reference to it (``analysis`` imports ``helstrom_error`` by name,
for example).  ``__init__`` of each public class with a hand-written or
generated constructor is wrapped on the class, so ``DensityMatrix`` and
``Povm`` constructions are spans of their own.  The dense spectral
primitives ``numpy.linalg.{eigh,eigvalsh,svd}`` are wrapped as one span,
``linalg.eig``, that also counts matrix sizes.

Functions are found by name when the tracer is installed, so a function
added to a layer is traced without changes here, and a function that no
longer exists simply has no span (it reads as 0 calls).

Spans nest: a span's self time is its duration minus the durations of the
spans it directly caused, and self time is summed per layer.  Nothing is
recorded while :attr:`Tracer.active` is false, so the benchmark's own
reference computations never count.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

LAYERS = ("cli", "analysis", "illumination", "discrimination", "states", "linalg")
EIG_SPAN = "linalg.eig"
EIG_FUNCTIONS = ("eigh", "eigvalsh", "svd")
#: eig calls made beneath these spans produce a reported number.
USEFUL_SPANS = frozenset({"discrimination.helstrom_error", "discrimination.optimal_povm"})


class _Frame:
    __slots__ = ("name", "layer", "start", "child_s")

    def __init__(self, name: str, layer: str, start: float):
        self.name = name
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class Tracer:
    """In-memory span aggregation: calls and total time per span name,
    self time per layer, and size statistics of the eig primitive."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.eig_useful = 0
        self.eig_flops = 0
        self.eig_max_dim = 0
        self._stack: list[_Frame] = []
        self._useful_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _push(self, name: str, layer: str) -> None:
        if name in USEFUL_SPANS:
            self._useful_depth += 1
        self._stack.append(_Frame(name, layer, time.perf_counter()))

    def _pop(self) -> None:
        frame = self._stack.pop()
        dur = time.perf_counter() - frame.start
        if frame.name in USEFUL_SPANS:
            self._useful_depth -= 1
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        self.total_s[frame.name] = self.total_s.get(frame.name, 0.0) + dur
        self.self_s[frame.layer] = self.self_s.get(frame.layer, 0.0) + dur - frame.child_s
        if self._stack:
            self._stack[-1].child_s += dur

    def _wrap(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._push(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop()

        return traced

    def _wrap_eig(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            shape = np.shape(args[0] if args else kwargs.get("a"))
            if len(shape) >= 2:
                rows, cols = shape[-2:]
                flops = rows * cols * min(rows, cols) if kind == "svd" else cols**3
                tracer.eig_flops += int(np.prod(shape[:-2], dtype=np.int64)) * flops
                tracer.eig_max_dim = max(tracer.eig_max_dim, rows, cols)
            if tracer._useful_depth:
                tracer.eig_useful += 1
            tracer._push(EIG_SPAN, "linalg")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop()

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers: dict, namespaces) -> None:
        """Wrap the public functions and constructors of ``layers``.

        ``layers`` maps a layer name to its module; ``namespaces`` are all
        modules whose references to those functions (or to the numpy
        primitives) must be redirected to the wrappers.
        """
        replacements = {}  # id of the original -> wrapper; originals stay alive in their modules
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj)
                elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("__init__")):
                    init = vars(obj)["__init__"]
                    self._patch(obj, "__init__", self._wrap(f"{layer}.{name}", layer, init))
        for kind in EIG_FUNCTIONS:
            original = getattr(np.linalg, kind)
            wrapper = self._wrap_eig(original, kind)
            replacements[id(original)] = wrapper
            self._patch(np.linalg, kind, wrapper)
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._patch(module, name, replacements[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting -------------------------------------------------------

    def value(self, name: str) -> float:
        """Raw total for a per-layer metric name; absent spans read as 0.

        ``<layer>.self_s`` is a layer's self time; ``<span>.calls`` and
        ``<span>.s`` are a span's call count and total time;
        ``linalg.eig.{flops,max_dim,useful_ratio}`` describe the eig
        primitive.  Unknown names raise ``KeyError``.
        """
        if name == f"{EIG_SPAN}.flops":
            return self.eig_flops
        if name == f"{EIG_SPAN}.max_dim":
            return self.eig_max_dim
        if name == f"{EIG_SPAN}.useful_ratio":
            calls = self.calls.get(EIG_SPAN, 0)
            return self.eig_useful / calls if calls else 0.0
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in LAYERS:
            return self.self_s.get(head, 0.0)
        if tail == "calls":
            return self.calls.get(head, 0)
        if tail == "s":
            return self.total_s.get(head, 0.0)
        raise KeyError(name)

    def spans(self) -> dict:
        """Every recorded span: calls and total seconds, by name."""
        return {n: {"calls": self.calls[n], "s": self.total_s[n]} for n in sorted(self.calls)}
