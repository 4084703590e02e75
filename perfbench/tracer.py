"""Outside-in span tracer for the timepovm layers.

The tracer wraps the public functions and public methods of each layer
module from outside the package, so the package source stays untouched.
A module that imported a wrapped function by name (``from .linalg import
hermitian_eigh``) holds its own reference to the original, so install()
rebinds every such name in every loaded ``timepovm`` module; otherwise
calls made inside the package would escape the trace.  Classes are shared
objects, so their methods are wrapped once, on the class.

Spans live in memory as ``[name, start, end, parent]`` rows (parent is the
index of the enclosing span, -1 at the root) and are written out once,
when the traced process ends.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

# layer modules whose public surface (``__all__``) is wrapped; the ``cli``
# layer is covered by the launcher's own ``cli.import`` and ``cli.command``
# spans, because its public surface is the entry point itself
PACKAGE = "timepovm"
WRAPPED_LAYERS = ("formats", "model", "dilation", "uncertainty", "variational", "special", "linalg")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and public method of WRAPPED_LAYERS."""
        wrappers = {}
        for layer in WRAPPED_LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{obj.__name__}.{meth}", fn))
                elif callable(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                # the originals stay referenced, so an id match is identity
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        """Undo every patch, newest first, so each name gets its original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def self_times(spans) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts a span only when no ancestor has the same name,
    so recursion is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            entry["s"] += end - start
    return out
