"""Span tracer for the benchmark's traced mode.

The tracer wraps public functions of the package in place.  A function is
replaced in every module of the package that holds a reference to it (so
``from .terms import evaluate`` in ``catalog``, ``descriptors`` and
``transforms`` is traced too), and a method is replaced under every name its
class binds it to (``Polynomial.__rmul__`` is an alias of ``__mul__``).

Each call records one span: name, start, end and the span that was open when
it began (its parent).  Spans stay in memory, in flat arrays, until the run
ends and :meth:`Tracer.write` stores them.  Call counts and self time (a
span's duration minus the time its child spans cover) are accumulated per
name as spans close.  A name the tracer cannot find is recorded as missing,
never as zero calls.

Span file layout: one JSON header line (names, span count, array type codes),
then the four arrays ``name``, ``parent``, ``start_ns`` and ``end_ns`` in
that order, each ``count`` items in native byte order.  ``parent`` is -1 for
a span opened at the top level.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.missing: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._child_ns = [0]
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        """The package's modules: each may hold its own reference to a function."""
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self, name: str, module_name: str, qualname: str, on_return=None) -> bool:
        """Wrap ``module_name.qualname`` under the metric name ``name``.

        ``on_return`` is called with each return value, outside the span's
        timing.  Returns False (and records the name as missing) when the
        callable does not exist.
        """
        *owner_path, attr = qualname.split(".")
        owner = sys.modules.get(module_name)
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.missing.append(name)
            return False
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        wrapper = self._wrap(original, index, on_return)
        for holder in [owner] if owner_path else self._modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, wrapper)
        return True

    def _wrap(self, fn, index: int, on_return):
        now = time.perf_counter_ns
        stack, child_ns = self._stack, self._child_ns
        calls, self_ns = self.calls, self.self_ns
        names_append = self.span_name.append
        parents_append = self.span_parent.append
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            span = len(starts)
            names_append(index)
            parents_append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(span)
            child_ns.append(0)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                inner = child_ns.pop()
                duration = t1 - t0
                starts[span] = t0
                ends[span] = t1
                calls[index] += 1
                self_ns[index] += duration - inner
                child_ns[-1] += duration
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": ["name", "parent", "start_ns", "end_ns"],
            "typecodes": [a.typecode for a in arrays],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(handle)
