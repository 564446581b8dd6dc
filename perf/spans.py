"""In-memory span recorder and the timing wrappers that feed it.

The benchmark measures the program's layers *from outside*: a traced run
installs thin wrappers over public callables, at every name a caller
looks them up under, and removes them again afterwards.  Spans stay in
memory and are written out once, when the run ends.

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the id of
the enclosing span on the same thread (-1 for none) and ``op`` names the
operation that caused it (``step:12``, ``merge:3``, ``serve.merge:job-000007``).
"""

from __future__ import annotations

import itertools
import sys
import threading
from time import perf_counter
from typing import Any, Callable

__all__ = ["Recorder"]

_MISSING = object()


class Recorder:
    """Collects spans from wrappers and from explicit ``begin``/``end`` pairs."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, str | None]] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- per-thread state -----------------------------------------------------

    def _stack(self) -> list:
        tls = self._tls
        try:
            return tls.stack
        except AttributeError:
            tls.stack = []
            tls.op = None
            return tls.stack

    def set_op(self, op: str | None) -> None:
        """Name the operation that spans on this thread belong to from now on."""
        self._stack()
        self._tls.op = op

    # -- explicit spans -------------------------------------------------------

    def begin(self, name: str) -> None:
        """Open a span on this thread; wrapped calls made until ``end`` nest in it."""
        stack = self._stack()
        stack.append((next(self._ids), name, perf_counter()))

    def end(self) -> float:
        """Close the innermost open span and return its duration in seconds."""
        end = perf_counter()
        stack = self._tls.stack
        sid, name, start = stack.pop()
        parent = stack[-1][0] if stack else -1
        self.spans.append((sid, name, start, end, parent, self._tls.op))
        return end - start

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, op_of: Callable | None = None) -> Callable:
        """A callable that runs ``fn`` inside a span called ``name``.

        ``op_of(*args)`` names the operation for the duration of the call;
        it is how a server worker thread learns which job it is running.
        """
        ids, spans, stack_of, tls = self._ids, self.spans, self._stack, self._tls

        def traced(*args, **kwargs):
            stack = stack_of()
            if op_of is not None:
                tls.op = op_of(*args)
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name, 0.0))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, tls.op))

        traced.__wrapped__ = fn
        return traced

    def patch_attr(self, owner: Any, attr: str, name: str, op_of: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (an instance method, or a function on a class)."""
        own = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr) if own is _MISSING or not isinstance(owner, type) else own
        self._undo.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, target, op_of))

    def patch_function(self, fn: Callable, name: str, op_of: Callable | None = None) -> int:
        """Wrap a module-level function under every ``repro`` name bound to it.

        ``from x import f`` copies the binding into the importing module,
        so the wrapper has to replace each copy to be seen by that caller.
        Returns how many bindings were replaced.
        """
        traced = self.wrap(name, fn, op_of)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)
                    replaced += 1
        return replaced

    def unpatch(self) -> None:
        """Remove every wrapper, restoring the exact objects that were there."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attr, original)`` of every wrapper currently installed."""
        return list(self._undo)

    # -- calibration ----------------------------------------------------------

    def cost_per_span(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call, measured on a no-op."""
        scratch = Recorder()

        def noop() -> None:
            return None

        traced = scratch.wrap("noop", noop)
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        return max((perf_counter() - start - bare) / calls, 0.0)
