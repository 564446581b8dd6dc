"""Backward-tape compiler: record the interpreted backward once, replay it.

Every training step re-builds an *identical* autograd graph — same ops,
same shapes, same parameters — and the interpreted sweep pays for that
sameness on every call: a DFS topological sort, per-node dispatch, and a
fresh allocation for every intermediate gradient.  This module removes
the per-step cost with the trace-once/replay-many structure production
training stacks use for their step loop (and that HIPS autograd
pioneered: a primitive-VJP registry over a replayable node graph).  It
holds no gradient math: every entry of a compiled program calls the op's
one VJP from the registry (:class:`~repro.autograd.tensor.Op`), the same
function the interpreted sweep calls.

* **Record.**  Under :meth:`BackwardTape.capture` the tensor layer appends
  every grad-bearing node to the tape in creation order.  The first
  ``backward()`` on a captured root runs the ordinary interpreted sweep,
  notes the execution order, then compiles a program: one entry per
  executed VJP, given the scratch buffers the op declares (allocated
  once, at compile time) so its ``out=`` ufunc calls stop allocating.  An
  op that declares none, or an entry whose operands rule them out, runs
  the same VJP allocating.  Dead branches — captured nodes the loss never
  consumes — are pruned here: they bind and verify, but never execute.
* **Guard.**  Later rounds are bound against a structural signature
  (per node: op identity, shape, dtype, and parent identity — graph
  wiring by index, leaf parameters by object identity).  Any mismatch
  invalidates the program and falls back to re-recording, so a shape
  change, a swapped parameter, or a ``no_grad`` region appearing
  mid-run costs one re-trace, never a wrong gradient.
* **Replay.**  A bound round skips the DFS and the bookkeeping entirely
  and executes the compiled entries in the recorded order.  Replay is
  **bitwise-identical** to the interpreted sweep — the same canary
  discipline as ``AdamW(fused=True)``:

  - a VJP issues the *same ufuncs on the same operands in the same
    order* with and without buffers (``out=`` never changes values);
  - gradients accumulate in the *recorded execution order* — float
    addition is commutative but not associative, so ``(a + b) + c`` must
    not become ``(a + c) + b`` (the committed reassociation canary in
    ``tests/test_autograd_compile.py`` shows the drift);
  - accumulation buffers are **never pre-zeroed**: the first
    contribution is written (or adopted), not added to a zero buffer,
    because ``0.0 + (-0.0)`` is ``+0.0`` and would flip signed zeros the
    interpreted first-write preserves.

Composition with the ZeRO-3 engine: construct the tape with
``donate=engine.grad_donation_views()`` and each parameter's gradient is
written straight into its slice of the engine's persistent reduce-scatter
staging buffer — the tape's terminal outputs *are* the collective's
inputs, and :meth:`ZeroStage3Engine.step` skips its flatten-copy for
donated gradients.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..util.errors import GradError
from . import tensor as _tensor_mod
from .tensor import Tensor, _backprop, _seed, _sweep, _toposort, unbroadcast

__all__ = ["BackwardTape", "TapeStats"]


# ---------------------------------------------------------------------------
# accumulation sinks
# ---------------------------------------------------------------------------

# Static accumulation modes for intermediate (slot) gradients, decided at
# compile time from the recorded contribution schedule:
#   _SET   exactly one contribution ever arrives: adopt it (views and
#          per-entry scratch buffers included — nothing mutates a _SET
#          gradient, so aliasing is safe and copy-free)
#   _INIT  first of several: establish exclusive, writable storage
#   _ACC   subsequent contributions: in-place +=
_SET, _INIT, _ACC = 0, 1, 2


class _SlotSink:
    """Compiled accumulation target for one intermediate node's gradient."""

    __slots__ = ("bound", "j", "mode", "fresh", "buf", "shape", "dtype")

    def __init__(self, bound, j, mode, fresh, shape, dtype):
        self.bound = bound
        self.j = j
        self.mode = mode
        # The producing op's flag for this parent.  In a compiled entry a
        # fresh value may be the entry's scratch buffer: reused across
        # steps but exclusive within one, so a slot may adopt it like an
        # owned array (the next step rewrites it only after this step
        # fully consumed it).
        self.fresh = fresh
        self.shape = shape
        self.dtype = dtype
        # _INIT may need exclusive storage for views of ``g``; allocated
        # lazily so producers of fresh values never pay for it.
        self.buf: np.ndarray | None = None

    def put(self, g: np.ndarray) -> None:
        """Accumulate one contribution (mirrors ``Tensor._accum`` values)."""
        node = self.bound[self.j]
        fresh = self.fresh
        if g.dtype != self.dtype:
            g = np.asarray(g, dtype=self.dtype)
            fresh = True
        if g.shape != self.shape:
            g = unbroadcast(g, self.shape)
            fresh = True
        mode = self.mode
        if mode == _SET or (mode == _INIT and fresh):
            node.grad = g
        elif mode == _INIT:
            buf = self.buf
            if buf is None:
                buf = self.buf = np.empty(self.shape, dtype=self.dtype)
            np.copyto(buf, g)
            node.grad = buf
        else:
            node.grad += g


class _LeafSink:
    """Compiled accumulation target for a leaf parameter's gradient.

    Leaf gradients outlive the round (they accumulate across
    micro-batches), so unlike slots they never adopt what may be an
    entry's scratch.  With a donated view the first contribution is
    copied straight into the engine's staging buffer; ``+=`` then
    accumulates in place there.
    """

    __slots__ = ("param", "view", "shape", "dtype")

    def __init__(self, param: Tensor, view: np.ndarray | None):
        self.param = param
        self.view = view
        self.shape = param.data.shape
        self.dtype = param.data.dtype

    def put(self, g: np.ndarray) -> None:
        """Accumulate one contribution (mirrors ``Tensor._accum`` values)."""
        p = self.param
        if g.dtype != self.dtype:
            g = np.asarray(g, dtype=self.dtype)
        if g.shape != self.shape:
            g = unbroadcast(g, self.shape)
        if p.grad is not None:
            p.grad += g
        elif self.view is not None:
            np.copyto(self.view, g)
            p.grad = self.view
        else:
            p.grad = g.copy()


def _buffered_entry(bound: list[Tensor], i: int, vjp, bufs: tuple, puts: tuple):
    """One compiled VJP: ``bufs`` are its scratch, ``puts`` one sink's
    ``put`` per parent (``None`` where no gradient flows)."""

    def run():
        node = bound[i]
        for put, g in zip(puts, vjp(node, node.grad, bufs)):
            if put is not None:
                put(g)

    return run


def _allocating_entry(bound: list[Tensor], i: int):
    """One VJP replayed as the interpreted sweep runs it."""

    def run():
        node = bound[i]
        if node.grad is not None:
            _backprop(node)

    return run


# ---------------------------------------------------------------------------
# the tape
# ---------------------------------------------------------------------------

@dataclass
class TapeStats:
    """Counters describing a tape's record/replay history."""

    records: int = 0
    replays: int = 0
    invalidations: int = 0
    interpreted: int = 0  # rounds run fully interpreted (tape disabled)
    kernel_fallbacks: int = 0  # compiled entries running without scratch buffers
    last_invalidation: str | None = None
    disabled_reason: str | None = None


class BackwardTape:
    """Record a step function's backward pass once, then replay it.

    Usage: wrap each forward in :meth:`capture`; ``backward()`` on the
    loss it built then runs through the tape::

        tape = BackwardTape(donate=engine.grad_donation_views())
        with tape.capture():
            loss = model.loss(ids, labels)
        loss.backward()

    The first round records and compiles; later rounds verify the graph
    signature and replay.  Any structural change (shapes, ops, parameter
    identity, graph size) invalidates the program and re-records — replay
    is bitwise-identical to the interpreted backward or it does not run.
    A round is live from :meth:`capture` until its first ``backward()``
    on a captured root; a root the round did not capture is swept as if
    there were no tape.

    ``donate`` maps ``id(param)`` to a NumPy view that should receive the
    parameter's gradient in place (the engine's staging slices).
    """

    def __init__(self, donate: dict[int, np.ndarray] | None = None) -> None:
        self._donate: dict[int, np.ndarray] = dict(donate) if donate else {}
        # One list object reused for every round: compiled entries close
        # over (list, index), so rebinding is just refilling the list.
        self._bound: list[Tensor] = []
        self._records: list[tuple] | None = None
        self._program: list[Callable[[], None]] | None = None
        self._root_idx: int | None = None
        self._disabled: str | None = None
        self.stats = TapeStats()

    # -- public surface -----------------------------------------------------

    @property
    def compiled(self) -> bool:
        """Whether a recorded program is currently live."""
        return self._program is not None

    @contextlib.contextmanager
    def capture(self):
        """Capture graph construction for this round's ``backward()``."""
        if _tensor_mod._tape_sink is self._bound:
            raise GradError("BackwardTape.capture() cannot be nested")
        if _tensor_mod._tape_sink is not None:
            raise GradError("another BackwardTape capture is already active")
        del self._bound[:]
        _tensor_mod._tape_sink = self._bound
        _tensor_mod._tape_round = self._backward
        try:
            yield self
        finally:
            _tensor_mod._tape_sink = None

    def invalidate(self, reason: str = "manual") -> None:
        """Drop the compiled program; the next round re-records."""
        if self._program is not None:
            self.stats.invalidations += 1
            self.stats.last_invalidation = reason
        self._records = None
        self._program = None
        self._root_idx = None

    # -- internals ----------------------------------------------------------

    def _backward(self, root: Tensor, grad: np.ndarray | None) -> bool:
        """The live round's backward pass, if it captured ``root``.

        Records on the first round (or after an invalidation), replays
        when the captured graph matches the recorded signature, and runs
        the ordinary interpreted sweep when the tape is disabled (a graph
        it cannot bind: grad nodes created outside the capture).
        """
        bound = self._bound
        if not any(node is root for node in reversed(bound)):
            return False
        try:
            if self._disabled is None and self._program is not None:
                reason = self._mismatch(root)
                if reason is None:
                    _seed(root, grad)
                    for run in self._program:
                        run()
                    self.stats.replays += 1
                    return True
                self.invalidate(reason)
            if self._disabled is not None or not self._record(root, grad):
                self.stats.interpreted += 1
                _seed(root, grad)
                _sweep(_toposort(root))
        finally:
            # The round is spent.  Drop its graph the way the interpreted
            # sweep does as it executes, so holding the loss holds nothing.
            _tensor_mod._tape_sink = _tensor_mod._tape_round = None
            for node in bound:
                node._backward = None
                node._saved = node._prev = ()
            del bound[:]
        return True

    def _donated_view(self, p: Tensor) -> np.ndarray | None:
        view = self._donate.get(id(p))
        if view is None or view.shape != p.data.shape or view.dtype != p.data.dtype:
            return None
        return view

    def _record(self, root: Tensor, grad: np.ndarray | None) -> bool:
        """Sweep interpreted and compile a program from what ran; ``False``
        (tape disabled, nothing run) when the graph reaches outside the capture."""
        bound = self._bound
        index = {id(n): i for i, n in enumerate(bound)}
        # Reachability prunes captured nodes the root never consumes.
        topo = _toposort(root)
        if any(n._backward is not None and id(n) not in index for n in topo):
            reason = "graph contains grad nodes created outside capture()"
            self.invalidate(reason)
            self._disabled = self.stats.disabled_reason = reason
            return False

        # Structural signature over the full captured list (dead branches
        # included: they must re-bind for the graph to count as "the same").
        records: list[tuple] = []
        for node in bound:
            parents = []
            for p in node._prev:
                j = index.get(id(p))
                if j is not None:
                    parents.append(("n", j))
                elif p.requires_grad:
                    parents.append(("l", p))
                else:
                    parents.append(("c", p.data.shape))
            records.append((node._backward, node.data.shape, node.data.dtype, tuple(parents)))
        self._records = records
        self._root_idx = index[id(root)]

        # Execute interpreted; the order the sweep ran in is the order the
        # replay must reproduce (accumulation order is part of bitwise
        # identity).  The graph is kept for _compile to size buffers from.
        _seed(root, grad)
        _sweep(topo, release=False)
        order = [index[id(n)] for n in reversed(topo)
                 if n._backward is not None and n.grad is not None]
        # Let go of the round's gradients before the program's buffers are
        # allocated, or the record round's peak holds both.
        for node in bound:
            node.grad = None
        self._compile(order)
        self.stats.records += 1
        return True

    def _compile(self, order: list[int]) -> None:
        """Build the replay program from the recorded execution order."""
        bound, records = self._bound, self._records

        # Contribution schedule: per accumulation target, how many
        # contributions arrive and which occurrence is first — this is
        # what lets sinks adopt/copy/+= exactly like the interpreter.
        targets = [
            (i, j, spec)
            for i in order
            for j, spec in enumerate(records[i][3])
            if spec[0] != "c"
        ]
        totals: dict[tuple, int] = {}
        for _, _, spec in targets:
            totals[spec] = totals.get(spec, 0) + 1
        modes: dict[tuple[int, int], int] = {}
        seen: set[tuple] = set()
        for i, j, spec in targets:
            modes[i, j] = _SET if totals[spec] == 1 else (_ACC if spec in seen else _INIT)
            seen.add(spec)

        program: list[Callable[[], None]] = []
        for i in order:
            op, _, dtype, parents = records[i]
            node = bound[i]
            # Mixed-precision entries run allocating, so NumPy's promotion
            # rules keep applying.
            uniform = all(p.data.dtype == dtype for p in node._prev if p.requires_grad)
            shapes = op.bufs(node) if uniform and op.bufs is not None else None
            if shapes is None:
                self.stats.kernel_fallbacks += 1
                program.append(_allocating_entry(bound, i))
                continue
            puts = []
            for j, (spec, fresh) in enumerate(zip(parents, op.fresh)):
                if spec[0] == "n":
                    _, shape, slot_dtype, _ = records[spec[1]]
                    put = _SlotSink(bound, spec[1], modes[i, j], fresh, shape, slot_dtype).put
                elif spec[0] == "l":
                    put = _LeafSink(spec[1], self._donated_view(spec[1])).put
                else:
                    put = None  # constant operand: no gradient flows
                puts.append(put)
            bufs = tuple(None if s is None else np.empty(s, dtype=dtype) for s in shapes)
            program.append(_buffered_entry(bound, i, op.vjp, bufs, tuple(puts)))
        self._program = program

    def _mismatch(self, root: Tensor) -> str | None:
        """Bind the captured graph against the recorded signature.

        Returns an invalidation reason, or ``None`` when the graph
        matches and the compiled program may replay.
        """
        bound, records = self._bound, self._records
        if len(bound) != len(records):
            return f"graph size changed ({len(records)} -> {len(bound)} nodes)"
        if bound[self._root_idx] is not root:
            return "backward() root is not the recorded root node"
        for i, node in enumerate(bound):
            op, shape, dtype, parents = records[i]
            if node._backward is not op:
                return f"op changed at node {i} ({op} -> {node._backward})"
            data = node.data
            if data.shape != shape:
                return f"shape changed at node {i} ({shape} -> {data.shape})"
            if data.dtype != dtype:
                return f"dtype changed at node {i} ({dtype} -> {data.dtype})"
            prev = node._prev
            if len(prev) != len(parents):
                return f"parent count changed at node {i}"
            for p, spec in zip(prev, parents):
                kind = spec[0]
                if kind == "n":
                    if p is not bound[spec[1]]:
                        return f"graph wiring changed at node {i}"
                elif kind == "l":
                    if p is not spec[1]:
                        return f"leaf parameter changed at node {i}"
                elif p.requires_grad or p.data.shape != spec[1]:
                    return f"constant operand changed at node {i}"
        return None
