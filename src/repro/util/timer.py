"""Wall-clock and simulated-clock timing.

Two clock flavours:

* :class:`WallTimer` — a context-manager stopwatch over ``perf_counter``,
  used when benchmarking real file I/O (Table 7).
* :class:`SimClock` — a deterministic virtual clock advanced by cost
  models (compute time per training step, bytes/bandwidth for storage).
  All "proportion of checkpoint time" numbers (Tables 3 and 6) are read
  off a SimClock so they are reproducible on any machine.

The SimClock tracks named categories (``compute``, ``checkpoint_write``,
...) so overhead proportions can be reported per category.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


class WallTimer:
    """Stopwatch usable as a context manager.

    >>> with WallTimer() as t:
    ...     do_work()
    >>> t.elapsed  # seconds
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "WallTimer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop and return the accumulated elapsed seconds."""
        if self._start is None:
            raise RuntimeError("timer was not started")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated time and stop."""
        self.elapsed = 0.0
        self._start = None


@dataclass
class SimClock:
    """Deterministic virtual clock with per-category accounting.

    ``advance(dt, "compute")`` moves time forward and charges the interval
    to the named category.  ``fraction("checkpoint")`` returns the share
    of total elapsed time spent in categories whose name starts with the
    given prefix — exactly the "proportion of checkpoint time" metric in
    the paper's Tables 3 and 6.
    """

    now: float = 0.0
    by_category: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # (now at open_gap, every dt advanced since), while a gap is open.
    _gap: tuple[float, list[float]] | None = field(default=None, repr=False, compare=False)

    def advance(self, dt: float, category: str = "other") -> float:
        """Move time forward by ``dt`` and charge it to ``category``."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.now += dt
        self.by_category[category] += dt
        if self._gap is not None:
            self._gap[1].append(dt)
        return self.now

    def open_gap(self) -> None:
        """Leave room here for charges that are due now but known only
        later (a checkpoint write in flight); see :meth:`fill_gap`."""
        self._gap = (self.now, [])

    @contextmanager
    def fill_gap(self):
        """Charges made in this block land in the open gap: ``now`` is
        re-summed with them before every advance made since
        :meth:`open_gap`, so it is the float a charge made on time gives."""
        (self.now, later), self._gap = self._gap, None
        try:
            yield
        finally:
            for dt in later:
                self.now += dt

    def total(self) -> float:
        """Total elapsed simulated seconds."""
        return self.now

    def category_total(self, prefix: str) -> float:
        """Seconds charged to categories whose name starts with ``prefix``."""
        return sum(v for k, v in self.by_category.items() if k.startswith(prefix))

    def fraction(self, prefix: str) -> float:
        """Share of elapsed time charged to categories under ``prefix``."""
        if self.now == 0.0:
            return 0.0
        return self.category_total(prefix) / self.now

    def snapshot(self) -> dict[str, float]:
        """Category totals plus ``__total__`` as a plain dict."""
        out = dict(self.by_category)
        out["__total__"] = self.now
        return out

    def reset(self) -> None:
        """Zero the clock and all categories."""
        self.now = 0.0
        self.by_category.clear()
        self._gap = None
