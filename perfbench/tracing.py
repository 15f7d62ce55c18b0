"""Outside-in span tracing for the cdassim benchmark.

Spans are recorded only from the benchmark's side: :class:`Hooks` rebinds a
program function at the name its callers look it up under (a module
attribute such as ``cdassim.filters.runner.ekf_predict``) to a timing
wrapper, and restores the original binding afterwards. Nothing in the
program is edited. A binding that no longer exists is recorded as an absent
layer instead of failing, so a later refactor that removes a function only
drops that layer from the report.

Self time of a span is its duration minus the durations of the spans it
directly encloses on the same thread. Each thread aggregates into its own
table, so the hot path takes no lock; :meth:`Tracer.totals` merges them.
"""
from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Stat:
    """Aggregate of one span name: calls, inclusive seconds, self seconds."""

    calls: int = 0
    total: float = 0.0
    self: float = 0.0


@dataclass
class Record:
    """One kept span: name, start, end (perf_counter seconds) and a value."""

    name: str
    start: float
    end: float
    value: float = 0.0


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)   # child seconds per open span
    stats: dict = field(default_factory=dict)   # name -> Stat
    counts: dict = field(default_factory=dict)  # name -> number
    records: list = field(default_factory=list)


class Tracer:
    """In-memory span and counter recorder shared by every hook of one run.

    ``keep`` names the spans whose individual start/end records are kept
    (for interval arithmetic such as pool utilization); all other spans
    are only aggregated, which keeps memory flat under millions of calls.
    """

    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` timed as span ``name``.

        ``observe(tracer, args, result)``, when given, runs after a
        successful call, outside the timed interval, to add counters.
        """
        tracer = self
        keep = name in self.keep

        def traced(*args, **kwargs):
            st = tracer._state()
            st.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                d = t1 - t0
                child = st.stack.pop()
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = Stat()
                s.calls += 1
                s.total += d
                s.self += d - child
                if st.stack:
                    st.stack[-1] += d
                if keep:
                    st.records.append(Record(name, t0, t1))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def count(self, name: str, n: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def mark(self, name: str, value: float) -> None:
        """Keep a point record (zero-length span) carrying ``value``."""
        t = time.perf_counter()
        self._state().records.append(Record(name, t, t, value))

    def totals(self) -> tuple[dict, dict, list]:
        """Merged (stats by name, counts by name, kept records by start)."""
        stats: dict[str, Stat] = {}
        counts: dict[str, float] = {}
        records: list[Record] = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, s in st.stats.items():
                m = stats.setdefault(name, Stat())
                m.calls += s.calls
                m.total += s.total
                m.self += s.self
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
            records.extend(st.records)
        records.sort(key=lambda r: r.start)
        return stats, counts, records


class CountingGenerator:
    """Pass-through wrapper of a numpy Generator that times its draws.

    ``standard_normal`` and ``uniform`` are the two draw methods the filters
    use; each call becomes an ``sde.noise.draw`` span and adds its element
    count to ``sde.noise.draws``. Every other attribute is the wrapped
    generator's own, so the values drawn are identical.
    """

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self._draw = {m: tracer.wrap(getattr(gen, m), "sde.noise.draw", _count_draws)
                      for m in ("standard_normal", "uniform")}

    def standard_normal(self, *args, **kwargs):
        return self._draw["standard_normal"](*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._draw["uniform"](*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_draws(tracer, args, result):
    tracer.count("sde.noise.draws", np.size(result))


class Hooks:
    """Installs span wrappers at module bindings and restores them.

    Use as a context manager. ``absent`` lists every requested binding that
    did not exist, as ``"module:attribute"``.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make) -> bool:
        """Rebind ``module.attr`` to ``make(original)``; False if absent.

        ``attr`` may be dotted (``Class.method``) to reach a class attribute.
        """
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}:{attr}")
            return False
        self._undo.append((owner, leaf, original))
        setattr(owner, leaf, make(original))
        return True

    def span(self, module: str, attr: str, name: str, observe=None) -> bool:
        return self.replace(module, attr, lambda fn: self.tracer.wrap(fn, name, observe))

    def restore(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
