"""Outside-in tracer for the perclab package.

Wraps every module-level public function of every perclab module, in every
perclab module namespace that bound it, plus ``ProbSequence.cumulative_log``.
Nothing under ``src/`` is edited: the wrappers are installed at run time and
every patched name is put back by :meth:`Tracer.restore`.

The per-level scalar methods (``p_at``, ``log_p_at``, ``exponent_view``) are
left alone on purpose: they run hundreds of thousands of times per windowed
report, and wrapping them would roughly double the time being measured.

Spans are kept in memory as (id, parent, name, start, end) and written out
once the run ends.  Work submitted to a ``ThreadPoolExecutor`` is parented to
the span that submitted it, so an estimator's worker ``generate`` calls are
its children.  A span's self time is its duration minus the union of its
children's intervals (children of one parent may overlap when they run on
worker threads).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

# Methods traced by name; module-level public functions are found by
# introspection, so a new one is traced without an edit here.
TRACED_METHODS = (("probseq", "ProbSequence", "cumulative_log"),)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def perclab_modules() -> list:
    """The perclab package and each of its importable submodules."""
    import perclab

    mods = [perclab]
    for info in pkgutil.iter_modules(perclab.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"perclab.{info.name}"))
    return mods


class Tracer:
    """Installs timing wrappers, records spans, and restores the originals."""

    def __init__(self, observers: dict | None = None):
        # observers: traced name -> fn(bound_arguments, result) -> counts dict
        self.observers = observers or {}
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observer = self.observers.get(name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            span = Span(sid, parent, name, t0, t1)
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = observer(bound.arguments, result)
            self.spans.append(span)
            return result

        return traced

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None

            def run(*a, **k):
                worker_stack = tracer._stack()
                saved = worker_stack[:]
                worker_stack[:] = [] if parent is None else [parent]
                try:
                    return fn(*a, **k)
                finally:
                    worker_stack[:] = saved

            return submit(pool, run, *args, **kwargs)

        return traced_submit

    # -- install / restore --------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> list[str]:
        """Wrap every traced name; returns the traced names in sorted order."""
        mods = perclab_modules()
        names = []
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if attr.startswith("_"):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, fn)
                for owner in mods:
                    for bound_name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound_name, wrapped)
                names.append(name)
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in mods[1:]}
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(by_short[short], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth]))
            names.append(name)
        self._patch(ThreadPoolExecutor, "submit", self._wrap_submit(ThreadPoolExecutor.submit))
        return sorted(names)

    def restore(self) -> bool:
        """Put every original back; True when each name reads as before."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str, **tags):
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s.sid, "parent": s.parent, "name": s.name,
                       "start": s.t0, "end": s.t1, **tags}
                if s.counts:
                    row["counts"] = s.counts
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        kids = [(max(lo, s.t0), min(hi, s.t1)) for lo, hi in children.get(s.sid, ())]
        out[s.sid] = s.duration - _union_length([k for k in kids if k[1] > k[0]])
    return out
