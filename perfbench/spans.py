"""In-memory span recorder and entry-point wrappers for the traced pass.

A :class:`Recorder` keeps every span (name, start, end, parent index) in
a flat list while the traced workload runs in one thread; nothing is
written until the pass ends.  A span's *self time* is its duration minus
the durations of its direct children, so the self times of a span tree
partition the interval its roots cover.

The wrappers replace a function or method of the program with one that
opens a span around the original call.  They live here, in the
benchmark, so the program under test carries no benchmark code.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Recorder", "Span", "self_times", "wrap_function",
           "wrap_method"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in :attr:`Recorder.spans`, -1 for a root
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans with parent links plus named integer/float tallies."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out "
                               f"of order (open: {self.spans[popped].name!r})")

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def descendant_time(self, idx: int, name: str) -> float:
        """Summed duration of the outermost ``name`` spans under ``idx``.

        Spans are appended in opening order on one thread, so the
        descendants of a closed span are exactly the spans after it
        that started before it ended.
        """
        end = self.spans[idx].end
        total, skip_until = 0.0, -1.0
        for s in self.spans[idx + 1:]:
            if s.start >= end:
                break
            if s.name == name and s.start >= skip_until:
                total += s.duration
                skip_until = s.end
        return total


class _SpanContext:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name, self.idx = rec, name, -1

    def __enter__(self) -> int:
        self.idx = self.rec.open(self.name)
        return self.idx

    def __exit__(self, *exc) -> None:
        self.rec.close(self.idx)


def self_times(spans: "list[Span]") -> "dict[str, dict[str, float]]":
    """``{name: {"self": s, "total": s, "calls": n}}`` over a span list.

    ``total`` sums every span of the name, so it double-counts a name
    that nests inside itself; ``self`` never double-counts.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out: dict[str, dict[str, float]] = {}
    for s, covered in zip(spans, child):
        row = out.setdefault(s.name, {"self": 0.0, "total": 0.0,
                                      "calls": 0})
        row["self"] += s.duration - covered
        row["total"] += s.duration
        row["calls"] += 1
    return out


#: ``observe(args, kwargs, result, exc, span_index)``, called after the
#: span closes; ``exc`` is the exception the call raised, else ``None``.
Observer = Callable[[tuple, dict, object, Optional[BaseException], int],
                    None]


def _spanned(fn: Callable, name: str, rec: Recorder,
             observe: Optional[Observer]) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if observe is not None:
                observe(args, kwargs, None, exc, idx)
            raise
        rec.close(idx)
        if observe is not None:
            observe(args, kwargs, result, None, idx)
        return result
    return wrapped


def wrap_function(module, attr: str, name: str, rec: Recorder,
                  observe: Optional[Observer] = None) -> Callable:
    """Wrap ``module.attr`` and every binding of it in ``repro``.

    Modules that did ``from module import attr`` hold their own binding,
    so each loaded ``repro`` module is scanned for the original object
    and rebound to the wrapper.  Returns the original.
    """
    orig = getattr(module, attr)
    wrapped = _spanned(orig, name, rec, observe)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
    setattr(module, attr, wrapped)
    return orig


def wrap_method(cls, attr: str, name: str, rec: Recorder,
                observe: Optional[Observer] = None) -> Callable:
    """Wrap one method on a class (instances look it up at call time)."""
    orig = cls.__dict__[attr]
    setattr(cls, attr, _spanned(orig, name, rec, observe))
    return orig
