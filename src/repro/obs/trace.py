"""Low-overhead span/event tracing with Chrome ``trace_event`` export.

The tracer records *spans* (named, nested intervals: a pipeline stage,
an II search, a supervised batch) and *instants* (point events: a retry,
a torn write, a quarantine) into a process-local buffer.  Workers drain
their buffer into each batch payload; the engine re-injects those events
into the parent tracer, so a sweep ends with one merged, sweep-wide
event list regardless of how many processes did the work.  ``export``
writes the Chrome/Perfetto ``trace_event`` JSON format — load the file
at ``chrome://tracing`` or https://ui.perfetto.dev and every worker
shows up as its own process track.

Activation is the ``REPRO_TRACE`` knob (:func:`repro.env.trace_mode`):

* unset / ``0`` / ``off`` — **default**.  :func:`span` returns a shared
  no-op singleton and :func:`instant` returns immediately: no
  allocation, no clock read, nothing retained.  The check itself is one
  env-dict lookup memoized on the raw string (the :mod:`repro.faults`
  pattern), so the hot path pays nanoseconds.
* ``1`` / ``on`` — spans and instants are recorded.
* ``full`` — additionally records high-volume detail (per-candidate-II
  instants inside the scheduler search) that would swamp the buffer on
  big sweeps.

Timestamps must merge across processes, so each process anchors a
wall-clock epoch (µs) to a ``perf_counter_ns`` origin at first use:
event ``ts`` is the anchored epoch plus a monotonic delta — comparable
between workers to within clock sync, monotonic within each process.

Tracing never changes results: traced runs are byte-identical to
untraced ones (the golden tables are asserted both ways).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Optional

from repro.obs import metrics

__all__ = ["MODE_FULL", "MODE_OFF", "MODE_ON", "Span", "drain", "emit_span",
           "enabled", "export_trace", "full_enabled", "inject", "instant",
           "reset_trace", "span", "trace_header", "validate_trace"]

MODE_OFF = "off"
MODE_ON = "on"
MODE_FULL = "full"

#: Event-buffer cap per process.  Past it, events are counted as dropped
#: (``obs.trace.dropped`` counter) instead of retained, so a runaway
#: ``full``-mode sweep degrades to an incomplete trace, not OOM.
_EVENT_CAP = 500_000

#: Memo of the parsed mode keyed by the raw env string, so the per-span
#: check is a dict lookup + string compare (tests flip the env via
#: monkeypatch and must be picked up without an explicit reset).
_MODE_MEMO: "tuple[Optional[str], str]" = ("\0unset", MODE_OFF)


def _mode() -> str:
    global _MODE_MEMO
    raw = os.environ.get("REPRO_TRACE")
    if raw == _MODE_MEMO[0]:
        return _MODE_MEMO[1]
    from repro.env import trace_mode
    mode = trace_mode()
    _MODE_MEMO = (raw, mode)
    return mode


def enabled() -> bool:
    """True when ``REPRO_TRACE`` is ``1``/``on`` or ``full``."""
    return _mode() != MODE_OFF


def full_enabled() -> bool:
    """True only in ``full`` mode (high-volume detail events)."""
    return _mode() == MODE_FULL


# -- clock ----------------------------------------------------------------

#: (epoch_us at anchor, perf_counter_ns at anchor); lazily initialised so
#: forked/spawned workers re-anchor with their own clock.
_ANCHOR: "Optional[tuple[int, int]]" = None
_ANCHOR_PID = -1


def _ensure_anchor() -> "tuple[int, int]":
    global _ANCHOR, _ANCHOR_PID
    pid = os.getpid()
    if _ANCHOR is None or _ANCHOR_PID != pid:
        _ANCHOR = (time.time_ns() // 1000, time.perf_counter_ns())
        _ANCHOR_PID = pid
    return _ANCHOR


def _now_us() -> int:
    """Epoch microseconds, monotonic within the process."""
    epoch_us, perf0 = _ensure_anchor()
    return epoch_us + (time.perf_counter_ns() - perf0) // 1000


# -- event buffer ---------------------------------------------------------

_BUFFER: "list[dict]" = []
_BUFFER_PID = -1
_BUFFER_LOCK = threading.Lock()
_DROPPED = metrics.counter("obs.trace.dropped")


def _own_buffer_locked() -> None:
    """Drop a buffer inherited across ``fork`` (call with the lock held).

    A forked worker starts with a copy of the parent's buffered events;
    shipping those back would duplicate them in the merged trace (the
    parent still holds the originals), compounding on every pool
    respawn.  The child's buffer therefore starts empty.
    """
    global _BUFFER, _BUFFER_PID
    pid = os.getpid()
    if pid != _BUFFER_PID:
        _BUFFER = []
        _BUFFER_PID = pid


def _push(event: dict) -> None:
    with _BUFFER_LOCK:
        _own_buffer_locked()
        if len(_BUFFER) >= _EVENT_CAP:
            _DROPPED.add()
            return
        _BUFFER.append(event)


class Span:
    """A live span; a context manager that records one complete event.

    Use :func:`span` to create one — it returns the shared no-op
    instance when tracing is off, so hot paths never allocate.
    ``set(key=value, ...)`` attaches args visible in the trace viewer.
    """

    __slots__ = ("name", "cat", "args", "_t0")

    def __init__(self, name: str, cat: str, args: Optional[dict] = None):
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0

    def set(self, **kwargs: Any) -> None:
        if self.args is None:
            self.args = {}
        self.args.update(kwargs)

    def __enter__(self) -> "Span":
        self._t0 = _now_us()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        t1 = _now_us()
        event = {
            "name": self.name, "cat": self.cat, "ph": "X",
            "ts": self._t0, "dur": max(0, t1 - self._t0),
            "pid": os.getpid(), "tid": threading.get_native_id(),
        }
        if self.args:
            event["args"] = self.args
        if exc_type is not None:
            event.setdefault("args", {})["error"] = exc_type.__name__
        _push(event)
        return False


class _NoopSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()

    def set(self, **kwargs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


def span(name: str, cat: str = "repro", **args: Any):
    """A span context manager, or the no-op singleton when off."""
    if _mode() == MODE_OFF:
        return NOOP_SPAN
    return Span(name, cat, args or None)


def emit_span(name: str, cat: str, perf_t0: float, perf_t1: float,
              **args: Any) -> None:
    """Record a complete event from two ``perf_counter()`` readings.

    For call sites that already time themselves (the pipeline's stage
    bookkeeping): when tracing is on, the measurements they took anyway
    become trace events — no second clock read; when off, this returns
    after the memoized mode check.
    """
    if _mode() == MODE_OFF:
        return
    epoch_us, perf0 = _ensure_anchor()
    ts = epoch_us + (int(perf_t0 * 1e9) - perf0) // 1000
    event = {
        "name": name, "cat": cat, "ph": "X",
        "ts": ts, "dur": max(0, int((perf_t1 - perf_t0) * 1e6)),
        "pid": os.getpid(), "tid": threading.get_native_id(),
    }
    if args:
        event["args"] = args
    _push(event)


def instant(name: str, cat: str = "repro", **args: Any) -> None:
    """Record a point event (retry, fault, quarantine); no-op when off."""
    if _mode() == MODE_OFF:
        return
    event = {
        "name": name, "cat": cat, "ph": "i", "s": "p",
        "ts": _now_us(), "pid": os.getpid(),
        "tid": threading.get_native_id(),
    }
    if args:
        event["args"] = args
    _push(event)


def drain() -> "list[dict]":
    """Remove and return every buffered event (worker → payload ship)."""
    global _BUFFER
    with _BUFFER_LOCK:
        _own_buffer_locked()
        events, _BUFFER = _BUFFER, []
    return events


def inject(events: "list[dict]") -> None:
    """Append foreign events (a worker's drained buffer) to this buffer."""
    if not events:
        return
    with _BUFFER_LOCK:
        _own_buffer_locked()
        room = _EVENT_CAP - len(_BUFFER)
        if room < len(events):
            _DROPPED.add(len(events) - max(0, room))
            events = events[:max(0, room)]
        _BUFFER.extend(events)


def reset_trace() -> None:
    """Clear the buffer and the mode memo (tests)."""
    global _MODE_MEMO
    drain()
    _MODE_MEMO = ("\0unset", MODE_OFF)


# -- export / validation --------------------------------------------------

def trace_header(events: "list[dict]") -> dict:
    """The full Chrome ``trace_event`` document for ``events``.

    Adds per-pid ``process_name`` metadata (supervisor vs worker tracks
    in the viewer) and embeds the merged metrics snapshot under
    ``reproMetrics`` — extra top-level keys are explicitly allowed by
    the trace_event spec and ignored by viewers.
    """
    pids = sorted({e["pid"] for e in events if "pid" in e})
    meta = []
    here = os.getpid()
    for pid in pids:
        name = "supervisor" if pid == here else f"worker-{pid}"
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "tid": 0, "args": {"name": name}})
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "reproMetrics": metrics.registry().snapshot(),
    }


def export_trace(path: str, events: "Optional[list[dict]]" = None) -> int:
    """Write the merged trace to ``path``; returns the event count.

    Without an explicit ``events`` list, drains the process buffer.
    """
    if events is None:
        events = drain()
    doc = trace_header(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return len(events)


#: Event phases we emit and therefore validate.  (The format defines
#: more; a trace we produced containing anything else is a bug.)
_KNOWN_PHASES = {"X", "i", "M"}


def validate_trace(doc: Any) -> "list[str]":
    """Structural checks on a trace document; returns problem strings.

    An empty list means the document is a well-formed Chrome
    ``trace_event`` JSON object as this tracer produces them.  Used by
    ``repro stats`` and the schema tests, so the exporter can't drift
    from the format without a test noticing.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be a JSON object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(ev.get("name", ""), str):
            problems.append(f"{where}: 'name' is not a string")
        if ph in ("X", "i"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing or non-numeric 'ts'")
            if "cat" not in ev:
                problems.append(f"{where}: missing 'cat'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'dur' must be a number >= 0")
        if ph == "i" and ev.get("s") not in (None, "g", "p", "t"):
            problems.append(f"{where}: instant scope {ev.get('s')!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: 'args' is not an object")
    return problems
