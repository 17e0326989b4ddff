"""Validated environment-variable parsing for the ``REPRO_*`` knobs.

The mode knobs (``REPRO_ANALYSIS_CACHE``, ``REPRO_VERIFY``,
``REPRO_TRACE``) and the integer ``REPRO_FAULTS_SEED`` parse here, so a
typo'd value surfaces as a clear :class:`~repro.errors.ReproError`
naming the variable and the accepted values instead of a raw
``ValueError`` traceback from deep inside a worker process.  What a
flag sets (``--jobs``, ``--retries``, ``--timeout``) has no environment
twin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError

__all__ = ["ANALYSIS_CACHE_ENV", "KNOBS", "Knob", "TRACE_ENV", "VERIFY_ENV",
           "analysis_cache_enabled", "check_knobs", "env_int", "trace_mode",
           "verify_mode"]

#: Controls the shared-analysis machinery (see :mod:`repro.pipeline.analysis`):
#: ``"0"`` disables sharing entirely (the reference route the parity tests
#: compare against), ``"1"`` (default) enables the shared memos (the
#: front-end analysis also on disk).
ANALYSIS_CACHE_ENV = "REPRO_ANALYSIS_CACHE"

#: Controls the static artifact verifiers (see :mod:`repro.verify`) beyond
#: the schedule re-verifier, which the pipeline's validate stage runs on
#: every design in every mode: unset/``"0"``/``"off"`` (default) adds
#: nothing, ``"1"``/``"on"`` adds the structural DFG, SSA block and edge-view
#: checks after the analyze stage, and ``"strict"`` adds the re-derivation
#: cross-checks on top (independent MaxLive recount, MII lower bounds,
#: ``exact_ii`` certificates).  One CI leg runs the suite under ``strict``;
#: verified artifacts are byte-identical to unverified ones — the checkers
#: only observe.
VERIFY_ENV = "REPRO_VERIFY"

#: Controls the span/event tracer (see :mod:`repro.obs.trace`): unset/
#: ``"0"``/``"off"`` (default) hands out no-op spans with no allocation on
#: the hot path, ``"1"``/``"on"`` records pipeline/scheduler/cache/
#: supervisor spans, and ``"full"`` adds high-volume detail (per-candidate-
#: II instants).  Traced runs are byte-identical to untraced ones — the
#: tracer only observes.
TRACE_ENV = "REPRO_TRACE"


@dataclass(frozen=True)
class Knob:
    """One registered ``REPRO_*`` environment knob.

    The single source of truth for the README environment tables and
    ``repro stats --knobs`` — a knob that lands without a row here fails
    ``tests/obs/test_stats.py``, which greps ``src/`` for every
    ``REPRO_*`` read and checks it against :data:`KNOBS`.
    """

    name: str
    values: str
    default: str
    summary: str


#: Every environment variable the code under ``src/`` reads, with the
#: accepted values and the behaviour at each setting.  Order is the
#: presentation order of ``repro stats --knobs`` and the README tables.
KNOBS: "tuple[Knob, ...]" = (
    Knob("REPRO_CACHE_DIR", "path", ".repro_cache",
         "Root directory of the result cache and artifact store."),
    Knob("REPRO_ANALYSIS_CACHE", "0 | 1", "1",
         "Analysis sharing: 0 disables (the reference route), 1 enables "
         "the shared memos (front-end analysis in memory and on disk, "
         "II search in memory)."),
    Knob("REPRO_VERIFY", "0/off | 1/on | strict", "off",
         "Checks beyond the always-on schedule re-verifier: on adds "
         "the structural DFG/SSA/edge-view checks, strict adds "
         "re-derivation cross-checks.  Output is byte-identical."),
    Knob("REPRO_TRACE", "0/off | 1/on | full", "off",
         "Span/event tracer: on records pipeline/scheduler/cache/"
         "supervisor spans, full adds per-candidate-II detail.  "
         "Output is byte-identical."),
    Knob("REPRO_FAULTS", "kind@site:prob,...", "unset",
         "Deterministic fault-injection plan, e.g. crash@worker:0.3,"
         "torn@store:0.5.  Sites: worker (crash/hang), store/cache "
         "(torn)."),
    Knob("REPRO_FAULTS_SEED", "int", "0",
         "Seed for the fault plan's SHA-256 coins; same seed, same "
         "plan, same decisions in every process."),
)


def env_int(name: str, default: Optional[int],
            minimum: Optional[int] = None) -> Optional[int]:
    """Read an integer knob; unset/empty returns ``default``.

    Non-integer or below-``minimum`` values raise :class:`ReproError`
    with the variable name, the offending value, and the accepted range.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        val = int(raw)
    except ValueError:
        raise ReproError(
            f"{name}={raw!r} is not an integer; set it to a whole number"
            + (f" >= {minimum}" if minimum is not None else "")) from None
    if minimum is not None and val < minimum:
        raise ReproError(
            f"{name}={raw!r} is out of range; the minimum is {minimum}")
    return val


def analysis_cache_enabled() -> bool:
    """Whether the shared-analysis memos are on (unset/empty = ``1``).

    Values other than ``0`` and ``1`` raise :class:`ReproError` naming
    the variable, like every other knob.
    """
    raw = os.environ.get(ANALYSIS_CACHE_ENV, "")
    val = raw.strip()
    if val in ("", "1"):
        return True
    if val == "0":
        return False
    raise ReproError(
        f"{ANALYSIS_CACHE_ENV}={raw!r} is not a recognized setting; "
        "use 0 or 1")


def verify_mode() -> str:
    """The artifact-verifier mode: ``"off"``, ``"on"``, or ``"strict"``.

    Unrecognized values raise :class:`ReproError` naming the variable
    and the accepted spellings, like every other knob.
    """
    raw = os.environ.get(VERIFY_ENV)
    if raw is None:
        return "off"
    val = raw.strip().lower()
    if val in ("", "0", "off"):
        return "off"
    if val in ("1", "on"):
        return "on"
    if val == "strict":
        return "strict"
    raise ReproError(
        f"{VERIFY_ENV}={raw!r} is not a recognized mode; "
        "use 0/off, 1/on, or strict")


def trace_mode() -> str:
    """The tracer mode: ``"off"``, ``"on"``, or ``"full"``.

    Unrecognized values raise :class:`ReproError` naming the variable
    and the accepted spellings, like every other knob.
    """
    raw = os.environ.get(TRACE_ENV)
    if raw is None:
        return "off"
    val = raw.strip().lower()
    if val in ("", "0", "off"):
        return "off"
    if val in ("1", "on"):
        return "on"
    if val == "full":
        return "full"
    raise ReproError(
        f"{TRACE_ENV}={raw!r} is not a recognized mode; "
        "use 0/off, 1/on, or full")


def check_knobs() -> None:
    """Parse every mode knob and the fault plan now.

    A sweep calls this in the parent before it dispatches any design, so
    a bad value raises one :class:`ReproError` naming the variable and
    its accepted values instead of failing inside every design's
    compile.
    """
    analysis_cache_enabled()
    verify_mode()
    trace_mode()
    from repro.faults import active_plan
    active_plan()
