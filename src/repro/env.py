"""Validated environment-variable parsing for the perf/cache knobs.

Every knob the sweep hot path reads — ``REPRO_JOBS``,
``REPRO_EXACT_BUDGET``, ``REPRO_EXACT_NODE_LIMIT``,
``REPRO_ANALYSIS_CACHE`` — goes through this module, so a typo'd value
surfaces as a clear :class:`~repro.errors.ReproError` naming the
variable and the accepted range instead of a raw ``ValueError``
traceback from deep inside a worker process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError

__all__ = ["ANALYSIS_CACHE_ENV", "BATCH_TIMEOUT_ENV", "KNOBS", "Knob",
           "RETRIES_ENV", "TRACE_ENV", "VERIFY_ENV", "analysis_cache_mode",
           "batch_timeout", "env_float", "env_int", "registered_knobs",
           "retries", "trace_mode", "verify_mode"]

#: Controls the shared-analysis machinery (see :mod:`repro.pipeline.analysis`
#: and :mod:`repro.hw.iimemo`): ``"0"`` disables sharing entirely (the
#: benchmark ablation baseline), ``"mem"`` keeps the in-process tier only,
#: anything else (default) enables the full two-tier (memory + disk) cache.
ANALYSIS_CACHE_ENV = "REPRO_ANALYSIS_CACHE"

#: Controls the static artifact verifiers (see :mod:`repro.verify`): unset/
#: ``"0"``/``"off"`` (default) keeps the hot path unchecked, ``"1"``/``"on"``
#: re-verifies every DFG, SSA block, edge view, and schedule between pipeline
#: stages, and ``"strict"`` adds the re-derivation cross-checks (independent
#: MaxLive recount, MII lower bounds, ``exact_ii`` certificates).  Tests and
#: CI run with it on; verified artifacts are byte-identical to unverified
#: ones — the checkers only observe.
VERIFY_ENV = "REPRO_VERIFY"

#: How many times the supervised engine re-dispatches a failing batch
#: (worker crash, straggler timeout, or an exception the compiler did
#: not classify) before bisecting it toward the culprit query.  0 means
#: quarantine on the first failure.
RETRIES_ENV = "REPRO_RETRIES"

#: Per-batch wall-clock budget in seconds, measured from dispatch.  A
#: batch that overruns it is presumed hung: the pool is torn down,
#: respawned, and the survivors re-dispatched.  Unset disables the
#: straggler watchdog (the default — real batches have no natural bound
#: the engine could guess).
BATCH_TIMEOUT_ENV = "REPRO_BATCH_TIMEOUT"

#: Controls the span/event tracer (see :mod:`repro.obs.trace`): unset/
#: ``"0"``/``"off"`` (default) hands out no-op spans with no allocation on
#: the hot path, ``"1"``/``"on"`` records pipeline/scheduler/cache/
#: supervisor spans, and ``"full"`` adds high-volume detail (per-candidate-
#: II instants).  Traced runs are byte-identical to untraced ones — the
#: tracer only observes.
TRACE_ENV = "REPRO_TRACE"

#: Default retry budget when neither the CLI nor the env chooses.
DEFAULT_RETRIES = 2


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
    Knob("REPRO_JOBS", "int >= 1", "1",
         "Worker-process count for sweeps (same as --jobs)."),
    Knob("REPRO_CACHE_DIR", "path", ".repro_cache",
         "Root directory of the result cache and artifact store."),
    Knob("REPRO_ANALYSIS_CACHE", "0 | mem | 1", "1",
         "Analysis sharing: 0 disables, mem keeps the in-process tier "
         "only, 1 enables the two-tier (memory + disk) cache."),
    Knob("REPRO_VERIFY", "0/off | 1/on | strict", "off",
         "Static artifact verifiers between pipeline stages; strict "
         "adds re-derivation cross-checks.  Output is byte-identical."),
    Knob("REPRO_TRACE", "0/off | 1/on | full", "off",
         "Span/event tracer: on records pipeline/scheduler/cache/"
         "supervisor spans, full adds per-candidate-II detail.  "
         "Output is byte-identical."),
    Knob("REPRO_EXACT_BUDGET", "int >= 1", "200000",
         "Search-node budget across the exact scheduler's whole II "
         "sweep; exhausting it degrades the optimality claim."),
    Knob("REPRO_EXACT_NODE_LIMIT", "int >= 1", "400",
         "Largest DFG (node count) the exact scheduler will attempt; "
         "bigger graphs skip the exact search."),
    Knob("REPRO_RETRIES", "int >= 0", str(DEFAULT_RETRIES),
         "Re-dispatch attempts for a failing batch before bisecting "
         "toward the culprit query (same as --retries)."),
    Knob("REPRO_BATCH_TIMEOUT", "float seconds > 0", "unset",
         "Per-batch wall-clock budget; overruns presume a hang and "
         "respawn the pool (same as --timeout).  Unset disables."),
    Knob("REPRO_FAULTS", "kind@site:prob,...", "unset",
         "Deterministic fault-injection plan, e.g. crash@worker:0.3,"
         "torn@store:0.5.  Sites: worker (crash/hang), store/cache "
         "(torn)."),
    Knob("REPRO_FAULTS_SEED", "int", "0",
         "Seed for the fault plan's SHA-256 coins; same seed, same "
         "plan, same decisions in every process."),
)


def registered_knobs() -> "dict[str, Knob]":
    """The knob table keyed by variable name."""
    return {k.name: k for k in KNOBS}


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


def env_float(name: str, default: Optional[float],
              minimum: Optional[float] = None,
              exclusive: bool = False) -> Optional[float]:
    """Read a float knob; unset/empty returns ``default``.

    Non-numeric or out-of-range values raise :class:`ReproError` naming
    the variable and the accepted range.  ``exclusive`` makes the
    ``minimum`` bound strict (e.g. a timeout must be > 0).
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        val = float(raw)
    except ValueError:
        raise ReproError(
            f"{name}={raw!r} is not a number; set it to a value"
            + (f" {'>' if exclusive else '>='} {minimum}"
               if minimum is not None else "")) from None
    if minimum is not None and (val < minimum
                                or (exclusive and val == minimum)):
        raise ReproError(
            f"{name}={raw!r} is out of range; it must be "
            f"{'>' if exclusive else '>='} {minimum}")
    return val


def retries(override: Optional[int] = None) -> int:
    """The engine's retry budget: explicit override, env, or default."""
    if override is not None:
        if override < 0:
            raise ReproError(f"retries must be >= 0, got {override}")
        return override
    return env_int(RETRIES_ENV, DEFAULT_RETRIES, minimum=0) or 0


def batch_timeout(override: Optional[float] = None) -> Optional[float]:
    """The per-batch wall-clock budget (seconds), or ``None`` when off."""
    if override is not None:
        if override <= 0:
            raise ReproError(
                f"the batch timeout must be > 0 seconds, got {override}")
        return override
    return env_float(BATCH_TIMEOUT_ENV, None, minimum=0.0, exclusive=True)


def analysis_cache_mode() -> str:
    """The sharing mode: ``"off"``, ``"mem"``, or ``"disk"`` (two-tier)."""
    raw = os.environ.get(ANALYSIS_CACHE_ENV, "1").strip().lower()
    if raw == "0":
        return "off"
    if raw == "mem":
        return "mem"
    return "disk"


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
