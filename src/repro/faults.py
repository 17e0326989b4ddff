"""Deterministic fault injection for chaos-testing the sweep engine.

``REPRO_FAULTS`` selects a *fault plan* — a comma-separated list of
``kind@site:probability`` clauses, e.g.::

    REPRO_FAULTS=crash@worker:0.3,hang@worker:0.1,torn@store:0.5
    REPRO_FAULTS_SEED=7

Each *site* is a named point the production code threads through this
module (:func:`fault_site` / :func:`torn_write`); when no plan is
configured both are no-ops, so the hot path pays one memoized
environment lookup.  Decisions are **deterministic**: whether a fault
fires at ``(kind, site, key)`` is a pure function of the seed and the
key (a SHA-256 coin flip), never of wall-clock time or a mutable RNG
stream.  Sites pick keys that make the determinism useful — the worker
site keys by ``(query hash, attempt)`` so a crashed query draws a fresh
coin on retry, while the store/cache sites key by the record's content
hash alone so a torn artifact is torn *every* time and the read-side
recovery path is exercised on every run.

Supported faults per site:

========  =======================  ====================================
site      kinds                    effect
========  =======================  ====================================
worker    ``crash``, ``hang``      ``crash`` kills the worker process
                                   (``os._exit``) so the pool breaks;
                                   ``hang`` sleeps far past any batch
                                   timeout.  In the *main* process both
                                   raise (:class:`InjectedCrash` /
                                   :class:`InjectedHang`) instead, so a
                                   ``--jobs 1`` sweep degrades to the
                                   retry/quarantine path rather than
                                   killing or wedging the CLI.
store     ``torn``                 the artifact publish writes a
                                   truncated pickle straight to the
                                   final path (simulating a writer that
                                   died mid-publish without the atomic
                                   rename); readers must treat it as a
                                   miss.
cache     ``torn``                 the result-cache append writes half
                                   a JSON line with no newline; the
                                   read-side line parser must drop it.
========  =======================  ====================================

The plan is parsed and validated eagerly (:func:`active_plan` raises
:class:`~repro.errors.ReproError` on garbage, like every other knob) so
a typo surfaces in the parent process before any worker forks.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Faults this process actually fired (main-process raises and torn
#: publishes).  Worker-side crash/hang faults kill or wedge the process
#: before any payload ships, so they cannot count themselves — the
#: supervisor's retry/timeout counters are the observable record there.
_INJECTED = obs_metrics.counter("faults.injected")

__all__ = ["FAULTS_ENV", "FAULTS_SEED_ENV", "FaultPlan", "FaultRule",
           "InjectedCrash", "InjectedFault", "InjectedHang", "active_plan",
           "fault_site", "parse_faults", "torn_write"]

FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Site -> fault kinds that make sense there (validated at parse time).
SITES: dict[str, tuple[str, ...]] = {
    "worker": ("crash", "hang"),
    "store": ("torn",),
    "cache": ("torn",),
}

#: How long a ``hang`` fault sleeps in a worker — far past any sane
#: ``--timeout``, so the supervisor's straggler handling (not the sleep
#: expiring) is what recovers the sweep.
_HANG_SECONDS = 3600.0

#: Process exit code of an injected worker crash (SIGKILL-ish, distinct
#: from real Python tracebacks so post-mortems can tell them apart).
CRASH_EXIT_CODE = 113


class InjectedFault(ReproError):
    """Base of the main-process forms of injected faults."""


class InjectedCrash(InjectedFault):
    """A ``crash`` fault fired in the main process (no pool to kill)."""


class InjectedHang(InjectedFault):
    """A ``hang`` fault fired in the main process (nothing may sleep)."""


@dataclass(frozen=True)
class FaultRule:
    """One ``kind@site:prob`` clause of a fault plan."""

    kind: str
    site: str
    prob: float


class FaultPlan:
    """A parsed, validated ``REPRO_FAULTS`` specification."""

    def __init__(self, rules: "list[FaultRule]", seed: int = 0):
        self.seed = seed
        self.rules: dict[tuple[str, str], float] = {}
        for rule in rules:
            self.rules[(rule.kind, rule.site)] = rule.prob

    def __bool__(self) -> bool:
        return bool(self.rules)

    def prob(self, kind: str, site: str) -> float:
        return self.rules.get((kind, site), 0.0)

    def decide(self, kind: str, site: str, key: str) -> bool:
        """Deterministic coin flip: does ``kind`` fire at ``site``/``key``?

        A pure function of (seed, kind, site, key) — the same sweep with
        the same plan makes the same decisions in any process, on any
        worker, in any order.
        """
        p = self.prob(kind, site)
        if p <= 0.0:
            return False
        blob = f"{self.seed}|{kind}|{site}|{key}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") < p * 2.0 ** 64


def parse_faults(spec: str, seed: int = 0) -> FaultPlan:
    """Parse ``kind@site:prob,...``; garbage raises :class:`ReproError`."""
    rules: list[FaultRule] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        kind, at, rest = clause.partition("@")
        site, colon, prob_s = rest.partition(":")
        if not at or not colon:
            raise ReproError(
                f"{FAULTS_ENV} clause {clause!r} is malformed; the "
                "grammar is kind@site:probability, e.g. crash@worker:0.3")
        kind, site = kind.strip(), site.strip()
        if site not in SITES:
            raise ReproError(
                f"{FAULTS_ENV} clause {clause!r} names unknown site "
                f"{site!r}; known sites: {', '.join(sorted(SITES))}")
        if kind not in SITES[site]:
            raise ReproError(
                f"{FAULTS_ENV} clause {clause!r}: site {site!r} supports "
                f"{'/'.join(SITES[site])}, not {kind!r}")
        try:
            prob = float(prob_s)
        except ValueError:
            raise ReproError(
                f"{FAULTS_ENV} clause {clause!r}: probability {prob_s!r} "
                "is not a number") from None
        if not 0.0 < prob <= 1.0:
            raise ReproError(
                f"{FAULTS_ENV} clause {clause!r}: probability must be in "
                "(0, 1]")
        rules.append(FaultRule(kind, site, prob))
    return FaultPlan(rules, seed=seed)


#: Memo of the parsed plan keyed by the raw (spec, seed) env strings, so
#: the hot path re-parses only when the environment actually changes
#: (tests flip it mid-process via monkeypatch).
_PLAN_MEMO: "tuple[Optional[str], Optional[str], Optional[FaultPlan]]" = \
    (None, None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan selected by the environment, or ``None`` when unset."""
    global _PLAN_MEMO
    spec = os.environ.get(FAULTS_ENV)
    seed_raw = os.environ.get(FAULTS_SEED_ENV)
    if (spec, seed_raw) == _PLAN_MEMO[:2]:
        return _PLAN_MEMO[2]
    if spec is None or not spec.strip():
        plan = None
    else:
        from repro.env import env_int
        seed = env_int(FAULTS_SEED_ENV, 0) or 0
        plan = parse_faults(spec, seed=seed) or None
    _PLAN_MEMO = (spec, seed_raw, plan)
    return plan


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def fault_site(site: str, key: str) -> None:
    """Crash/hang injection point; a no-op without a configured plan."""
    plan = active_plan()
    if plan is None:
        return
    if plan.decide("crash", site, key):
        if _in_worker_process():
            os._exit(CRASH_EXIT_CODE)
        _INJECTED.add()
        obs_trace.instant("fault.crash", "faults", site=site, key=key)
        raise InjectedCrash(f"injected crash at {site} ({key})")
    if plan.decide("hang", site, key):
        if _in_worker_process():
            time.sleep(_HANG_SECONDS)
        _INJECTED.add()
        obs_trace.instant("fault.hang", "faults", site=site, key=key)
        raise InjectedHang(f"injected hang at {site} ({key})")


def torn_write(site: str, key: str) -> bool:
    """Should this publish be torn?  ``False`` without a plan."""
    plan = active_plan()
    torn = plan is not None and plan.decide("torn", site, key)
    if torn:
        _INJECTED.add()
        obs_trace.instant("fault.torn", "faults", site=site, key=key)
    return torn
