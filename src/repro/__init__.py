"""Reproduction of *Efficient Pipelining of Nested Loops: Unroll-and-Squash*
(Darin S. Petkov, IPPS 2002 / MIT MEng thesis 2001).

Layered public API:

* :mod:`repro.ir` — typed structured loop IR, builder, interpreter;
* :mod:`repro.analysis` — liveness, induction variables, dependence tests;
* :mod:`repro.transforms` — §4.2 if-conversion, unroll-and-jam, and
  three-address lowering;
* :mod:`repro.core` — the unroll-and-squash transformation;
* :mod:`repro.hw` — operator library with a generalized resource model,
  scheduler registry, area/register model;
* :mod:`repro.vliw` — the VLIW backend: machine descriptions,
  register-pressure accounting, cycle-accurate value-level replay;
* :mod:`repro.pipeline` — the staged compilation pipeline (typed stage
  artifacts, declarative variant plans, shared base analysis);
* :mod:`repro.nimble` — Nimble-Compiler-style driver (profiling, kernels,
  variant compilation);
* :mod:`repro.workloads` — Skipjack/DES/IIR and the Table 1.1 suite;
* :mod:`repro.explore` — declarative design spaces and the parallel
  evaluation engine;
* :mod:`repro.harness` — experiment runners regenerating every table/figure.

:func:`repro.clear_caches` drops every process-local cache plus the
persistent exploration result cache (the hermeticity hook tests and
benchmarks call between runs).
"""

__version__ = "1.1.0"

from repro.caches import clear_caches, register_cache  # noqa: F401
from repro.errors import (  # noqa: F401
    InterpError, IRError, LegalityError, ReproError, ScheduleError,
    TypeMismatchError, ValidationError,
)
