"""Independent static verification of pipeline artifacts.

This package is the paper reproduction's safety net: checkers that
*re-derive* the invariants the compiler relies on instead of trusting
the data structures that claim them.  Three layers:

* :mod:`repro.verify.structural` — DFG/SSA/edge-view well-formedness,
  which only the ``on``/``strict`` modes run, so it is not re-exported
  here: import it as ``repro.verify.structural``;
* :mod:`repro.verify.schedule` — an independent re-verifier that
  re-checks every modulo-scheduling precedence constraint and rebuilds
  the reservation table from scratch, deliberately sharing no code with
  :mod:`repro.hw.modulo` or :mod:`repro.hw.sched_kernel`, plus
  strict-mode re-derivations (MaxLive recount, MII lower bounds);
* :mod:`repro.verify.lint` — a scheduling-free static linter for
  ``.lang`` sources.  It is not re-exported here: it pulls in the whole
  :mod:`repro.lang` front end, which a compile worker never needs, so
  import it as ``repro.verify.lint``.

The pipeline's validate stage runs the schedule re-verifier on every
design.  The validated ``REPRO_VERIFY`` knob (:func:`repro.env.verify_mode`)
adds the structural checks after the analyze stage (``on``) and the
strict re-derivations on top (``strict``); ``repro verify`` and
``repro lint`` expose the checkers from the command line.  All checkers
are observers: enabling them never changes any artifact or result.
"""

from repro.verify.findings import Finding, raise_findings
from repro.verify.schedule import (
    crosscheck_pressure, independent_rec_mii, independent_res_mii,
    reverify_list, reverify_modulo, verify_design_point, verify_scheduled,
)

__all__ = [
    "Finding", "crosscheck_pressure", "independent_rec_mii",
    "independent_res_mii", "raise_findings", "reverify_list",
    "reverify_modulo", "verify_design_point", "verify_scheduled",
]
