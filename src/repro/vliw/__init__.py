"""``repro.vliw`` — a VLIW software-pipelining backend.

The second hardware backend of the reproduction: issue-slot machines in
the tradition modulo scheduling grew up on, plugged in behind the same
``Target`` / :mod:`repro.hw.schedulers` seams the ACEV FPGA datapath
uses.  Three pieces:

* :mod:`repro.vliw.machine` — the machine description
  (:class:`VLIWOperatorLibrary`: issue width, ALU/MUL/MEM/BR unit
  counts, register-file size, rotating registers) expressed through the
  generic :meth:`~repro.hw.ops.OperatorLibrary.resource_slots` /
  :meth:`~repro.hw.ops.OperatorLibrary.node_resources` hooks, so every
  scheduler (``list``/``modulo``/``backtrack``/``exact``) retargets
  without modification;
* :mod:`repro.vliw.pressure` — register-pressure accounting (MaxLive
  under modulo execution; modulo-variable-expansion copies without
  rotation) driving the compilation pipeline's II bump, and the
  schedule-independent recurrence floor that rejects hopeless designs
  before any scheduling;
* :mod:`repro.vliw.simulate` — a cycle-accurate replay that executes
  issue bundles *with values* and cross-checks them against the IR
  interpreter.

Select it with the ``vliw4`` target::

    repro explore --kernel iir --target vliw4 --pareto
    repro tables --target vliw4::mul=2,regs=128
"""

from repro.vliw.machine import (  # noqa: F401
    VLIW4_LIBRARY, VLIW_OP_CLASSES, VLIWOperatorLibrary, op_class,
)
from repro.vliw.pressure import (  # noqa: F401
    PressureInfo, max_live, pressure_floor, register_pressure,
    rotating_copies,
)
from repro.vliw.simulate import (  # noqa: F401
    VLIWReplay, interpreter_reference, random_live_ins, vliw_replay,
)

__all__ = [
    "VLIW4_LIBRARY", "VLIW_OP_CLASSES", "VLIWOperatorLibrary", "op_class",
    "PressureInfo", "max_live", "pressure_floor", "register_pressure",
    "rotating_copies",
    "VLIWReplay", "interpreter_reference", "random_live_ins", "vliw_replay",
]
