"""The paper's primary contribution: the unroll-and-squash transformation.

Public surface::

    from repro.core import unroll_and_squash, jam_then_squash, check_squash

    result = unroll_and_squash(program, nest, ds=4)
    result.program              # transformed, runnable IR
    result.dfg                  # inner-loop data-flow graph (Fig. 4.1)
    result.stages               # DS-stage pipeline assignment (Fig. 4.2)
    result.chains               # shift-register chains / register count

The code emitter (:mod:`repro.core.emit`) is imported from its module:
a design-space sweep analyzes nests but never emits their transformed
code.
"""

from repro.core.dfg import DFG, DFGEdge, DFGNode, build_dfg  # noqa: F401
from repro.core.stages import (  # noqa: F401
    ChainInfo, StageAssignment, assign_stages, default_delay, register_chains,
)
from repro.core.legality import SquashCheck, check_squash  # noqa: F401
from repro.core.squash import (  # noqa: F401
    SquashResult, analyze_nest, jam_then_squash, unroll_and_squash,
)
