"""Compiler analyses: loops, liveness, induction variables, dependences.

These are the MachSUIF-equivalent facts the thesis implementation consumed
(§5.3): loop structure, liveness at loop boundaries, data dependence
distances, and basic induction variables.
"""

from repro.analysis.loops import (  # noqa: F401
    LoopInfo, LoopNest, all_loops, direct_inner_loops, find_kernel_nests,
    find_loop_nests, loop_infos, trip_count,
)
from repro.analysis.usedef import (  # noqa: F401
    LoopLiveness, live_before, loop_liveness, stmt_uses, uses_of_expr,
)
from repro.analysis.induction import BasicIV, find_basic_ivs  # noqa: F401
from repro.analysis.ssa import SSABlock, base_name, is_straightline, ssa_rename  # noqa: F401
from repro.analysis.dependence import (  # noqa: F401
    AffineForm, DistanceKind, DistanceSet, MemAccess, affine_of,
    collect_accesses, outer_distance, squash_case,
)
from repro.analysis.parallel import ParallelismReport, check_outer_parallel  # noqa: F401
