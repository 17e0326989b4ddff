"""Kernel extraction and selection (thesis §5.2).

The Nimble Compiler "extracts the computation-intensive inner loops
(kernels) from C applications" and selects which versions to map to
hardware "based on the profiling data, a feasibility analysis, and a
quick synthesis step".  We reproduce the pipeline:

1. candidate nests come from user ``kernel`` annotations (the thesis's
   implementation found "the loop nests to be transformed, identified by
   user annotations", §5.3) or, absent those, from profiling;
2. feasibility = the squash legality check;
3. quick synthesis = a DS=1 schedule providing the baseline II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.loops import LoopNest, find_kernel_nests, find_loop_nests
from repro.core.legality import SquashCheck, check_squash
from repro.ir.nodes import Program
from repro.nimble.profile import profile_program

if TYPE_CHECKING:
    import numpy as np

__all__ = ["KernelCandidate", "extract_kernels", "select_kernel"]


@dataclass
class KernelCandidate:
    """A loop nest considered for hardware mapping."""

    nest: LoopNest
    annotated: bool
    check: SquashCheck
    profiled_share: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.check.ok


def extract_kernels(program: Program, ds_hint: int = 2,
                    params: Optional[dict[str, int]] = None,
                    arrays: Optional[dict[str, np.ndarray]] = None,
                    run_profile: bool = False) -> list[KernelCandidate]:
    """All candidate nests with feasibility (and optionally profile) data."""
    annotated = find_kernel_nests(program)
    nests = annotated or find_loop_nests(program)
    shares: dict[str, float] = {}
    if run_profile:
        for lp in profile_program(program, params, arrays):
            shares[lp.label] = lp.share
    out = []
    for nest in nests:
        chk = check_squash(program, nest, ds_hint)
        share = shares.get(f"for({nest.inner.var})@d1", 0.0)
        out.append(KernelCandidate(nest=nest, annotated=nest in annotated,
                                   check=chk, profiled_share=share))
    return out


def select_kernel(program: Program, ds_hint: int = 2) -> KernelCandidate:
    """The kernel the driver compiles: first feasible candidate,
    preferring annotated nests."""
    cands = extract_kernels(program, ds_hint)
    for c in cands:
        if c.feasible:
            return c
    if cands:
        return cands[0]
    raise LookupError(f"no loop nest found in program {program.name!r}")
