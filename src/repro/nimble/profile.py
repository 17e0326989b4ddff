"""Loop profiling (thesis Table 1.1 and §5.2).

The Nimble front-end "profiles the program to obtain a full basic block
execution trace along with the loops that take most of the execution
time".  We reproduce that with the cost-accounting interpreter: every
operation's cost is attributed to all enclosing loops, then loops are
ranked by inclusive share of total execution cost.

``profile_program`` returns per-loop records; ``profile_summary``
collapses them into a Table 1.1 row: total loop count, loops above a
threshold share, and the total share covered by those hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.ir.interp import Interpreter
from repro.ir.nodes import Program

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LoopProfile", "ProfileSummary", "profile_program",
           "profile_summary"]


@dataclass
class LoopProfile:
    """One loop's dynamic statistics."""

    label: str
    depth: int
    iterations: int
    inclusive_cost: int
    share: float          # of total program cost


@dataclass
class ProfileSummary:
    """A Table 1.1 row."""

    name: str
    total_cost: int
    n_loops: int
    n_hot_loops: int                 # loops with share > threshold
    hot_share: float                 # combined share of the hot loops
    threshold: float
    loops: list[LoopProfile] = field(default_factory=list)


def profile_program(program: Program,
                    params: Optional[dict[str, int]] = None,
                    arrays: Optional[dict[str, np.ndarray]] = None,
                    ) -> list[LoopProfile]:
    """Run the program and return per-loop profiles sorted by cost."""
    res = Interpreter(program).run(params, arrays)
    total = max(res.total_cost, 1)
    out = [
        LoopProfile(label=rec.label, depth=rec.depth,
                    iterations=rec.iterations,
                    inclusive_cost=rec.inclusive_cost,
                    share=rec.inclusive_cost / total)
        for rec in res.loop_records.values()
    ]
    out.sort(key=lambda lp: -lp.inclusive_cost)
    return out


def profile_summary(program: Program,
                    params: Optional[dict[str, int]] = None,
                    arrays: Optional[dict[str, np.ndarray]] = None,
                    threshold: float = 0.01) -> ProfileSummary:
    """Produce a Table 1.1 row: loops, hot loops (> threshold), hot share.

    Following the paper's accounting, the combined share of the hot loops
    is measured by the *outermost* hot loops (so nested hot loops are not
    double counted).
    """
    res = Interpreter(program).run(params, arrays)
    total = max(res.total_cost, 1)
    loops = [
        LoopProfile(label=rec.label, depth=rec.depth,
                    iterations=rec.iterations,
                    inclusive_cost=rec.inclusive_cost,
                    share=rec.inclusive_cost / total)
        for rec in res.loop_records.values()
    ]
    loops.sort(key=lambda lp: -lp.inclusive_cost)
    hot = [lp for lp in loops if lp.share > threshold]
    # outermost hot loops only, to avoid double counting nested shares
    top_level_hot = [lp for lp in hot if lp.depth == 0]
    if top_level_hot:
        hot_share = min(1.0, sum(lp.share for lp in top_level_hot))
    else:
        hot_share = max((lp.share for lp in hot), default=0.0)
    return ProfileSummary(
        name=program.name, total_cost=res.total_cost, n_loops=len(loops),
        n_hot_loops=len(hot), hot_share=hot_share, threshold=threshold,
        loops=loops)
