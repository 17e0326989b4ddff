"""Scheduler parity across the full workload suite (ISSUE satellite).

Every pipelined variant of every Table 6.1 workload must schedule under
both modulo strategies and pass the independent re-verifier (the
pipeline's validate stage raises otherwise), and the backtracking
scheduler must never
return a worse II than the iterative modulo scheduler.
"""

import pytest

from repro.explore import DesignSpace, evaluate
from repro.verify import reverify_modulo
from repro.workloads import table_6_1_benchmarks

FACTORS = (2, 4)
PIPELINED_VARIANTS = ("pipelined", "squash", "jam")


@pytest.fixture(scope="module")
def parity_result():
    kernels = tuple(bm.name for bm in table_6_1_benchmarks())
    space = DesignSpace(kernels=kernels, variants=PIPELINED_VARIANTS,
                        factors=FACTORS,
                        schedulers=("modulo", "backtrack"))
    return evaluate(space.enumerate(), jobs=None)


def test_every_design_schedules_under_both_strategies(parity_result):
    assert not parity_result.skips(), \
        [(s.label, s.reason) for s in parity_result.skips()]
    points = parity_result.points()
    # 5 kernels x (pipelined + 2 squash + 2 jam) x 2 schedulers
    assert len(points) == 5 * 5 * 2


def test_backtracking_never_worse_than_iterative(parity_result):
    by_design = {}
    for q, p in parity_result.pairs():
        by_design[(q.kernel, q.variant, q.ds, q.scheduler)] = p
    compared = 0
    for (kernel, variant, ds, sched), p in by_design.items():
        if sched != "modulo":
            continue
        bt = by_design[(kernel, variant, ds, "backtrack")]
        assert bt.ii <= p.ii, \
            f"{kernel}/{variant}({ds}): backtrack II {bt.ii} > " \
            f"modulo II {p.ii}"
        compared += 1
    assert compared == 5 * 5


def test_backtracking_schedule_replay_validates_directly():
    """Belt and braces: replay one backtracking schedule by hand."""
    from repro.analysis import find_loop_nests
    from repro.core import analyze_nest
    from repro.hw import ACEV_LIBRARY, squash_distances
    from repro.hw.schedulers import backtracking_modulo_schedule
    from tests.conftest import build_fig41

    prog = build_fig41()
    nest = find_loop_nests(prog)[0]
    _, _, _, dfg, sa, _ = analyze_nest(prog, nest, 4,
                                       delay_fn=ACEV_LIBRARY.delay)
    edges = squash_distances(dfg, sa)
    sched = backtracking_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
    assert reverify_modulo(dfg, ACEV_LIBRARY, sched, edges) == []
