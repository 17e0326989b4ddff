"""In-memory memo of II-search outcomes (the incremental II search).

The modulo schedulers walk candidate IIs upward from
``max(RecMII, ResMII)``; for every II below the answer they burn a full
placement-and-repair budget (and the exact scheduler a complete
branch-and-bound refutation) only to fail.  Those failures are
*deterministic facts* about the (DFG, edge view, operator library)
triple: a replayed search fails at exactly the same IIs, with exactly
the same intermediate states.  This module records them — per search
*flavor* (``modulo``/``backtrack``/``exact``, which differ in their
placement-order sets) — so a later search over the same design skips
every provably failing candidate and pays for exactly one placement at
the answer.  RecMII/ResMII ride along, which also skips the
Bellman-Ford lambda probes on a warm search.

Records are keyed by a content signature over everything the search
reads: node delays, per-node resource occupancy, the edge-distance
view, the target's full resource-slot description, the flavor, and the
``max_ii``/``min_ii`` caps.  :data:`MEMO` holds them in memory, for
the life of the process.  Object identity plays no role — the key is
content, so it also hits across schedulers, targets and kernels that
pose the same scheduling problem within one process, e.g. the exact
scheduler's internal backtracking upper-bound probe.  It has no disk
tier: on the benchmark sweeps another process poses the same problem
only when the suite is retargeted to vliw4 (skipjack/des ``-mem`` and
``-hw`` coincide), and the engine batches those kernels into one worker,
where the pipeline replays a whole design's schedule-stage outcome
(:class:`repro.pipeline.CompilationPipeline`) before any search would
consult this memo.

Because a memo hit only *skips refuted candidates* — the winning II is
still re-placed/re-decided by the ordinary machinery — the resulting
schedule is bit-identical to the from-scratch search's (guarded by the
differential suite in ``tests/hw/test_exact_oracle.py``).

``REPRO_ANALYSIS_CACHE=0`` disables the memo entirely.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.caches import Memo
from repro.core.dfg import DFG
from repro.hw.mii import EdgeView
from repro.hw.modulo import search_context
from repro.hw.ops import OperatorLibrary

__all__ = ["MEMO", "search_signature"]

#: signature -> record (records are tiny dicts); shared analysis, so
#: ``REPRO_ANALYSIS_CACHE=0`` turns it off.
MEMO = Memo("iimemo", 4096, shared=True)


def search_signature(dfg: DFG, lib: OperatorLibrary,
                     edges: EdgeView, flavor: str,
                     max_ii: Optional[int] = None,
                     min_ii: Optional[int] = None) -> str:
    """Content hash of one II-search problem instance.

    Covers every input the search reads: per-node (delay, occupied
    resources), the edge-distance view, the DFG's *raw* edges (their
    distance-0 subgraph drives ``topo_order`` and the slack orders, and
    relaxation erases raw-distance information, so the view alone would
    under-key the placement order), the full resource description
    (every declared resource's slot capacity — not just the memory
    bus), the strategy flavor (which fixes the placement-order set),
    and the ``max_ii`` / ``min_ii`` caps.  Node ids are
    construction-deterministic, so the signature is stable across
    processes.

    Everything below the per-search header is a function of the
    (dfg, lib, edges) triple alone, so it is built once per triple into
    the II search's context (:func:`repro.hw.modulo.search_context`):
    the register-pressure II bump re-signs the same triple once per
    floor and pays only for the header and the hash.
    """
    ctx = search_context(dfg, lib, edges)
    body = ctx.get("sig_body")
    if body is None:
        dmap = ctx["dmap"]
        slots = ",".join(f"{r}={c}" for r, c in sorted(lib.resource_slots()
                                                       .items()))
        parts = [slots]
        parts += [f"{n.nid}:{dmap[n.nid]}:"
                  f"{'+'.join(lib.node_resources(n))}" for n in dfg.nodes]
        parts.append("view")
        parts += [f"{s.nid}>{d.nid}:{dist}" for s, d, dist in edges]
        parts.append("raw")
        parts += [f"{e.src.nid}>{e.dst.nid}:{e.dist}" for e in dfg.edges]
        body = ctx["sig_body"] = "|".join(parts)
    return hashlib.sha256(f"{flavor}|{max_ii}|{min_ii}|{body}"
                          .encode()).hexdigest()[:32]

