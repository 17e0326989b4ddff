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
from array import array
from typing import Optional

from repro.caches import Memo
from repro.core.dfg import DFG
from repro.hw.mii import EdgeView
from repro.hw.modulo import search_context
from repro.hw.ops import OperatorLibrary, cached_resource_map

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
        body = ctx["sig_body"] = _signature_body(dfg, lib, edges,
                                                 ctx["dmap"])
    digest = hashlib.sha256(f"{flavor}|{max_ii}|{min_ii}|".encode())
    digest.update(body)
    return digest.hexdigest()[:32]


def _signature_body(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
                    dmap: dict[int, int]) -> bytes:
    """The triple's part of a signature, packed as 64-bit integers.

    Resources are numbered by name order.  Every variable-length run
    (the resource table, each node's resources, both edge lists) is
    preceded by its length, so equal bytes mean equal content; the
    resource names follow the integers.
    """
    slots = lib.resource_slots()
    names = sorted(slots)
    index = {r: i for i, r in enumerate(names)}
    # the few distinct resource tuples, each as (count, *indices)
    rmap = cached_resource_map(dfg, lib)
    codes = {res: (len(res), *[index[r] for r in res])
             for res in set(rmap.values())}
    ints = [len(names), *[slots[r] for r in names], len(dfg.nodes)]
    for n in dfg.nodes:
        ints += (n.nid, dmap[n.nid])
        ints += codes[rmap[n.nid]]
    ints.append(len(edges))
    for src, dst, dist in edges:
        ints += (src.nid, dst.nid, dist)
    ints.append(len(dfg.edges))
    for e in dfg.edges:
        ints += (e.src.nid, e.dst.nid, e.dist)
    return array("q", ints).tobytes() + "\0".join(names).encode()
