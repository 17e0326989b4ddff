"""Schedule-stage replay: a batch schedules each scheduling problem once.

On ``vliw4`` des-mem and des-hw pose the same modulo-scheduling problem
in every variant, so in one batch des-hw replays des-mem's
schedule-stage outcomes instead of placing anything.  A replay is keyed
by content; a design that differs in anything the search, the pressure
floor or the register-pressure walk reads schedules on its own.
"""

import copy

import pytest

import repro
from repro.explore import DesignQuery, SkipRecord
from repro.hw.mii import default_edge_view
from repro.hw.modulo import search_signature
from repro.nimble.compiler import _kernel_program, compile_query_batch
from repro.nimble.target import decode_target
from repro.obs import metrics as obs_metrics
from repro.pipeline.analysis import base_analyzed_dfg
from repro.pipeline.pipeline import _replay_key

DESIGNS = [("jam", 4), ("jam", 16), ("squash", 8)]


def _queries(kernel, target="vliw4"):
    return [DesignQuery(kernel, variant, ds=ds, target_spec=target)
            for variant, ds in DESIGNS]


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.clear_caches(memory_only=True)
    yield
    repro.clear_caches(memory_only=True)


def _effort(queries, monkeypatch):
    """Compile ``queries`` as one batch from fresh memos; returns the
    results, the placement passes, ``register_pressure`` calls and
    replays the batch made."""
    from repro.vliw import pressure

    calls = []
    counted = pressure.register_pressure

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(pressure, "register_pressure", counting)
    repro.clear_caches(memory_only=True)
    before = obs_metrics.registry().snapshot()
    results = compile_query_batch(queries)["results"]
    delta = obs_metrics.registry().delta_since(before)["counters"]
    monkeypatch.setattr(pressure, "register_pressure", counted)
    return (results, delta.get("sched_kernel_numpy_attempts", 0),
            len(calls), delta.get("sched.replays", 0))


class TestReplay:
    def test_the_twin_replays_without_placing(self, monkeypatch):
        mem, passes, walks, replays = _effort(_queries("des-mem"),
                                              monkeypatch)
        assert passes > 0 and walks > 0 and replays == 0
        both, passes2, walks2, replays2 = _effort(
            _queries("des-mem") + _queries("des-hw"), monkeypatch)
        # des-hw adds no placement pass and no register-pressure count
        assert (passes2, walks2, replays2) == (passes, walks, len(DESIGNS))
        assert both[:len(DESIGNS)] == mem

    def test_replayed_records_equal_the_unshared_route(self, monkeypatch):
        queries = _queries("des-mem") + _queries("des-hw")
        shared, _, _, replays = _effort(queries, monkeypatch)
        assert replays == len(DESIGNS)
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        unshared, _, _, replays = _effort(queries, monkeypatch)
        assert replays == 0
        assert shared == unshared

    def test_a_replayed_reject_names_its_own_kernel(self, monkeypatch):
        queries = _queries("des-mem") + _queries("des-hw")
        results, _, _, _ = _effort(queries, monkeypatch)
        rejects = [(q, r) for q, r in zip(queries, results)
                   if isinstance(r, SkipRecord) and r.phase == "schedule"]
        kernels = [q.kernel for q, _ in rejects]
        assert kernels.count("des-mem") == kernels.count("des-hw") > 0
        for q, r in rejects:
            other = "des-hw" if q.kernel == "des-mem" else "des-mem"
            assert r.reason.startswith(f"{q.kernel}/"), r.reason
            assert other not in r.reason

    def test_a_registered_strategy_always_schedules(self, plant_scheduler,
                                                    monkeypatch):
        # the key covers what the built-in searches read; a strategy of
        # one's own may read more, so none of its designs replay
        from repro.hw.schedulers import scheduler_by_name

        base = scheduler_by_name("modulo")
        searched = []

        class Own:
            name, pipelined = "modulo", True

            def schedule(self, dfg, lib, edges=None, max_ii=None,
                         min_ii=None):
                searched.append(dfg)
                return base.schedule(dfg, lib, edges=edges, max_ii=max_ii,
                                     min_ii=min_ii)

        plant_scheduler(Own())
        mem, _, _, _ = _effort(_queries("des-mem"), monkeypatch)
        alone = len(searched)
        both, _, _, replays = _effort(
            _queries("des-mem") + _queries("des-hw"), monkeypatch)
        assert replays == 0
        assert alone > 0 and len(searched) == 3 * alone
        assert both[:len(DESIGNS)] == mem

    def test_a_single_kernel_batch_keys_nothing(self, monkeypatch):
        from repro.pipeline import pipeline

        keyed = []
        monkeypatch.setattr(pipeline, "_replay_key",
                            lambda *a: keyed.append(a) or _replay_key(*a))
        compile_query_batch(_queries("des-mem"))
        assert keyed == []


class TestReplayKey:
    @pytest.mark.parametrize("twin", ["vliw4::regs=32",
                                      "vliw4::rotating=0"])
    def test_another_register_file_schedules_again(self, twin,
                                                   monkeypatch):
        queries = _queries("des-mem") + _queries("des-hw", twin)
        _, _, _, replays = _effort(queries, monkeypatch)
        assert replays == 0

    @pytest.mark.parametrize("kind,swap,target", [
        ("const", "reg", "vliw4"),
        # with a load's latency a store looks like a load to the search
        ("load", "store", "vliw4::delay.store=2")])
    def test_one_node_of_another_kind_keys_apart(self, kind, swap, target):
        lib = decode_target(target).library
        analyzed = base_analyzed_dfg(*_kernel_program("des-mem"))
        twin = copy.deepcopy(analyzed)
        node = next(n for n in twin.dfg.nodes if n.kind == kind)
        node.kind = swap
        # the II search cannot tell the two apart ...
        assert search_signature(twin.dfg, lib, default_edge_view(twin.dfg),
                                "modulo") == \
            search_signature(analyzed.dfg, lib,
                             default_edge_view(analyzed.dfg), "modulo")
        # ... but MaxLive and the MVE count can
        assert _replay_key("modulo", twin, lib) != \
            _replay_key("modulo", analyzed, lib)
        assert _replay_key("modulo", copy.deepcopy(analyzed), lib) == \
            _replay_key("modulo", analyzed, lib)
