"""Self-tests of the benchmark itself (not of the program under test).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that the seeded inputs are reproducible and seed-sensitive, that
restoring a snapshot leaves it untouched, that every name the benchmark
reports is well-formed and matches ``BENCHMARK.json``, and that layer
self times plus ``unattributed_s`` add up to the traced wall.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_same_inputs():
    from workloads import NAMES, lang_sources, prepare, space_queries

    assert lang_sources() == lang_sources()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in NAMES:
            a = prepare(workload, 7, pathlib.Path(tmp))
            sources = sorted(pathlib.Path(tmp).rglob("*.lang"))
            texts = [p.read_bytes() for p in sources]
            b = prepare(workload, 7, pathlib.Path(tmp))
            assert a == b, workload
            assert [p.read_bytes() for p in sources] == texts, workload
            assert space_queries(a.argv) == space_queries(b.argv), workload


def test_different_seed_different_kernels():
    from workloads import lang_sources, prepare

    assert len(set(lang_sources())) == len(lang_sources())
    with tempfile.TemporaryDirectory() as tmp:
        a = prepare("lang-resume", 7, pathlib.Path(tmp))
        b = prepare("lang-resume", 8, pathlib.Path(tmp))
        # another seed pre-sweeps (and so compiles) other kernels
        assert a.snapshot_argv != b.snapshot_argv
        assert sorted(a.argv) == sorted(b.argv)


def test_restore_leaves_snapshot_unchanged():
    from measure import restore, tree_digest

    with tempfile.TemporaryDirectory() as tmp:
        snap, dest = pathlib.Path(tmp, "snap"), pathlib.Path(tmp, "run")
        (snap / "analysis" / "v1").mkdir(parents=True)
        (snap / "results-v1.jsonl").write_text('{"hash": "a"}\n')
        (snap / "analysis" / "v1" / "base-x.pkl").write_bytes(b"\x80\x05.")
        before = tree_digest(snap)
        for _ in range(2):
            restore(snap, dest)
            assert tree_digest(dest) == before
            with open(dest / "results-v1.jsonl", "a") as fh:
                fh.write('{"hash": "b"}\n')
            (dest / "analysis" / "v1" / "base-y.pkl").write_bytes(b"new")
        assert tree_digest(snap) == before


def test_names_are_well_formed_and_declared():
    from run import END_TO_END
    from traced import METRICS
    from workloads import NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert declared == list(NAMES)
    assert e2e == [name for name, _ in END_TO_END]
    assert layers == [name for name, _ in METRICS]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    assert units == {**dict(END_TO_END), **dict(METRICS)}
    names = declared + e2e + layers
    assert len(names) == len(set(names))
    for name in names + list(units.values()):
        assert NAME.fullmatch(name), name


def test_self_times_add_up_to_the_wall():
    from spans import Recorder, self_times
    from traced import LAYERS, layer_metrics

    rec = Recorder()
    with rec.span("cli.import"):
        pass
    with rec.span("cli.main"):
        with rec.span("explore.dispatch"):
            for _ in range(3):
                with rec.span("pipeline.compile"):
                    with rec.span("analysis.jam"):
                        with rec.span("analysis.base"):
                            with rec.span("store.get"):
                                pass
                    with rec.span("hw.schedule"):
                        sum(range(1000))
                    with rec.span("unlisted.layer"):
                        pass
        with rec.span("report.format"):
            pass
    t_spawn = rec.spans[0].start - 0.05
    wall = max(s.end for s in rec.spans) - t_spawn + 0.01
    report = {"t_enter": t_spawn + 0.04, "layers": self_times(rec.spans),
              "counts": {}, "registry": {}}
    m = layer_metrics(report, t_spawn, wall, wall - 0.02, 0, 0)
    parts = sum(m[f"{name}_s"] for name in LAYERS)
    assert abs(parts + m["unattributed_s"] - wall) < 1e-12
    # the unlisted span and the gaps around the roots are unattributed
    assert m["unattributed_s"] >= 0.01
    span_self = self_times(rec.spans)
    roots = sum(s.duration for s in rec.spans if s.parent < 0)
    assert abs(sum(r["self"] for r in span_self.values()) - roots) < 1e-12
    assert span_self["pipeline.compile"]["calls"] == 3
    assert all(row["self"] >= 0 for row in span_self.values())


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit 1
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
