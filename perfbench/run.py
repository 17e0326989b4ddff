"""The repository benchmark: ``repro explore`` sweeps, end to end and by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload acev-cold --seed 1 --seconds 10 \\
        --trace 0

Each run prepares the workload's seeded inputs and its cache-dir
snapshot, computes (or reuses) the strictly verified reference results,
then measures:

* ``--trace 0`` — the end-to-end metrics.  The workload's CLI command
  runs as a real ``python -m repro explore ... --jobs 2`` subprocess,
  each time from a fresh copy of the snapshot, until ``--seconds`` of
  sweep time have been measured; set-up is probed several times.
  Medians are reported.
* ``--trace 1`` — the per-layer metrics.  The command runs at
  ``--jobs 1`` once untraced and once in a traced process
  (``traced.py``) that records spans around each layer's entry points.

Every run's results are read back and compared with the reference
outside the timed region.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``RATIONALE.md`` for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Working state of a run (inputs, snapshots, cache dirs, references).
WORK = ROOT / ".perfbench_work"

#: Set-up probes per run; their median is ``setup_s``.
SETUP_PROBES = 9

END_TO_END = (("sweep_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cache_disk_mb", "MB"), ("ii_geomean", "II"),
              ("designs_ok", "count"), ("pass_ratio", "ratio"))

MB = 1024.0 * 1024.0


def _cli(argv, jobs: int) -> "list[str]":
    return ["-m", "repro", *argv, "--jobs", str(jobs)]


@dataclass
class Sweep:
    """One timed run of the workload command and what it left behind."""

    timed: object
    check: object
    #: cache-dir growth: in total, in the artifact stores, in results
    grew: int
    grew_store: int
    grew_results: int


def _usage(cache: pathlib.Path) -> "tuple[int, int, int]":
    from measure import dir_bytes
    store = dir_bytes(cache / "analysis") + dir_bytes(cache / "iisearch")
    return dir_bytes(cache), store, dir_bytes(cache, "results-")


class Run:
    """One benchmark invocation: inputs, snapshot, reference, results."""

    def __init__(self, workload: str):
        self.workload = workload
        self.dir: Optional[pathlib.Path] = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup(self, seed: int) -> None:
        """Inputs, the snapshot, and the reference results."""
        from check import reference_pass
        from workloads import prepare, space_queries

        WORK.mkdir(exist_ok=True)
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{self.workload}-",
                                                 dir=WORK))
        self.inputs = prepare(self.workload, seed, WORK)
        self.queries = space_queries(self.inputs.argv)
        self.snapshot = self.dir / "snapshot"
        self.snapshot.mkdir()
        if self.inputs.snapshot_argv is not None:
            timed = self.program(_cli(self.inputs.snapshot_argv, 2),
                                 self.snapshot, "snapshot")
            if timed.returncode != 0:
                raise RuntimeError("populating the snapshot failed: "
                                   f"exit {timed.returncode}")
        self.reference, findings = reference_pass(
            self.queries, WORK / "reference", self.dir / "ref-artifacts")
        self.golden = ROOT / "tests" / "data" if self.inputs.golden else None
        self.problems += [f"reference: {f}" for f in findings]

    def program(self, args, cache_dir: pathlib.Path, label: str):
        from measure import program_env, run_timed
        return run_timed(args, program_env(ROOT, cache_dir), ROOT,
                         self.dir / f"{label}.log")

    def sweep(self, args, label: str, stdout_of=None) -> Sweep:
        """Restore the snapshot, run ``args`` timed, check the results.

        ``stdout_of`` gives the command's output when the process does
        not print it itself (the traced pass).
        """
        from check import check_run
        from measure import restore

        cache = self.dir / "cache"
        restore(self.snapshot, cache)
        before = _usage(cache)
        timed = self.program(args, cache, label)
        after = _usage(cache)
        stdout = stdout_of() if stdout_of else timed.stdout
        result = check_run(cache, self.reference, timed.returncode, stdout,
                           self.inputs.expected_hit_ratio, self.golden)
        self.attempted += result.designs
        self.failed += result.failed
        self.problems += [f"{label}: {p}" for p in result.problems]
        return Sweep(timed, result, *(a - b for a, b in zip(after, before)))

    def end_to_end(self, seconds: float) -> dict:
        setup = []
        for _ in range(SETUP_PROBES):
            timed = self.program([str(HERE / "setup_probe.py"),
                                  *self.inputs.argv], self.dir / "probe",
                                 "probe")
            if timed.returncode != 0:
                self.problems.append(f"set-up probe exited with "
                                     f"{timed.returncode}")
            setup.append(timed.wall_s)
        runs: list[Sweep] = []
        while not runs or sum(r.timed.wall_s for r in runs) < seconds:
            runs.append(self.sweep(_cli(self.inputs.argv, 2), "sweep"))
        med = statistics.median
        return {
            "sweep_s": med(r.timed.wall_s for r in runs),
            "setup_s": med(setup),
            "peak_rss_mb": med(r.timed.peak_rss_mb for r in runs),
            "cache_disk_mb": med(r.grew for r in runs) / MB,
            "ii_geomean": med(r.check.ii_geomean for r in runs),
            "designs_ok": med(r.check.points for r in runs),
            "pass_ratio": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self, seconds: float) -> dict:
        from traced import LAYERS, layer_metrics

        path = self.dir / "traced.json"

        def report() -> dict:
            if not path.is_file():
                raise RuntimeError("the traced pass wrote no report; see "
                                   f"{self.dir / 'traced.err'}")
            return json.loads(path.read_text())

        samples: list[dict] = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            plain = self.sweep(_cli(self.inputs.argv, 1), "plain")
            path.unlink(missing_ok=True)
            traced = self.sweep([str(HERE / "traced.py"), str(path),
                                 *self.inputs.argv, "--jobs", "1"],
                                "traced", stdout_of=lambda: report()["stdout"])
            wall = traced.timed.wall_s
            metrics = layer_metrics(report(), traced.timed.t_spawn, wall,
                                    plain.timed.wall_s, traced.grew_store,
                                    traced.grew_results)
            parts = sum(metrics[f"{name}_s"] for name in LAYERS)
            if abs(parts + metrics["unattributed_s"] - wall) > 1e-9 \
                    or metrics["unattributed_s"] < 0:
                self.problems.append(
                    f"layer self times ({parts:.6f}s) exceed or do not "
                    f"add up to the traced wall ({wall:.6f}s)")
            samples.append(metrics)
        return {k: statistics.median(s[k] for s in samples)
                for k in samples[0]}

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import NAMES

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "data").is_dir():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(src/repro and tests/data are missing)", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(1, str(ROOT / "src"))

    run = Run(args.workload)
    try:
        run.setup(args.seed)
        if args.trace:
            from traced import METRICS
            values, units = run.per_layer(args.seconds), dict(METRICS)
        else:
            values, units = run.end_to_end(args.seconds), dict(END_TO_END)
    finally:
        run.close()
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
