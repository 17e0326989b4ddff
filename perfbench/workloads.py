"""The benchmark's workloads: seeded inputs for one ``repro explore`` run.

Each workload turns ``--seed`` into the argument list of one CLI
invocation (the program sees only these generated inputs, never the
seed), the design queries that invocation enumerates, how to populate
the cache-dir snapshot every run starts from, and the result-cache hit
ratio a correctly isolated run must report.

* ``acev-cold``      — the five Table 6.1 kernels over every variant,
  DS 2..32, J 2/4 and two schedulers (215 designs) on ``acev``, from an
  empty cache dir.
* ``vliw4-retarget`` — the same space on ``vliw4``, from a snapshot the
  ``acev`` space populated: front-end artifacts load from the store, the
  result cache misses.
* ``lang-resume``    — 64 ``.lang`` kernels drawn with
  :func:`repro.lang.fuzz.random_source_nest`, swept over DS 2..16 with
  ``--pareto --best``, from a snapshot in which the first half of the
  seed's ordering is already swept.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["NAMES", "Inputs", "lang_sources", "prepare", "space_queries"]

#: The Table 6.1 kernels, in the table's (and the golden files') order.
SUITE = ("skipjack-mem", "skipjack-hw", "des-mem", "des-hw", "iir")

#: The full acev/vliw4 design space: 5 variants x DS 2..32 x J 2/4 x
#: two schedulers = 43 designs per kernel.
SUITE_SPACE = ["--variants", "original", "pipelined", "squash", "jam",
               "jam+squash", "--factors", "2", "4", "8", "16", "32",
               "--jam-factors", "2", "4", "--scheduler", "modulo",
               "--scheduler", "backtrack"]

LANG_KERNELS = 64
LANG_SPACE = ["--factors", "2", "4", "8", "16", "--pareto", "--best"]

NAMES = ("acev-cold", "vliw4-retarget", "lang-resume")


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload needs, derived from the seed."""

    workload: str
    #: ``repro explore`` arguments, without ``--jobs``
    argv: tuple[str, ...]
    #: arguments that populate the snapshot dir, or None (empty snapshot)
    snapshot_argv: Optional[tuple[str, ...]]
    #: result-cache hits / lookups a run from the snapshot must report
    expected_hit_ratio: float
    #: whether the DS=2 slice is byte-compared against the golden tables
    golden: bool


def _kernel_args(kernels) -> list[str]:
    return [arg for k in kernels for arg in ("--kernel", k)]


def lang_sources(n: int = LANG_KERNELS) -> list[str]:
    """The ``lang-resume`` pool: ``n`` ``.lang`` kernel sources drawn with
    a fixed generator seed, so every run sweeps the same designs."""
    from repro.lang.fuzz import SourceNestSpec, random_source_nest

    rng = random.Random("lang-resume")
    return [random_source_nest(rng, SourceNestSpec.sample(rng))
            for _ in range(n)]


def prepare(workload: str, seed: int, workdir: pathlib.Path) -> Inputs:
    """Generate the workload's inputs for ``seed`` under ``workdir``."""
    if workload in ("acev-cold", "vliw4-retarget"):
        # The suite inputs do not depend on the seed: permuting the
        # --kernel order changes how the unequal (kernel, variant) batches
        # pack onto the two pool workers, which moved the vliw4 sweep
        # between ~5.5 s and ~7.3 s by seed alone.
        argv = ["explore", *_kernel_args(SUITE), *SUITE_SPACE]
        if workload == "acev-cold":
            return Inputs(workload, tuple(argv), None, 0.0, golden=True)
        return Inputs(workload, tuple(argv + ["--target", "vliw4"]),
                      tuple(argv), 0.0, golden=False)
    if workload == "lang-resume":
        # The seed orders the pool, which picks the pre-swept half and the
        # dispatch order; drawing new kernels per seed would move
        # ii_geomean and cache_disk_mb with the seed alone.
        src_dir = workdir / "lang"
        src_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, text in enumerate(lang_sources()):
            path = src_dir / f"k{i:02d}.lang"
            if not path.is_file() or path.read_text() != text:
                path.write_text(text)
            paths.append(str(path))
        random.Random(f"lang-resume:{seed}").shuffle(paths)
        sources = [arg for p in paths for arg in ("--source", p)]
        half = [arg for p in paths[:len(paths) // 2]
                for arg in ("--source", p)]
        return Inputs(workload, ("explore", *sources, *LANG_SPACE),
                      ("explore", *half, *LANG_SPACE), 0.5, golden=False)
    raise ValueError(f"unknown workload {workload!r}; have {NAMES}")


def space_queries(argv) -> list:
    """The design queries ``repro explore argv`` enumerates, in order.

    Parses with the CLI's own parser and builds the space exactly as the
    ``explore`` command does.
    """
    from repro.cli import build_parser
    from repro.explore import DesignSpace

    args = build_parser().parse_args(list(argv))
    kernels = list(args.kernel or [])
    if args.source:
        from repro.lang.loader import lang_spec
        kernels += [lang_spec(path) for path in args.source]
    space = DesignSpace(
        kernels=tuple(kernels),
        variants=tuple(args.variants),
        factors=tuple(args.factors),
        jam_factors=tuple(args.jam_factors),
        target_specs=tuple(args.target or ["acev"]),
        schedulers=tuple(args.scheduler or [""]),
    )
    return space.enumerate()
