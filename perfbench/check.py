"""The correctness gate, run outside every timed region.

* :func:`reference_pass` computes every design of a workload at
  ``jobs=1`` with ``REPRO_VERIFY=strict``, so the independent
  re-verifier (:mod:`repro.verify`) checks each artifact; any finding
  quarantines the design and is reported.  The verified results are
  kept in a result cache of their own, partitioned by code version, so
  a later invocation on the same sources reuses them.
* :func:`check_run` reads one run's results back through the public
  :class:`repro.explore.ResultCache` API and compares each design with
  the reference; the ``acev`` workload also byte-compares its DS=2 slice
  with the golden Table 6.2/6.3 files.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import re
from dataclasses import dataclass
from typing import Optional

__all__ = ["RunCheck", "check_run", "golden_matches", "hit_ratio",
           "reference_pass"]

_CACHE_LINE = re.compile(r"^cache: (\d+) hits, (\d+) misses", re.M)


def reference_pass(queries, ref_dir: pathlib.Path,
                   artifact_dir: pathlib.Path) -> "tuple[dict, list]":
    """``({query: result}, [verifier findings])`` for ``queries``.

    Designs missing from ``ref_dir`` are compiled inline under strict
    verification, with artifact stores in the empty ``artifact_dir``.
    """
    from repro.explore import ResultCache, evaluate

    saved = {k: os.environ.get(k) for k in ("REPRO_VERIFY",
                                            "REPRO_CACHE_DIR")}
    os.environ["REPRO_VERIFY"] = "strict"
    os.environ["REPRO_CACHE_DIR"] = str(artifact_dir)
    try:
        result = evaluate(queries, jobs=1, cache=ResultCache(ref_dir))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    findings = [f"{f.query.label} [{f.query.kernel}]: {f.reason}"
                for f in result.fails()]
    return dict(zip(result.queries, result.results)), findings


def hit_ratio(stdout: str) -> Optional[float]:
    """The result-cache hit ratio ``repro explore`` printed, if any."""
    m = _CACHE_LINE.search(stdout)
    if m is None:
        return None
    hits, misses = int(m.group(1)), int(m.group(2))
    return hits / (hits + misses) if hits + misses else 0.0


@dataclass
class RunCheck:
    designs: int
    #: designs missing from the cache, quarantined, or differing from
    #: the reference
    failed: int
    #: realized design points (legality/pressure rejects are verdicts)
    points: int
    ii_geomean: float
    problems: "list[str]"


def check_run(cache_dir: pathlib.Path, reference: dict, returncode: int,
              stdout: str, expected_hit_ratio: float,
              golden_dir: Optional[pathlib.Path]) -> RunCheck:
    """Compare one run's stored results with the reference."""
    from repro.explore import ResultCache
    from repro.hw.report import DesignPoint

    problems: list[str] = []
    if returncode != 0:
        problems.append(f"repro explore exited with {returncode}")
    ratio = hit_ratio(stdout)
    if ratio != expected_hit_ratio:
        problems.append(f"result-cache hit ratio {ratio}, expected "
                        f"{expected_hit_ratio} (a stale or shared cache?)")
    cache = ResultCache(cache_dir)
    got: dict = {}
    failed = 0
    for query, want in reference.items():
        have = cache.get(query)
        got[query] = have
        if have is None or have != want:
            failed += 1
    if failed:
        problems.append(f"{failed} design(s) missing or differing from "
                        "the reference")
    points = [r for r in got.values() if isinstance(r, DesignPoint)]
    geomean = math.exp(sum(math.log(p.ii) for p in points) / len(points)) \
        if points else 0.0
    if golden_dir is not None and not golden_matches(got, golden_dir):
        problems.append("DS=2 slice differs from the golden tables")
    return RunCheck(designs=len(reference), failed=failed,
                    points=len(points), ii_geomean=geomean,
                    problems=problems)


def golden_matches(results: dict, golden_dir: pathlib.Path) -> bool:
    """Whether the ``acev``/modulo DS=2 slice formats to the goldens."""
    from repro.explore import DesignQuery
    from repro.harness import (
        format_table_6_2, format_table_6_3, run_table_6_3,
    )
    from repro.hw.report import DesignPoint
    from repro.nimble import VariantSet, decode_target
    from workloads import SUITE

    target = decode_target("acev")
    sweep = {}
    for kernel in SUITE:
        pts = [results.get(DesignQuery(kernel, variant, ds=ds,
                                       target_spec="acev",
                                       scheduler="modulo"))
               for variant, ds in (("original", 1), ("pipelined", 1),
                                   ("squash", 2), ("jam", 2))]
        if not all(isinstance(p, DesignPoint) for p in pts):
            return False
        orig, pipe, squash, jam = pts
        sweep[kernel] = VariantSet(
            kernel=kernel, target=target, original=orig, pipelined=pipe,
            squash={2: dataclasses.replace(squash, base_ii=orig.ii)},
            jam={2: dataclasses.replace(jam, base_ii=orig.ii)})
    g62 = (golden_dir / "golden_table_6_2_f2.txt").read_text()
    g63 = (golden_dir / "golden_table_6_3_f2.txt").read_text()
    return (format_table_6_2(sweep) == g62
            and format_table_6_3(run_table_6_3(sweep)) == g63)
