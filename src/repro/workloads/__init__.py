"""Benchmark workloads: the Table 6.1 kernels and the Table 1.1 suite.

Two registries:

* :func:`table_6_1_benchmarks` — the five hardware-evaluation kernels
  (Skipjack-mem/-hw, DES-mem/-hw, IIR) with builders and descriptions;
* :func:`table_1_1_programs` — the profiling suite (wavelet, EPIC,
  UNEPIC, ADPCM, MPEG-2, Skipjack).

The Table 6.1 builders are plain Python.  The profiling suite's modules
load only when :func:`table_1_1_programs` is called; they and the
reference models import NumPy inside the functions that use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.ir.nodes import Program
from repro.workloads import des, iir, skipjack

__all__ = ["Benchmark", "table_6_1_benchmarks", "table_1_1_programs",
           "benchmark_by_name"]


@dataclass
class Benchmark:
    """A named kernel: builder, description, and parameter binding."""

    name: str
    description: str
    build: Callable[..., Program]
    params: dict = field(default_factory=dict)
    #: evaluation-scale build arguments (Table 6.2 runs)
    eval_kwargs: dict = field(default_factory=dict)
    #: small functional-verification build arguments
    small_kwargs: dict = field(default_factory=dict)


def table_6_1_benchmarks() -> list[Benchmark]:
    """The five Chapter 6 kernels (thesis Table 6.1)."""
    return [
        Benchmark(
            "skipjack-mem",
            "Skipjack cryptographic algorithm: encryption, software "
            "implementation with memory references",
            skipjack.build_program,
            eval_kwargs={"m_blocks": 32, "variant": "mem"},
            small_kwargs={"m_blocks": 4, "variant": "mem"}),
        Benchmark(
            "skipjack-hw",
            "Skipjack cryptographic algorithm: encryption, software "
            "implementation optimized for hardware without memory references",
            skipjack.build_program,
            eval_kwargs={"m_blocks": 32, "variant": "hw"},
            small_kwargs={"m_blocks": 4, "variant": "hw"}),
        Benchmark(
            "des-mem",
            "DES cryptographic algorithm: encryption, SBOX implemented in "
            "software with memory references",
            des.build_program,
            eval_kwargs={"m_blocks": 32, "variant": "mem"},
            small_kwargs={"m_blocks": 3, "variant": "mem"}),
        Benchmark(
            "des-hw",
            "DES cryptographic algorithm: encryption, SBOX implemented in "
            "hardware without memory references",
            des.build_program,
            eval_kwargs={"m_blocks": 32, "variant": "hw"},
            small_kwargs={"m_blocks": 3, "variant": "hw"}),
        Benchmark(
            "iir",
            "4-cascaded IIR biquad filter processing 64 points "
            "(16 independent channels)",
            iir.build_program,
            params=iir.default_params(),
            eval_kwargs={"m_channels": 16, "n_points": 64},
            small_kwargs={"m_channels": 4, "n_points": 8}),
    ]


def table_1_1_programs() -> list[Benchmark]:
    """The loop-profiling suite (thesis Table 1.1)."""
    from repro.workloads import adpcm, epic, mpeg2, wavelet

    return [
        Benchmark("wavelet", "Wavelet image compression",
                  wavelet.build_program,
                  eval_kwargs={"n": 16, "levels": 3}),
        Benchmark("epic", "EPIC encoding", epic.build_encoder,
                  eval_kwargs={"n": 16, "levels": 2}),
        Benchmark("unepic", "UNEPIC decoding", epic.build_decoder,
                  eval_kwargs={"n": 16, "levels": 2}),
        Benchmark("adpcm", "Media Bench ADPCM", adpcm.build_program,
                  eval_kwargs={"n_samples": 256}),
        Benchmark("mpeg2", "MPEG-2 encoder", mpeg2.build_program,
                  eval_kwargs={"n": 16, "radius": 2}),
        Benchmark("skipjack", "Skipjack encryption", skipjack.build_program,
                  eval_kwargs={"m_blocks": 8, "variant": "mem"}),
    ]


def benchmark_by_name(name: str) -> Benchmark:
    if name.startswith("lang:") or name.endswith(".lang"):
        # source-file kernels: "lang:<path>#<digest>" or "<path>.lang"
        from repro.lang.loader import lang_kernel
        return lang_kernel(name)
    for table in (table_6_1_benchmarks, table_1_1_programs):
        for bm in table():
            if bm.name == name:
                return bm
    raise KeyError(f"unknown benchmark {name!r}")
