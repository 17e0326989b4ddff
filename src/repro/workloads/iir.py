"""4-cascaded IIR biquad filter — Table 6.1 benchmark *IIR*.

"4-cascaded IIR biquad filter processing 64 points", implemented with
"pipelinable floating-point arithmetic operations" (§6.2).

**Modeling note** (recorded in DESIGN.md): an IIR filter's state makes
consecutive *samples* strictly sequential, so the parallel outer loop the
squash transformation requires must range over independent *channels*
(a filter bank — the standard DSP arrangement).  Our kernel therefore
filters ``m_channels`` independent streams: the outer loop picks a
channel (parallel, §4.1), the inner loop runs the 64 samples through the
four cascaded biquad sections — whose per-sample state recurrences
(``z1``/``z2`` per section) are exactly the strong inter-iteration
dependences the thesis targets.

Each section is a direct-form-II-transposed biquad::

    y  = b0*x + z1
    z1 = b1*x - a1*y + z2
    z2 = b2*x - a2*y

The reference implementation is plain Python operating in the same
f64 evaluation order, so IR results match bit-for-bit.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program
from repro.ir.types import F64

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BIQUAD_SECTIONS", "filter_channel", "build_program",
           "reference_output"]

#: Four cascaded sections: (b0, b1, b2, a1, a2) each (stable low-pass-ish
#: coefficients, deliberately distinct so sections are not collapsible).
BIQUAD_SECTIONS: tuple[tuple[float, float, float, float, float], ...] = (
    (0.2929, 0.5858, 0.2929, -0.0000, 0.1716),
    (0.2066, 0.4131, 0.2066, -0.3695, 0.1958),
    (0.1311, 0.2622, 0.1311, -0.7478, 0.2722),
    (0.0976, 0.1953, 0.0976, -0.9428, 0.3333),
)


def filter_channel(x: Sequence[float],
                   sections=BIQUAD_SECTIONS) -> "np.ndarray":
    """Reference cascade filter over one channel (matches IR order)."""
    import numpy as np

    z1 = [0.0] * len(sections)
    z2 = [0.0] * len(sections)
    out = np.zeros(len(x), dtype=np.float64)
    for n, xn in enumerate(np.asarray(x, dtype=np.float64)):
        v = float(xn)
        for s, (b0, b1, b2, a1, a2) in enumerate(sections):
            y = b0 * v + z1[s]
            z1[s] = (b1 * v - a1 * y) + z2[s]
            z2[s] = b2 * v - a2 * y
            v = y
        out[n] = v
    return out


def build_program(m_channels: int = 16, n_points: int = 64,
                  sections=BIQUAD_SECTIONS,
                  data: Optional[Sequence[float]] = None) -> Program:
    """Build the IIR IR kernel: channels x (64 points through 4 biquads).

    ``data`` gives the ``m_channels * n_points`` input samples, channel
    after channel (seeded standard-normal samples by default).
    """
    b = ProgramBuilder("iir")
    nsec = len(sections)

    if data is None:
        rng = random.Random(0x11B)
        data = [rng.gauss(0.0, 1.0) for _ in range(m_channels * n_points)]
    din = b.array("x_in", (m_channels * n_points,), F64, init=data)
    dout = b.array("y_out", (m_channels * n_points,), F64, output=True)

    # coefficients are parameters: loop-invariant live-ins of the kernel
    # (self-cycle registers in the DFG; DS-slot rings after squashing)
    coeff_names = []
    for s, (b0, b1, b2, a1, a2) in enumerate(sections):
        for cname, _ in zip(("b0", "b1", "b2", "a1", "a2"),
                            (b0, b1, b2, a1, a2)):
            coeff_names.append(f"{cname}_{s}")
            b.param(f"{cname}_{s}", F64)

    x = b.local("x", F64)
    y = b.local("y", F64)
    zs = []
    for s in range(nsec):
        zs.append((b.local(f"z1_{s}", F64), b.local(f"z2_{s}", F64)))

    with b.loop("i", 0, m_channels) as i:
        for z1, z2 in zs:
            b.assign(z1, 0.0)
            b.assign(z2, 0.0)
        with b.loop("j", 0, n_points, kernel=True) as j:
            b.assign(x, din[i * n_points + j])
            for s in range(nsec):
                z1, z2 = zs[s]
                b0v, b1v, b2v = (b.var(f"b0_{s}"), b.var(f"b1_{s}"),
                                 b.var(f"b2_{s}"))
                a1v, a2v = b.var(f"a1_{s}"), b.var(f"a2_{s}")
                b.assign(y, b0v * b.var("x") + b.var(z1.name))
                b.assign(z1, (b1v * b.var("x") - a1v * b.var("y"))
                         + b.var(z2.name))
                b.assign(z2, b2v * b.var("x") - a2v * b.var("y"))
                b.assign(x, b.var("y"))
            dout[i * n_points + j] = b.var("x")
    return b.build()


def default_params(sections=BIQUAD_SECTIONS) -> dict[str, float]:
    """Parameter binding for :func:`build_program`'s coefficient params."""
    out: dict[str, float] = {}
    for s, (b0, b1, b2, a1, a2) in enumerate(sections):
        out[f"b0_{s}"] = b0
        out[f"b1_{s}"] = b1
        out[f"b2_{s}"] = b2
        out[f"a1_{s}"] = a1
        out[f"a2_{s}"] = a2
    return out


def reference_output(program_input: Sequence[float], m_channels: int,
                     n_points: int,
                     sections=BIQUAD_SECTIONS) -> "np.ndarray":
    """Expected ``y_out`` contents for the IR kernel's ``x_in``."""
    import numpy as np

    x = np.asarray(program_input, dtype=np.float64).reshape(
        m_channels, n_points)
    out = np.vstack([filter_channel(ch, sections) for ch in x])
    return out.reshape(m_channels * n_points)
