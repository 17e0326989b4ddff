"""The thesis's motivating example (Fig. 2.1) and didactic nests.

``build_fg_nest`` is the f/g two-operator kernel of Chapter 2:
``f(x) = (x + 7) & 0xff`` and ``g(x) = x ^ 0x5a``, each a 1-cycle
operator, giving the minimum II of 2 and the exact unroll-and-jam /
unroll-and-squash trade-off the chapter walks through.

``build_running_example`` is the §4.3 DFG example (Fig. 4.1):
``b = a + i; c = b - j; a = (c & 15) * k``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program
from repro.ir.types import I32, U8

if TYPE_CHECKING:
    import numpy as np

__all__ = ["build_fg_nest", "build_running_example", "fg_reference"]


def build_fg_nest(m: int = 16, n: int = 8,
                  data: Optional[Sequence[int]] = None) -> Program:
    """The Fig. 2.1 nest: outer over M data items, inner N rounds of f∘g."""
    b = ProgramBuilder("simple-fg")
    if data is None:
        data = [(k * 37 + 11) & 0xFF for k in range(m)]
    din = b.array("data_in", (m,), U8, init=data)
    dout = b.array("data_out", (m,), U8, output=True)
    a = b.local("a", U8)
    t = b.local("b", U8)
    with b.loop("i", 0, m) as i:
        b.assign(a, din[i])
        with b.loop("j", 0, n, kernel=True):
            b.assign(t, b.var("a") + 7)          # f
            b.assign(a, b.var("b") ^ 0x5A)       # g
        dout[i] = b.var("a")
    return b.build()


def fg_reference(data: Sequence[int], n: int = 8) -> "np.ndarray":
    """Expected output of :func:`build_fg_nest`."""
    import numpy as np

    out = np.asarray(data, dtype=np.uint8).copy()
    for _ in range(n):
        out = ((out + 7) & 0xFF) ^ 0x5A
    return out


def build_running_example(m: int = 8, n: int = 5) -> Program:
    """The Fig. 4.1 running example (uses i, j, and a parameter k)."""
    b = ProgramBuilder("running-example")
    src = b.array("in", (m,), I32, init=[k * 3 + 1 for k in range(m)])
    dst = b.array("out", (m,), I32, output=True)
    b.param("k", I32)
    a = b.local("a", I32)
    bv = b.local("b", I32)
    cv = b.local("c", I32)
    with b.loop("i", 0, m) as i:
        b.assign(a, src[i])
        with b.loop("j", 0, n, kernel=True) as j:
            b.assign(bv, b.var("a") + i)
            b.assign(cv, b.var("b") - j)
            b.assign(a, (b.var("c") & 15) * b.var("k"))
        dst[i] = b.var("a")
    return b.build()
