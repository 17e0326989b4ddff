"""MediaBench-style IMA ADPCM coder — Table 1.1 row "Media Bench ADPCM".

A faithful IR transcription of the classic ``adpcm_coder`` /
``adpcm_decoder`` pair (step-size + index tables, 4-bit codes): three
loops total (encode, decode, plus the comparison loop), all hot — which
is exactly the paper's profile (3 loops, 3 above 1 %, 98 % of time).

The reference implementation is the same algorithm in plain Python; the
round-trip property (decode(encode(x)) tracks x) is exercised in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program
from repro.ir.types import I16, I32, U8

if TYPE_CHECKING:
    import numpy as np

__all__ = ["STEP_TABLE", "INDEX_TABLE", "encode", "decode", "build_program"]

STEP_TABLE: tuple[int, ...] = (
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484,
    7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
    18500, 20350, 22385, 24623, 27086, 29794, 32767,
)

INDEX_TABLE: tuple[int, ...] = (-1, -1, -1, -1, 2, 4, 6, 8,
                                -1, -1, -1, -1, 2, 4, 6, 8)


def encode(samples: np.ndarray) -> np.ndarray:
    """Reference IMA ADPCM encoder (one 4-bit code per sample)."""
    import numpy as np

    valpred, index = 0, 0
    out = np.zeros(len(samples), dtype=np.uint8)
    for n, sample in enumerate(np.asarray(samples, dtype=np.int64)):
        step = STEP_TABLE[index]
        diff = int(sample) - valpred
        sign = 8 if diff < 0 else 0
        if sign:
            diff = -diff
        delta = 0
        vpdiff = step >> 3
        if diff >= step:
            delta = 4
            diff -= step
            vpdiff += step
        step >>= 1
        if diff >= step:
            delta |= 2
            diff -= step
            vpdiff += step
        step >>= 1
        if diff >= step:
            delta |= 1
            vpdiff += step
        valpred = valpred - vpdiff if sign else valpred + vpdiff
        valpred = max(-32768, min(32767, valpred))
        delta |= sign
        index = max(0, min(88, index + INDEX_TABLE[delta]))
        out[n] = delta
    return out


def decode(codes: np.ndarray) -> np.ndarray:
    """Reference IMA ADPCM decoder."""
    import numpy as np

    valpred, index = 0, 0
    out = np.zeros(len(codes), dtype=np.int16)
    for n, delta in enumerate(np.asarray(codes, dtype=np.int64)):
        step = STEP_TABLE[index]
        sign = delta & 8
        mag = delta & 7
        vpdiff = step >> 3
        if mag & 4:
            vpdiff += step
        if mag & 2:
            vpdiff += step >> 1
        if mag & 1:
            vpdiff += step >> 2
        valpred = valpred - vpdiff if sign else valpred + vpdiff
        valpred = max(-32768, min(32767, valpred))
        index = max(0, min(88, index + INDEX_TABLE[delta]))
        out[n] = valpred
    return out


def build_program(n_samples: int = 256,
                  data: np.ndarray | None = None) -> Program:
    """IR transcription: encode loop, decode loop, error-accumulation loop."""
    import numpy as np

    b = ProgramBuilder("adpcm")
    if data is None:
        rng = np.random.default_rng(0xADC)
        t = np.arange(n_samples)
        data = (6000 * np.sin(t / 5.0) + 2000 * np.sin(t / 1.7)
                + rng.integers(-400, 400, n_samples)).astype(np.int16)
    data = np.asarray(data, dtype=np.int16)

    steps = b.array("steps", (89,), I32, init=STEP_TABLE)
    idxt = b.array("idxt", (16,), I32, init=INDEX_TABLE)
    pcm = b.array("pcm", (n_samples,), I16, init=data)
    codes = b.array("codes", (n_samples,), U8, output=True)
    rec = b.array("rec", (n_samples,), I16, output=True)
    errsum = b.array("errsum", (1,), I32, output=True)

    valpred = b.local("valpred", I32)
    index = b.local("index", I32)
    step = b.local("step", I32)
    diff = b.local("diff", I32)
    sign = b.local("sign", I32)
    delta = b.local("delta", I32)
    vpdiff = b.local("vpdiff", I32)
    mag = b.local("mag", I32)

    # ---- encoder ----------------------------------------------------------
    b.assign(valpred, 0)
    b.assign(index, 0)
    with b.loop("n", 0, n_samples) as n:
        b.assign(step, steps[b.var("index")])
        b.assign(diff, pcm[n].cast(I32) - b.var("valpred"))
        b.assign(sign, 0)
        with b.if_(b.var("diff") < 0):
            b.assign(sign, 8)
            b.assign(diff, -b.var("diff"))
        b.assign(delta, 0)
        b.assign(vpdiff, b.var("step") >> 3)
        with b.if_(b.var("diff") >= b.var("step")):
            b.assign(delta, 4)
            b.assign(diff, b.var("diff") - b.var("step"))
            b.assign(vpdiff, b.var("vpdiff") + b.var("step"))
        b.assign(step, b.var("step") >> 1)
        with b.if_(b.var("diff") >= b.var("step")):
            b.assign(delta, b.var("delta") | 2)
            b.assign(diff, b.var("diff") - b.var("step"))
            b.assign(vpdiff, b.var("vpdiff") + b.var("step"))
        b.assign(step, b.var("step") >> 1)
        with b.if_(b.var("diff") >= b.var("step")):
            b.assign(delta, b.var("delta") | 1)
            b.assign(vpdiff, b.var("vpdiff") + b.var("step"))
        with b.if_(b.var("sign").ne(0)):
            b.assign(valpred, b.var("valpred") - b.var("vpdiff"))
        with b.else_():
            b.assign(valpred, b.var("valpred") + b.var("vpdiff"))
        b.assign(valpred,
                 BinMax(b, BinMin(b, b.var("valpred"), 32767), -32768))
        b.assign(delta, b.var("delta") | b.var("sign"))
        b.assign(index, b.var("index") + idxt[b.var("delta")])
        b.assign(index, BinMax(b, BinMin(b, b.var("index"), 88), 0))
        codes[n] = b.var("delta")

    # ---- decoder ----------------------------------------------------------
    b.assign(valpred, 0)
    b.assign(index, 0)
    with b.loop("m", 0, n_samples) as m:
        b.assign(step, steps[b.var("index")])
        b.assign(delta, codes[m].cast(I32))
        b.assign(sign, b.var("delta") & 8)
        b.assign(mag, b.var("delta") & 7)
        b.assign(vpdiff, b.var("step") >> 3)
        with b.if_((b.var("mag") & 4).ne(0)):
            b.assign(vpdiff, b.var("vpdiff") + b.var("step"))
        with b.if_((b.var("mag") & 2).ne(0)):
            b.assign(vpdiff, b.var("vpdiff") + (b.var("step") >> 1))
        with b.if_((b.var("mag") & 1).ne(0)):
            b.assign(vpdiff, b.var("vpdiff") + (b.var("step") >> 2))
        with b.if_(b.var("sign").ne(0)):
            b.assign(valpred, b.var("valpred") - b.var("vpdiff"))
        with b.else_():
            b.assign(valpred, b.var("valpred") + b.var("vpdiff"))
        b.assign(valpred,
                 BinMax(b, BinMin(b, b.var("valpred"), 32767), -32768))
        b.assign(index, b.var("index") + idxt[b.var("delta")])
        b.assign(index, BinMax(b, BinMin(b, b.var("index"), 88), 0))
        rec[m] = b.var("valpred")

    # ---- reconstruction-error accumulation ---------------------------------
    b.assign(diff, 0)
    with b.loop("q", 0, n_samples) as q:
        b.assign(mag, rec[q].cast(I32) - pcm[q].cast(I32))
        with b.if_(b.var("mag") < 0):
            b.assign(mag, -b.var("mag"))
        b.assign(diff, b.var("diff") + b.var("mag"))
    errsum[0] = b.var("diff")
    return b.build()


def BinMin(b: ProgramBuilder, x, y):
    from repro.ir.nodes import BinOp, as_expr
    return BinOp("min", as_expr(x), as_expr(y, hint=as_expr(x).ty))


def BinMax(b: ProgramBuilder, x, y):
    from repro.ir.nodes import BinOp, as_expr
    return BinOp("max", as_expr(x), as_expr(y, hint=as_expr(x).ty))
