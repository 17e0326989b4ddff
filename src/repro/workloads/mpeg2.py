"""MPEG-2-style encoder core — Table 1.1 row "MPEG-2 encoder".

The computational skeleton of an MPEG-2 intra/inter encoder at a
profiling-friendly scale: full-search block motion estimation (SAD),
residual computation, an integer 8x8 separable DCT, and quantization
with a significance count.  The loop population (~17 loops, the SAD and
DCT nests hot) mirrors the paper's profile shape (85 % of time in 14 of
165 loops — ours is proportionally concentrated in far fewer loops
because we model one pipeline pass, not the full codec).

All stages have exact Python references used by the tests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program
from repro.ir.types import I32

if TYPE_CHECKING:
    import numpy as np

__all__ = ["cos_table", "motion_search_reference", "dct8_reference",
           "encode_reference", "build_program"]

BLK = 8


def cos_table(scale: int = 64) -> np.ndarray:
    """Integer DCT-II basis, ``C[u][k] = round(scale*c(u)*cos(...))``."""
    import numpy as np

    t = np.zeros((BLK, BLK), dtype=np.int32)
    for u in range(BLK):
        cu = math.sqrt(1.0 / BLK) if u == 0 else math.sqrt(2.0 / BLK)
        for k in range(BLK):
            t[u, k] = round(scale * cu
                            * math.cos((2 * k + 1) * u * math.pi / (2 * BLK)))
    return t


def motion_search_reference(cur: np.ndarray, ref: np.ndarray, by: int,
                            bx: int, radius: int):
    """Full-search SAD over a clamped +-radius window; returns
    (best_dy, best_dx, best_sad) with row-major tie-breaking."""
    import numpy as np

    h, w = ref.shape
    best = (0, 0, 1 << 30)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            oy, ox = by + dy, bx + dx
            if not (0 <= oy <= h - BLK and 0 <= ox <= w - BLK):
                continue
            sad = int(np.abs(
                cur[by:by + BLK, bx:bx + BLK].astype(np.int64)
                - ref[oy:oy + BLK, ox:ox + BLK]).sum())
            if sad < best[2]:
                best = (dy, dx, sad)
    return best


def dct8_reference(block: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Integer separable 8x8 DCT matching the IR's evaluation order."""
    import numpy as np

    b = np.asarray(block, dtype=np.int64)
    t = table.astype(np.int64)
    rows = np.zeros((BLK, BLK), dtype=np.int64)
    for r in range(BLK):
        for u in range(BLK):
            rows[r, u] = (t[u] * b[r]).sum() >> 6
    out = np.zeros((BLK, BLK), dtype=np.int64)
    for c in range(BLK):
        for u in range(BLK):
            out[u, c] = (t[u] * rows[:, c]).sum() >> 6
    return out


def encode_reference(cur: np.ndarray, ref: np.ndarray, radius: int, q: int):
    """Full pipeline reference: returns (motion vectors, coeffs, nonzeros)."""
    import numpy as np

    h, w = cur.shape
    table = cos_table()
    mvs = []
    coeffs = np.zeros((h, w), dtype=np.int64)
    nz = 0
    for by in range(0, h, BLK):
        for bx in range(0, w, BLK):
            dy, dx, _ = motion_search_reference(cur, ref, by, bx, radius)
            mvs.append((dy, dx))
            resid = (cur[by:by + BLK, bx:bx + BLK].astype(np.int64)
                     - ref[by + dy:by + dy + BLK, bx + dx:bx + dx + BLK])
            dct = dct8_reference(resid, table)
            qb = np.sign(dct) * (np.abs(dct) // q)
            coeffs[by:by + BLK, bx:bx + BLK] = qb
            nz += int((qb != 0).sum())
    return mvs, coeffs, nz


def _frames(n: int):
    import numpy as np

    rng = np.random.default_rng(0x39E6)
    yy, xx = np.mgrid[0:n, 0:n]
    ref = (96 + 40 * np.sin(xx / 3.0 + 1.0) + 30 * np.cos(yy / 2.0)
           + rng.integers(-5, 5, (n, n))).astype(np.int32)
    cur = np.roll(ref, (1, 2), axis=(0, 1)) + \
        rng.integers(-3, 3, (n, n)).astype(np.int32)
    return cur.astype(np.int32), ref.astype(np.int32)


def build_program(n: int = 16, radius: int = 2, q: int = 4,
                  frames: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> Program:
    """The encoder core as an IR program over an ``n x n`` frame pair."""
    import numpy as np

    b = ProgramBuilder("mpeg2")
    cur_f, ref_f = _frames(n) if frames is None else frames
    nb = n // BLK

    cur = b.array("cur", (n, n), I32, init=np.asarray(cur_f, dtype=np.int32))
    ref = b.array("ref", (n, n), I32, init=np.asarray(ref_f, dtype=np.int32))
    ctab = b.rom("ctab", cos_table(), I32)
    mv = b.array("mv", (nb * nb, 2), I32, output=True)
    resid = b.array("resid", (BLK, BLK), I32)
    rows = b.array("rows", (BLK, BLK), I32)
    coef = b.array("coef", (n, n), I32, output=True)
    stats = b.array("stats", (1,), I32, output=True)

    sad = b.local("sad", I32)
    best = b.local("best", I32)
    bdy = b.local("bdy", I32)
    bdx = b.local("bdx", I32)
    d = b.local("d", I32)
    acc = b.local("acc", I32)
    v = b.local("v", I32)
    av = b.local("av", I32)
    nz = b.local("nz", I32)
    oy = b.local("oy", I32)
    ox = b.local("ox", I32)

    b.assign(nz, 0)
    with b.loop("byi", 0, nb) as byi:
        with b.loop("bxi", 0, nb) as bxi:
            # ---- full-search motion estimation (hot) -----------------------
            b.assign(best, 1 << 30)
            b.assign(bdy, 0)
            b.assign(bdx, 0)
            with b.loop("dy", -radius, radius + 1) as dy:
                with b.loop("dx", -radius, radius + 1) as dx:
                    b.assign(oy, byi * BLK + dy)
                    b.assign(ox, bxi * BLK + dx)
                    with b.if_((b.var("oy") >= 0).cast(I32)
                               & (b.var("oy") <= n - BLK).cast(I32)
                               & (b.var("ox") >= 0).cast(I32)
                               & (b.var("ox") <= n - BLK).cast(I32)):
                        b.assign(sad, 0)
                        with b.loop("sy", 0, BLK) as sy:
                            with b.loop("sx", 0, BLK) as sx:
                                b.assign(d, cur[byi * BLK + sy, bxi * BLK + sx]
                                         - ref[b.var("oy") + sy,
                                               b.var("ox") + sx])
                                with b.if_(b.var("d") < 0):
                                    b.assign(d, -b.var("d"))
                                b.assign(sad, b.var("sad") + b.var("d"))
                        with b.if_(b.var("sad") < b.var("best")):
                            b.assign(best, b.var("sad"))
                            b.assign(bdy, dy)
                            b.assign(bdx, dx)
            mv[byi * nb + bxi, 0] = b.var("bdy")
            mv[byi * nb + bxi, 1] = b.var("bdx")

            # ---- residual ---------------------------------------------------
            with b.loop("ry", 0, BLK) as ry:
                with b.loop("rx", 0, BLK) as rx:
                    resid[ry, rx] = cur[byi * BLK + ry, bxi * BLK + rx] - \
                        ref[byi * BLK + b.var("bdy") + ry,
                            bxi * BLK + b.var("bdx") + rx]

            # ---- separable integer DCT (hot) --------------------------------
            with b.loop("tr", 0, BLK) as tr:
                with b.loop("tu", 0, BLK) as tu:
                    b.assign(acc, 0)
                    with b.loop("tk", 0, BLK) as tk:
                        b.assign(acc, b.var("acc")
                                 + ctab[tu, tk] * resid[tr, tk])
                    rows[tr, tu] = b.var("acc") >> 6
            with b.loop("tc", 0, BLK) as tc:
                with b.loop("tu2", 0, BLK) as tu2:
                    b.assign(acc, 0)
                    with b.loop("tk2", 0, BLK) as tk2:
                        b.assign(acc, b.var("acc")
                                 + ctab[tu2, tk2] * rows[tk2, tc])
                    # ---- quantize + significance ----------------------------
                    b.assign(v, b.var("acc") >> 6)
                    b.assign(av, b.var("v"))
                    with b.if_(b.var("av") < 0):
                        b.assign(av, -b.var("av"))
                    b.assign(av, b.var("av") / q)
                    with b.if_(b.var("v") < 0):
                        b.assign(av, -b.var("av"))
                    coef[byi * BLK + b.var("tu2"), bxi * BLK + tc] = b.var("av")
                    with b.if_(b.var("av").ne(0)):
                        b.assign(nz, b.var("nz") + 1)
    stats[0] = b.var("nz")
    return b.build()
