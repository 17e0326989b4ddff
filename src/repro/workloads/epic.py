"""EPIC-style pyramid coder — Table 1.1 rows "EPIC encoding" / "UNEPIC".

EPIC (Efficient Pyramid Image Coder) builds a subband pyramid, quantizes
it, and entropy-codes the result; UNEPIC inverts the pipeline.  We model
the computationally faithful core: a separable [1 2 1]/4 low-pass
Laplacian pyramid, deadzone quantization, significance counting, and the
mirror decoder — enough loops (≈10 per direction, a few of them hot) to
reproduce the paper's profile concentration (92 %/99 % in ~14 loops).

``encode_reference`` / ``decode_reference`` are the NumPy references the
tests pin the IR programs to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import BinOp, Program, as_expr
from repro.ir.types import I32

if TYPE_CHECKING:
    import numpy as np

__all__ = ["encode_reference", "decode_reference", "build_encoder",
           "build_decoder", "default_image"]


def _imin(x, y):
    return BinOp("min", as_expr(x), as_expr(y, hint=as_expr(x).ty))


def _imax(x, y):
    return BinOp("max", as_expr(x), as_expr(y, hint=as_expr(x).ty))


# --------------------------------------------------------------------------
# NumPy reference
# --------------------------------------------------------------------------

def _blur_rows(a: np.ndarray) -> np.ndarray:
    n = a.shape[1]
    out = a.copy()
    for r in range(a.shape[0]):
        for c in range(n):
            lo = a[r, max(c - 1, 0)]
            hi = a[r, min(c + 1, n - 1)]
            out[r, c] = (lo + 2 * a[r, c] + hi) >> 2
    return out


def encode_reference(img: np.ndarray, levels: int, q: int):
    """Laplacian pyramid + quantization; returns (bands, base, nonzeros).

    The column blur reads the row-blurred buffer in place, exactly as the
    IR program does.
    """
    import numpy as np

    cur = np.asarray(img, dtype=np.int64)
    bands = []
    for _ in range(levels):
        blur = _blur_rows(cur)
        # in-place column blur (top-to-bottom, matching the IR)
        size = blur.shape[0]
        for c in range(size):
            for r in range(size):
                lo = blur[max(r - 1, 0), c]
                hi = blur[min(r + 1, size - 1), c]
                blur[r, c] = (lo + 2 * blur[r, c] + hi) >> 2
        band = cur - blur[(np.arange(cur.shape[0]) // 2) * 2][
            :, (np.arange(cur.shape[1]) // 2) * 2]
        qb = np.sign(band) * (np.abs(band) // q)
        bands.append(qb)
        cur = blur[::2, ::2].copy()
    nz = int(sum((b != 0).sum() for b in bands))
    return bands, cur, nz


def decode_reference(bands, base, q: int) -> np.ndarray:
    """Invert :func:`encode_reference` (lossy by the quantizer)."""
    import numpy as np

    cur = np.asarray(base, dtype=np.int64)
    for band in reversed(bands):
        up = np.repeat(np.repeat(cur, 2, axis=0), 2, axis=1)
        up = up[: band.shape[0], : band.shape[1]]
        cur = up + band * q
    return cur


def default_image(n: int) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(0xE71C)
    yy, xx = np.mgrid[0:n, 0:n]
    return (100 + 50 * np.cos(xx / 3.0) + 40 * np.sin(yy / 4.0)
            + rng.integers(-6, 6, (n, n))).astype(np.int32)


# --------------------------------------------------------------------------
# IR programs
# --------------------------------------------------------------------------

def build_encoder(n: int = 16, levels: int = 2, q: int = 3,
                  image: np.ndarray | None = None) -> Program:
    """The EPIC-like encoder as an IR program."""
    import numpy as np

    b = ProgramBuilder("epic")
    image = default_image(n) if image is None else \
        np.asarray(image, dtype=np.int32)

    img = b.array("img", (n, n), I32, init=image)
    work = b.array("work", (n, n), I32)
    blur = b.array("blur", (n, n), I32)
    bands = b.array("bands", (levels, n, n), I32, output=True)
    lows = b.array("lows", (n, n), I32, output=True)
    stats = b.array("stats", (1,), I32, output=True)

    size = b.local("size", I32)
    half = b.local("half", I32)
    v = b.local("v", I32)
    av = b.local("av", I32)
    lo = b.local("lo", I32)
    hi = b.local("hi", I32)
    nz = b.local("nz", I32)

    with b.loop("ir_", 0, n) as ir_:
        with b.loop("ic", 0, n) as ic:
            work[ir_, ic] = img[ir_, ic]

    b.assign(size, n)
    b.assign(nz, 0)
    with b.loop("lev", 0, levels) as lev:
        b.assign(half, b.var("size") / 2)
        # separable [1 2 1]/4 blur: row pass (hot)
        with b.loop("r", 0, b.var("size")) as r:
            with b.loop("c", 0, b.var("size")) as c:
                b.assign(lo, work[r, _imax(c - 1, 0)])
                b.assign(hi, work[r, _imin(c + 1, b.var("size") - 1)])
                blur[r, c] = (b.var("lo") + work[r, c] * 2 + b.var("hi")) >> 2
        # column pass, in place (hot)
        with b.loop("c2", 0, b.var("size")) as c2:
            with b.loop("r2", 0, b.var("size")) as r2:
                b.assign(lo, blur[_imax(r2 - 1, 0), c2])
                b.assign(hi, blur[_imin(r2 + 1, b.var("size") - 1), c2])
                blur[r2, c2] = (b.var("lo") + blur[r2, c2] * 2
                                + b.var("hi")) >> 2
        # band = work - upsampled(decimated blur); deadzone quantize (hot)
        with b.loop("r3", 0, b.var("size")) as r3:
            with b.loop("c3", 0, b.var("size")) as c3:
                b.assign(v, work[r3, c3] - blur[(r3 / 2) * 2, (c3 / 2) * 2])
                b.assign(av, b.var("v"))
                with b.if_(b.var("av") < 0):
                    b.assign(av, -b.var("av"))
                b.assign(av, b.var("av") / q)
                with b.if_(b.var("v") < 0):
                    b.assign(av, -b.var("av"))
                bands[lev, r3, c3] = b.var("av")
                with b.if_(b.var("av").ne(0)):
                    b.assign(nz, b.var("nz") + 1)
        # decimate into the next level's working image
        with b.loop("r4", 0, b.var("half")) as r4:
            with b.loop("c4", 0, b.var("half")) as c4:
                work[r4, c4] = blur[r4 * 2, c4 * 2]
        b.assign(size, b.var("half"))

    with b.loop("r5", 0, b.var("size")) as r5:
        with b.loop("c5", 0, b.var("size")) as c5:
            lows[r5, c5] = work[r5, c5]
    stats[0] = b.var("nz")
    return b.build()


def build_decoder(n: int = 16, levels: int = 2, q: int = 3,
                  image: np.ndarray | None = None) -> Program:
    """The UNEPIC-like decoder as an IR program.

    Inputs are produced by the reference encoder over ``image`` so the
    program is self-contained; the output reconstruction is checked
    against :func:`decode_reference`.
    """
    import numpy as np

    b = ProgramBuilder("unepic")
    image = default_image(n) if image is None else \
        np.asarray(image, dtype=np.int32)
    enc_bands, enc_base, _ = encode_reference(image, levels, q)
    bands_init = np.zeros((levels, n, n), dtype=np.int32)
    for k, bb in enumerate(enc_bands):
        bands_init[k, : bb.shape[0], : bb.shape[1]] = bb
    base_init = np.zeros((n, n), dtype=np.int32)
    base_init[: enc_base.shape[0], : enc_base.shape[1]] = enc_base

    bands_a = b.array("bands", (levels, n, n), I32, init=bands_init)
    base_a = b.array("base", (n, n), I32, init=base_init)
    work = b.array("work", (n, n), I32, output=True)
    up = b.array("up", (n, n), I32)

    size = b.local("size", I32)

    low = n >> levels
    with b.loop("r0", 0, low) as r0:
        with b.loop("c0", 0, low) as c0:
            work[r0, c0] = base_a[r0, c0]

    b.assign(size, low)
    with b.loop("lev", 0, levels) as lev:
        # upsample through a scratch buffer (hot)
        with b.loop("r", 0, b.var("size") * 2) as r:
            with b.loop("c", 0, b.var("size") * 2) as c:
                up[r, c] = work[r / 2, c / 2]
        # add the dequantized band back (hot); bands are stored outermost
        # level first, so level index is (levels-1) - lev
        with b.loop("r2", 0, b.var("size") * 2) as r2:
            with b.loop("c2", 0, b.var("size") * 2) as c2:
                work[r2, c2] = up[r2, c2] + \
                    bands_a[(levels - 1) - lev, r2, c2] * q
        b.assign(size, b.var("size") * 2)
    return b.build()
