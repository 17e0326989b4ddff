"""Integer Haar wavelet image compression — Table 1.1 row "Wavelet".

A compact but structurally faithful wavelet coder: multi-level separable
2-D Haar lifting over an image, subband quantization, and a significance
count — about a dozen loops with a few hot ones, reproducing the
"99 % of time in 13 of 25 loops" concentration the paper measures.

``haar2d`` is the NumPy reference used by tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program
from repro.ir.types import I32

if TYPE_CHECKING:
    import numpy as np

__all__ = ["haar2d", "quantize", "build_program"]


def haar2d(img: np.ndarray, levels: int) -> np.ndarray:
    """Reference in-place integer Haar transform (matches the IR order)."""
    import numpy as np

    a = np.asarray(img, dtype=np.int64).copy()
    n = a.shape[0]
    size = n
    for _ in range(levels):
        half = size // 2
        # rows
        for r in range(size):
            row = a[r, :size].copy()
            for c in range(half):
                s = (row[2 * c] + row[2 * c + 1]) >> 1
                d = row[2 * c] - row[2 * c + 1]
                a[r, c] = s
                a[r, half + c] = d
        # columns
        for c in range(size):
            col = a[:size, c].copy()
            for r in range(half):
                s = (col[2 * r] + col[2 * r + 1]) >> 1
                d = col[2 * r] - col[2 * r + 1]
                a[r, c] = s
                a[half + r, c] = d
        size = half
    return a


def quantize(coeffs: np.ndarray, q: int) -> np.ndarray:
    """Reference deadzone quantizer (truncation toward zero)."""
    import numpy as np

    c = np.asarray(coeffs, dtype=np.int64)
    return (np.sign(c) * (np.abs(c) // q)).astype(np.int64)


def build_program(n: int = 16, levels: int = 3, q: int = 4,
                  image: np.ndarray | None = None) -> Program:
    """IR wavelet coder over an ``n x n`` image (n a power of two)."""
    import numpy as np

    b = ProgramBuilder("wavelet")
    if image is None:
        rng = np.random.default_rng(0x3A3)
        yy, xx = np.mgrid[0:n, 0:n]
        image = (128 + 60 * np.sin(xx / 2.5) * np.cos(yy / 3.1)
                 + rng.integers(-8, 8, (n, n))).astype(np.int32)
    image = np.asarray(image, dtype=np.int32)

    img = b.array("img", (n, n), I32, init=image, output=True)
    tmp = b.array("tmp", (n,), I32)
    qcoef = b.array("qcoef", (n, n), I32, output=True)
    stats = b.array("stats", (2,), I32, output=True)

    s = b.local("s", I32)
    d = b.local("d", I32)
    size = b.local("size", I32)
    half = b.local("half", I32)
    nz = b.local("nz", I32)
    en = b.local("en", I32)
    v = b.local("v", I32)
    av = b.local("av", I32)

    b.assign(size, n)
    with b.loop("lev", 0, levels) as lev:
        b.assign(half, b.var("size") / 2)
        # horizontal lifting pass (hot)
        with b.loop("r", 0, b.var("size")) as r:
            with b.loop("c", 0, b.var("half")) as c:
                b.assign(s, (img[r, c * 2] + img[r, c * 2 + 1]) >> 1)
                b.assign(d, img[r, c * 2] - img[r, c * 2 + 1])
                tmp[c] = b.var("s")
                tmp[b.var("half") + c] = b.var("d")
            with b.loop("c2", 0, b.var("size")) as c2:
                img[r, c2] = tmp[c2]
        # vertical lifting pass (hot)
        with b.loop("c3", 0, b.var("size")) as c3:
            with b.loop("r2", 0, b.var("half")) as r2:
                b.assign(s, (img[r2 * 2, c3] + img[r2 * 2 + 1, c3]) >> 1)
                b.assign(d, img[r2 * 2, c3] - img[r2 * 2 + 1, c3])
                tmp[r2] = b.var("s")
                tmp[b.var("half") + r2] = b.var("d")
            with b.loop("r3", 0, b.var("size")) as r3:
                img[r3, c3] = tmp[r3]
        b.assign(size, b.var("half"))

    # quantization (hot)
    with b.loop("qr", 0, n) as qr:
        with b.loop("qc", 0, n) as qc:
            b.assign(v, img[qr, qc])
            b.assign(av, v)
            with b.if_(b.var("av") < 0):
                b.assign(av, -b.var("av"))
            b.assign(av, b.var("av") / q)
            with b.if_(b.var("v") < 0):
                b.assign(av, -b.var("av"))
            qcoef[qr, qc] = b.var("av")

    # significance statistics (cold-ish)
    b.assign(nz, 0)
    b.assign(en, 0)
    with b.loop("sr", 0, n) as sr:
        with b.loop("sc", 0, n) as sc:
            b.assign(v, qcoef[sr, sc])
            with b.if_(b.var("v").ne(0)):
                b.assign(nz, b.var("nz") + 1)
            b.assign(en, b.var("en") + b.var("v") * b.var("v"))
    stats[0] = b.var("nz")
    stats[1] = b.var("en")
    return b.build()
