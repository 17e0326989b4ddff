"""Skipjack (declassified NSA block cipher) — thesis Fig. 2.5 / Table 6.1.

Two deliverables:

* :func:`encrypt_block` / :func:`encrypt_ecb` — a bit-exact reference
  implementation validated against the NIST test vector
  (``key 00998877665544332211, pt 33221100ddccbbaa ->
  ct 2587cae27a12d300``);
* :func:`build_program` — the IR kernel the compiler evaluates:
  an outer loop over independent 8-byte blocks ("unchained" = ECB, so
  outer iterations are parallel) and an inner loop of 32 rounds with the
  strong F-table recurrence that blocks classic pipelining (Fig. 2.5).

Variants (Table 6.1):

* ``mem`` — *Skipjack-mem*: F-table and key schedule are RAM arrays;
  every G-permutation lookup consumes a memory port;
* ``hw`` — *Skipjack-hw*: both tables are on-chip ROMs ("optimized for a
  hardware implementation ... local ROM for memory lookups"), so the
  inner loop issues no memory-bus references.

Rule A/B selection is expressed with ``Select`` (if-converted, §4.2), so
the inner loop is a single basic block.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ReproError
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program, Select
from repro.ir.types import I32, U8, U16

if TYPE_CHECKING:
    import numpy as np

__all__ = ["F_TABLE", "g_permute", "encrypt_block", "encrypt_ecb",
           "expanded_key_schedule", "build_program", "DEFAULT_KEY",
           "TEST_VECTOR"]

_F_HEX = """
a3 d7 09 83 f8 48 f6 f4 b3 21 15 78 99 b1 af f9
e7 2d 4d 8a ce 4c ca 2e 52 95 d9 1e 4e 38 44 28
0a df 02 a0 17 f1 60 68 12 b7 7a c3 e9 fa 3d 53
96 84 6b ba f2 63 9a 19 7c ae e5 f5 f7 16 6a a2
39 b6 7b 0f c1 93 81 1b ee b4 1a ea d0 91 2f b8
55 b9 da 85 3f 41 bf e0 5a 58 80 5f 66 0b d8 90
35 d5 c0 a7 33 06 65 69 45 00 94 56 6d 98 9b 76
97 fc b2 c2 b0 fe db 20 e1 eb d6 e4 dd 47 4a 1d
42 ed 9e 6e 49 3c cd 43 27 d2 07 d4 de c7 67 18
89 cb 30 1f 8d c6 8f aa c8 74 dc c9 5d 5c 31 a4
70 88 61 2c 9f 0d 2b 87 50 82 54 64 26 7d 03 40
34 4b 1c 73 d1 c4 fd 3b cc fb 7f ab e6 3e 5b a5
ad 04 23 9c 14 51 22 f0 29 79 71 7e ff 8c 0e e2
0c ef bc 72 75 6f 37 a1 ec d3 8e 62 8b 86 10 e8
08 77 11 be 92 4f 24 c5 32 36 9d cf f3 a6 bb ac
5e 6c a9 13 57 25 b5 e3 bd a8 3a 01 05 59 2a 46
"""

#: The declassified Skipjack F permutation (256 bytes).
F_TABLE: tuple[int, ...] = tuple(int(x, 16) for x in _F_HEX.split())
if len(F_TABLE) != 256 or len(set(F_TABLE)) != 256:
    raise ReproError(
        "embedded Skipjack F table is not a 256-byte permutation — "
        "the source constant was corrupted")

#: NIST sample key and the known-answer vector.
DEFAULT_KEY = bytes.fromhex("00998877665544332211")
TEST_VECTOR = {
    "key": DEFAULT_KEY,
    "plaintext": bytes.fromhex("33221100ddccbbaa"),
    "ciphertext": bytes.fromhex("2587cae27a12d300"),
}


def g_permute(key: bytes, k: int, w: int) -> int:
    """The G permutation: a 4-round Feistel on one 16-bit word."""
    g1, g2 = (w >> 8) & 0xFF, w & 0xFF
    g1 ^= F_TABLE[g2 ^ key[(4 * k) % 10]]
    g2 ^= F_TABLE[g1 ^ key[(4 * k + 1) % 10]]
    g1 ^= F_TABLE[g2 ^ key[(4 * k + 2) % 10]]
    g2 ^= F_TABLE[g1 ^ key[(4 * k + 3) % 10]]
    return (g1 << 8) | g2


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 8-byte block (32 rounds of rules A/B)."""
    if len(key) != 10 or len(block) != 8:
        raise ValueError("Skipjack needs a 10-byte key and 8-byte blocks")
    w = [(block[2 * i] << 8) | block[2 * i + 1] for i in range(4)]
    for k in range(32):
        counter = k + 1
        gw = g_permute(key, k, w[0])
        if (k & 8) == 0:  # rule A (rounds 1-8, 17-24)
            w = [gw ^ w[3] ^ counter, gw, w[1], w[2]]
        else:             # rule B (rounds 9-16, 25-32)
            w = [w[3], gw, w[0] ^ w[1] ^ counter, w[2]]
    out = bytearray()
    for x in w:
        out += bytes(((x >> 8) & 0xFF, x & 0xFF))
    return bytes(out)


def encrypt_ecb(key: bytes, data: bytes) -> bytes:
    """Unchained (ECB) encryption of a multiple-of-8-byte stream."""
    if len(data) % 8:
        raise ValueError("data length must be a multiple of 8")
    return b"".join(encrypt_block(key, data[o:o + 8])
                    for o in range(0, len(data), 8))


def expanded_key_schedule(key: bytes) -> tuple[int, ...]:
    """The 128-entry cv table: ``cv[4k+m] = key[(4k+m) mod 10]`` (Fig. 2.5)."""
    return tuple(key[t % 10] for t in range(128))


def build_program(m_blocks: int = 16, variant: str = "mem",
                  key: bytes = DEFAULT_KEY, n_rounds: int = 32,
                  data: Optional[Sequence[int]] = None) -> Program:
    """Build the Skipjack IR kernel.

    The data stream is stored as ``4*m_blocks`` 16-bit words (seeded
    random words unless ``data`` gives them); the outer loop processes
    one block per iteration, the annotated inner loop runs ``n_rounds``
    rounds.
    """
    if variant not in ("mem", "hw"):
        raise ValueError(f"unknown variant {variant!r}")
    rom = variant == "hw"
    name = f"skipjack-{variant}"
    b = ProgramBuilder(name)

    cvt = expanded_key_schedule(key)[: 4 * n_rounds]
    if rom:
        F = b.rom("F", F_TABLE, U8)
        CV = b.rom("cv", cvt, U8)
    else:
        F = b.array("F", (len(F_TABLE),), U8, init=F_TABLE)
        CV = b.array("cv", (len(cvt),), U8, init=cvt)

    if data is None:
        rng = random.Random(0x5A5A)
        data = [rng.randrange(1 << 16) for _ in range(4 * m_blocks)]
    din = b.array("data_in", (4 * m_blocks,), U16, init=data)
    dout = b.array("data_out", (4 * m_blocks,), U16, output=True)

    w1 = b.local("w1", U16)
    w2 = b.local("w2", U16)
    w3 = b.local("w3", U16)
    w4 = b.local("w4", U16)
    g1 = b.local("g1", U8)
    g2 = b.local("g2", U8)
    gw = b.local("gw", U16)
    cnt = b.local("cnt", I32)
    nw1 = b.local("nw1", U16)
    nw3 = b.local("nw3", U16)

    with b.loop("i", 0, m_blocks) as i:
        b.assign(w1, din[i * 4])
        b.assign(w2, din[i * 4 + 1])
        b.assign(w3, din[i * 4 + 2])
        b.assign(w4, din[i * 4 + 3])
        with b.loop("j", 0, n_rounds, kernel=True) as j:
            # G permutation: 4 F-lookups chained through g1/g2 (Fig. 2.5)
            b.assign(g1, b.var("w1") >> 8)
            b.assign(g2, b.var("w1") & 0xFF)
            b.assign(g1, b.var("g1") ^ F[(b.var("g2") ^ CV[j * 4]).cast(I32)])
            b.assign(g2, b.var("g2") ^ F[(b.var("g1") ^ CV[j * 4 + 1]).cast(I32)])
            b.assign(g1, b.var("g1") ^ F[(b.var("g2") ^ CV[j * 4 + 2]).cast(I32)])
            b.assign(g2, b.var("g2") ^ F[(b.var("g1") ^ CV[j * 4 + 3]).cast(I32)])
            b.assign(gw, (b.var("g1").cast(U16) << 8) | b.var("g2").cast(U16))
            b.assign(cnt, j + 1)
            # rule A for rounds 0-7 and 16-23, rule B otherwise (if-converted)
            is_a = (j & 8).eq(0)
            b.assign(nw1, Select(is_a,
                                 b.var("gw") ^ b.var("w4") ^ b.var("cnt").cast(U16),
                                 b.var("w4")))
            b.assign(nw3, Select(is_a,
                                 b.var("w2"),
                                 b.var("w1") ^ b.var("w2") ^ b.var("cnt").cast(U16)))
            b.assign(w4, b.var("w3"))
            b.assign(w3, b.var("nw3"))
            b.assign(w2, b.var("gw"))
            b.assign(w1, b.var("nw1"))
        dout[i * 4] = b.var("w1")
        dout[i * 4 + 1] = b.var("w2")
        dout[i * 4 + 2] = b.var("w3")
        dout[i * 4 + 3] = b.var("w4")
    return b.build()


def reference_output(program_input: Sequence[int], key: bytes = DEFAULT_KEY,
                     n_rounds: int = 32) -> "np.ndarray":
    """Expected ``data_out`` contents for :func:`build_program`'s input."""
    import numpy as np

    words = np.asarray(program_input, dtype=np.uint16)
    out = np.empty_like(words)
    for blk in range(len(words) // 4):
        w = [int(x) for x in words[4 * blk: 4 * blk + 4]]
        for k in range(n_rounds):
            counter = k + 1
            gw = g_permute(key, k, w[0])
            if (k & 8) == 0:
                w = [gw ^ w[3] ^ counter, gw, w[1], w[2]]
            else:
                w = [w[3], gw, w[0] ^ w[1] ^ counter, w[2]]
        out[4 * blk: 4 * blk + 4] = w
    return out
