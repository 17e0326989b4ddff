"""DES (FIPS 46) — Table 6.1 benchmarks *DES-mem* / *DES-hw*.

Deliverables:

* a bit-exact reference implementation (:func:`encrypt_block`) validated
  against the classic known-answer vector
  (``key 133457799BBCDFF1, pt 0123456789ABCDEF -> ct 85E813540F0AB405``);
* :func:`build_program` — the IR kernel: outer loop over independent
  64-bit blocks (ECB), inner loop of 16 Feistel rounds.

The IR kernel computes the **DES core** — the 16 rounds between the
initial and final permutations.  IP/FP are free wiring in hardware and
the thesis kernels operate on the post-IP block; our driver applies
IP/FP in the data marshalling (see :func:`reference_output`), which is
semantically identical for ECB.

The round function uses the classic combined S+P tables (``SP[8][64]``,
32-bit entries) and the expansion E exploited as contiguous 6-bit
windows of the rotated R — the standard software formulation whose
operator inventory matches a synthesized round.  Variants:

* ``mem`` — *DES-mem*: SP tables and round-key chunks are RAM arrays
  ("SBOX implemented in software with memory references");
* ``hw`` — *DES-hw*: both are on-chip ROMs ("SBOX implemented in
  hardware without memory references").
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Program
from repro.ir.types import I32, U8, U32

if TYPE_CHECKING:
    import numpy as np

__all__ = ["encrypt_block", "encrypt_ecb", "des_core", "key_chunks",
           "sp_tables", "build_program", "DEFAULT_KEY", "TEST_VECTOR",
           "initial_permutation", "final_permutation", "reference_output"]

# --------------------------------------------------------------------------
# FIPS 46 tables
# --------------------------------------------------------------------------

IP = (58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
      62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
      57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
      61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7)
FP = (40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
      38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
      36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
      34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25)
E = (32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13,
     14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
     24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1)
P = (16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
     2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25)
PC1 = (57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
       10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
       63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
       14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4)
PC2 = (14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4,
       26, 8, 16, 7, 27, 20, 13, 2, 41, 52, 31, 37, 47, 55, 30, 40,
       51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32)
SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)
SBOX = (
    (14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
     0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
     4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
     15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13),
    (15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
     3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
     0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
     13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9),
    (10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
     13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
     13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
     1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12),
    (7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
     13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
     10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
     3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14),
    (2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
     14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
     4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
     11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3),
    (12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
     10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
     9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
     4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13),
    (4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
     13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
     1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
     6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12),
    (13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
     1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
     7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
     2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11),
)

#: Classic textbook key / known-answer vector.
DEFAULT_KEY = 0x133457799BBCDFF1
TEST_VECTOR = {
    "key": DEFAULT_KEY,
    "plaintext": 0x0123456789ABCDEF,
    "ciphertext": 0x85E813540F0AB405,
}


def _permute(val: int, nbits: int, table: tuple[int, ...]) -> int:
    out = 0
    for pos in table:
        out = (out << 1) | ((val >> (nbits - pos)) & 1)
    return out


def initial_permutation(block: int) -> int:
    return _permute(block, 64, IP)


def final_permutation(block: int) -> int:
    return _permute(block, 64, FP)


def key_schedule(key64: int) -> list[int]:
    """The 16 48-bit round keys."""
    k56 = _permute(key64, 64, PC1)
    c, d = k56 >> 28, k56 & 0xFFFFFFF
    keys = []
    for s in SHIFTS:
        c = ((c << s) | (c >> (28 - s))) & 0xFFFFFFF
        d = ((d << s) | (d >> (28 - s))) & 0xFFFFFFF
        keys.append(_permute((c << 28) | d, 56, PC2))
    return keys


def key_chunks(key64: int) -> tuple[int, ...]:
    """Round keys as 16x8 6-bit chunks, flattened (the ``ks`` table)."""
    return tuple((k48 >> (42 - 6 * s)) & 0x3F
                 for k48 in key_schedule(key64) for s in range(8))


def _sp_word(s: int, v: int) -> int:
    row = ((v >> 4) & 2) | (v & 1)
    col = (v >> 1) & 0xF
    return _permute(SBOX[s][row * 16 + col] << (28 - 4 * s), 32, P)


def sp_tables() -> tuple[tuple[int, ...], ...]:
    """Combined S-box + P-permutation tables: ``SP[8][64]`` 32-bit words."""
    return tuple(tuple(_sp_word(s, v) for v in range(64)) for s in range(8))


def _feistel(r: int, k48: int) -> int:
    e = _permute(r, 32, E) ^ k48
    out = 0
    for s in range(8):
        chunk = (e >> (42 - 6 * s)) & 0x3F
        row = ((chunk >> 4) & 2) | (chunk & 1)
        col = (chunk >> 1) & 0xF
        out = (out << 4) | SBOX[s][row * 16 + col]
    return _permute(out, 32, P)


def des_core(key64: int, block_post_ip: int, rounds: int = 16) -> int:
    """The 16 Feistel rounds between IP and FP (incl. the final swap)."""
    keys = key_schedule(key64)[:rounds]
    l, r = block_post_ip >> 32, block_post_ip & 0xFFFFFFFF
    for k in keys:
        l, r = r, l ^ _feistel(r, k)
    return (r << 32) | l


def encrypt_block(key64: int, block64: int) -> int:
    """Full single-block DES encryption (IP + 16 rounds + FP)."""
    return final_permutation(des_core(key64, initial_permutation(block64)))


def encrypt_ecb(key64: int, blocks: list[int]) -> list[int]:
    """ECB encryption of a list of 64-bit blocks."""
    return [encrypt_block(key64, b) for b in blocks]


# --------------------------------------------------------------------------
# IR kernel
# --------------------------------------------------------------------------

def build_program(m_blocks: int = 16, variant: str = "mem",
                  key: int = DEFAULT_KEY, n_rounds: int = 16,
                  data: Optional[Sequence[int]] = None) -> Program:
    """Build the DES-core IR kernel (see module docstring).

    ``data`` holds ``2*m_blocks`` 32-bit words: the post-IP (L, R) halves
    of each block (seeded random words by default).
    """
    if variant not in ("mem", "hw"):
        raise ValueError(f"unknown variant {variant!r}")
    rom = variant == "hw"
    b = ProgramBuilder(f"des-{variant}")

    sp = sp_tables()
    ks = key_chunks(key)[: 8 * n_rounds]
    if rom:
        SP = b.rom("SP", sp, U32)
        KS = b.rom("ks", ks, U8)
    else:
        SP = b.array("SP", (len(sp), len(sp[0])), U32, init=sp)
        KS = b.array("ks", (len(ks),), U8, init=ks)

    if data is None:
        rng = random.Random(0xDE5)
        data = [rng.randrange(1 << 32) for _ in range(2 * m_blocks)]
    din = b.array("data_in", (2 * m_blocks,), U32, init=data)
    dout = b.array("data_out", (2 * m_blocks,), U32, output=True)

    L = b.local("L", U32)
    R = b.local("R", U32)
    r1 = b.local("r1", U32)    # R rotated right by 1 (expansion windows)
    f = b.local("f", U32)
    ch = b.local("ch", U32)
    t = b.local("t", U32)

    with b.loop("i", 0, m_blocks) as i:
        b.assign(L, din[i * 2])
        b.assign(R, din[i * 2 + 1])
        with b.loop("j", 0, n_rounds, kernel=True) as j:
            b.assign(r1, (b.var("R") >> 1) | (b.var("R") << 31))
            b.assign(f, 0)
            for s in range(7):
                b.assign(ch, (b.var("r1") >> (26 - 4 * s)) & 0x3F)
                b.assign(ch, b.var("ch") ^ KS[j * 8 + s].cast(U32))
                b.assign(f, b.var("f") | SP[s, b.var("ch").cast(I32)])
            # group 7 wraps: bits 28..32 of R then bit 1
            b.assign(ch, ((b.var("R") & 0x1F) << 1) | (b.var("R") >> 31))
            b.assign(ch, b.var("ch") ^ KS[j * 8 + 7].cast(U32))
            b.assign(f, b.var("f") | SP[7, b.var("ch").cast(I32)])
            b.assign(t, b.var("L") ^ b.var("f"))
            b.assign(L, b.var("R"))
            b.assign(R, b.var("t"))
        # final swap: ciphertext halves are (R, L)
        dout[i * 2] = b.var("R")
        dout[i * 2 + 1] = b.var("L")
    return b.build()


def reference_output(program_input: Sequence[int], key: int = DEFAULT_KEY,
                     n_rounds: int = 16) -> "np.ndarray":
    """Expected ``data_out`` for :func:`build_program`'s ``data_in``."""
    import numpy as np

    words = np.asarray(program_input, dtype=np.uint32)
    out = np.empty_like(words)
    for blk in range(len(words) // 2):
        post_ip = (int(words[2 * blk]) << 32) | int(words[2 * blk + 1])
        core = des_core(key, post_ip, rounds=n_rounds)
        out[2 * blk] = core >> 32
        out[2 * blk + 1] = core & 0xFFFFFFFF
    return out
