"""Scalar types for the loop IR.

The IR is deliberately close to the C subset the Nimble Compiler consumed:
fixed-width two's-complement integers plus IEEE floats.  Integer arithmetic
wraps at the declared width (the crypto kernels depend on 8/16/32-bit
wrap-around), floats follow Python double semantics, and ``f32``
values round through IEEE single precision (:func:`round_f32`).

Types are interned singletons; compare with ``is`` or ``==`` freely.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ScalarType",
    "I8", "U8", "I16", "U16", "I32", "U32", "I64", "U64",
    "F32", "F64", "BOOL",
    "INT_TYPES", "FLOAT_TYPES", "ALL_TYPES",
    "unify", "wrap_int", "round_f32",
]


@dataclass(frozen=True)
class ScalarType:
    """A fixed-width scalar type.

    Attributes
    ----------
    name:
        C-like spelling, e.g. ``"u8"`` or ``"f64"``.
    bits:
        Storage width in bits.
    signed:
        Two's-complement signedness (meaningless for floats).
    is_float:
        Whether this is an IEEE floating type.
    """

    name: str
    bits: int
    signed: bool
    is_float: bool = False

    @property
    def mask(self) -> int:
        """All-ones mask at this width (integers only)."""
        return (1 << self.bits) - 1

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    def numpy_dtype(self) -> "np.dtype":
        """The NumPy dtype value-level code stores arrays of this type in."""
        import numpy as np

        if self.is_float:
            return np.dtype("f4") if self.bits == 32 else np.dtype("f8")
        kind = "i" if self.signed else "u"
        return np.dtype(f"{kind}{self.bits // 8}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    def __str__(self) -> str:
        return self.name


I8 = ScalarType("i8", 8, True)
U8 = ScalarType("u8", 8, False)
I16 = ScalarType("i16", 16, True)
U16 = ScalarType("u16", 16, False)
I32 = ScalarType("i32", 32, True)
U32 = ScalarType("u32", 32, False)
I64 = ScalarType("i64", 64, True)
U64 = ScalarType("u64", 64, False)
F32 = ScalarType("f32", 32, False, is_float=True)
F64 = ScalarType("f64", 64, False, is_float=True)
#: Comparison results; stored as an 8-bit 0/1 value.
BOOL = ScalarType("bool", 8, False)

INT_TYPES = (I8, U8, I16, U16, I32, U32, I64, U64, BOOL)
FLOAT_TYPES = (F32, F64)
ALL_TYPES = INT_TYPES + FLOAT_TYPES

def unify(a: ScalarType, b: ScalarType) -> ScalarType:
    """C-like usual arithmetic conversions between two scalar types.

    * float beats int; wider float beats narrower float;
    * otherwise the wider integer wins; at equal width unsigned wins.
    """
    if a is b:
        return a
    if a.is_float or b.is_float:
        if a.is_float and b.is_float:
            return a if a.bits >= b.bits else b
        return a if a.is_float else b
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    if a.signed == b.signed:
        return a
    return a if not a.signed else b


def wrap_int(value: int, ty: ScalarType) -> int:
    """Wrap a Python integer to ``ty``'s width with two's-complement semantics."""
    value &= ty.mask
    if ty.signed and value > ty.max_value:
        value -= 1 << ty.bits
    return value


_F32 = struct.Struct("f")


def round_f32(x: float) -> float:
    """``x`` rounded to IEEE single precision (to-nearest-even, as a C
    cast does), as a Python float; values past the single range become
    infinities of their sign."""
    try:
        return _F32.unpack(_F32.pack(x))[0]
    except OverflowError:
        return math.inf if x > 0 else -math.inf
