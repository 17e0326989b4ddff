"""Unit tests for repro.ir.types."""

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.ir.types import (
    F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, type_from_name, unify,
    wrap_int,
)


class TestScalarType:
    def test_masks(self):
        assert U8.mask == 0xFF
        assert U16.mask == 0xFFFF
        assert I32.mask == 0xFFFFFFFF

    def test_ranges(self):
        assert I8.min_value == -128 and I8.max_value == 127
        assert U8.min_value == 0 and U8.max_value == 255
        assert I16.max_value == 32767

    def test_numpy_dtypes(self):
        assert U8.numpy_dtype() == np.dtype("u1")
        assert I32.numpy_dtype() == np.dtype("i4")
        assert F32.numpy_dtype() == np.dtype("f4")
        assert F64.numpy_dtype() == np.dtype("f8")

    def test_lookup_by_name(self):
        assert type_from_name("u8") is U8
        assert type_from_name("f64") is F64
        with pytest.raises(TypeMismatchError):
            type_from_name("u128")

    def test_str(self):
        assert str(U16) == "u16"


class TestUnify:
    def test_identity(self):
        assert unify(I32, I32) is I32

    def test_float_beats_int(self):
        assert unify(F64, I32) is F64
        assert unify(I8, F32) is F32

    def test_wider_float_wins(self):
        assert unify(F32, F64) is F64

    def test_wider_int_wins(self):
        assert unify(I8, I32) is I32
        assert unify(U16, U32) is U32

    def test_equal_width_unsigned_wins(self):
        assert unify(I32, U32) is U32
        assert unify(U8, I8) is U8


class TestWrapInt:
    @pytest.mark.parametrize("ty,value,expected", [
        (U8, 256, 0), (U8, 257, 1), (U8, -1, 255),
        (I8, 128, -128), (I8, -129, 127), (I8, 127, 127),
        (U16, 0x1_0000, 0), (I16, 0x8000, -0x8000),
        (U32, 1 << 32, 0), (I32, (1 << 31), -(1 << 31)),
        (U64, 1 << 64, 0), (I64, 1 << 63, -(1 << 63)),
    ])
    def test_wrap(self, ty, value, expected):
        assert wrap_int(value, ty) == expected

    def test_identity_in_range(self):
        for v in (-5, 0, 5, 100):
            assert wrap_int(v, I32) == v
