"""Unit + property tests for the dependence analysis engines."""

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    DistanceKind, affine_of, collect_accesses, find_loop_nests,
    outer_distance, squash_case,
)
from repro.ir import BinOp, Const, I32, ProgramBuilder, U8, UnOp, Var


def _nest(body_fn, m=8, n=4):
    """Build a 2-nest whose inner body is produced by body_fn(b, i, j)."""
    b = ProgramBuilder("dep")
    arrays = {}
    for name in ("A", "B"):
        arrays[name] = b.array(name, (64,), I32, output=True)
    with b.loop("i", 0, m) as i:
        with b.loop("j", 0, n) as j:
            body_fn(b, arrays, i, j)
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


class TestAffineExtraction:
    def test_simple(self):
        i, j = Var("i", I32), Var("j", I32)
        f = affine_of(i * 4 + j + 3, {"i", "j"})
        assert f.const == 3 and f.coeffs == {"i": 4, "j": 1}

    def test_sub_and_neg(self):
        i = Var("i", I32)
        f = affine_of(UnOp("neg", i) - 2, {"i"})
        assert f.const == -2 and f.coeffs == {"i": -1}

    def test_shl_scaling(self):
        i = Var("i", I32)
        f = affine_of(i << 3, {"i"})
        assert f.coeffs == {"i": 8}

    def test_non_affine(self):
        i, j = Var("i", I32), Var("j", I32)
        assert affine_of(i * j, {"i", "j"}) is None
        assert affine_of(BinOp("and", i, Const(7, I32)), {"i"}) is None

    def test_unknown_var(self):
        assert affine_of(Var("x", I32), {"i"}) is None


class TestOuterDistance:
    def test_disjoint_slots_case1(self):
        # A[i] store: each outer iteration owns its slot
        prog, nest = _nest(lambda b, a, i, j: a["A"].__setitem__(i, j))
        accs = [a for a in collect_accesses(nest) if a.is_store]
        d = outer_distance(accs[0], accs[0], nest)
        assert d.kind is DistanceKind.FINITE and d.distances == frozenset({0})
        assert squash_case(d, 4) == 1

    def test_fixed_slot_all_distances(self):
        prog, nest = _nest(lambda b, a, i, j: a["A"].__setitem__(0, j))
        acc = [a for a in collect_accesses(nest) if a.is_store][0]
        d = outer_distance(acc, acc, nest)
        assert d.kind is DistanceKind.ALL
        assert squash_case(d, 2) == 3

    def test_neighbor_distance_case3_then_case2(self):
        # store A[i], load A[i+3]: distance 3
        def body(b, a, i, j):
            x = b.let("x", a["A"][(i + 3) & 63])
            a["A"][i] = x
        prog, nest = _nest(body)
        accs = collect_accesses(nest)
        store = next(a for a in accs if a.is_store)
        load = next(a for a in accs if not a.is_store)
        d = outer_distance(store, load, nest)
        assert d.intersects_range(-3, 3)
        assert squash_case(d, 4) == 3   # 3 <= DS-1
        assert squash_case(d, 2) == 2   # window ±1 misses distance 3

    def test_load_load_independent(self):
        def body(b, a, i, j):
            b.let("x", a["A"][i] + a["A"][(i + 1) & 63])
        prog, nest = _nest(body)
        accs = [a for a in collect_accesses(nest) if not a.is_store]
        d = outer_distance(accs[0], accs[1], nest)
        assert d.kind is DistanceKind.EMPTY

    def test_different_arrays_independent(self):
        def body(b, a, i, j):
            a["A"][i] = 1
            a["B"][i] = 2
        prog, nest = _nest(body)
        accs = [a for a in collect_accesses(nest) if a.is_store]
        d = outer_distance(accs[0], accs[1], nest)
        assert d.kind is DistanceKind.EMPTY

    def test_inner_index_offsets(self):
        # store A[4*i + j] with j in [0,4): slots overlap only at distance 0
        def body(b, a, i, j):
            a["A"][i * 4 + j] = j
        prog, nest = _nest(body, m=8, n=4)
        acc = [a for a in collect_accesses(nest) if a.is_store][0]
        d = outer_distance(acc, acc, nest)
        assert squash_case(d, 8) == 1

    def test_inner_index_overlapping_tiles(self):
        # store A[2*i + j] with j in [0,4): iterations i and i+1 collide
        def body(b, a, i, j):
            a["A"][i * 2 + j] = j
        prog, nest = _nest(body, m=8, n=4)
        acc = [a for a in collect_accesses(nest) if a.is_store][0]
        d = outer_distance(acc, acc, nest)
        assert squash_case(d, 2) == 3

    def test_non_affine_brute_force(self):
        # (i*i) & 7 is non-affine; brute force must still resolve it soundly
        def body(b, a, i, j):
            a["A"][BinOp("and", i * i, Const(7, I32))] = j
        prog, nest = _nest(body, m=8, n=2)
        acc = [a for a in collect_accesses(nest) if a.is_store][0]
        d = outer_distance(acc, acc, nest)
        assert d.kind is DistanceKind.FINITE
        # i*i & 7 for i in 0..7 -> [0,1,4,1,0,1,4,1]: i=1,i=3 collide (dist 2)
        assert 2 in d.distances

    def test_unknown_when_subscript_uses_scalar(self):
        def body(b, a, i, j):
            x = b.let("x", a["A"][i])
            a["A"][BinOp("and", Var("x", I32), Const(63, I32))] = 1
        prog, nest = _nest(body)
        accs = collect_accesses(nest)
        store = next(a for a in accs
                     if a.is_store and not isinstance(a.index[0], Var))
        d = outer_distance(store, store, nest)
        assert d.kind is DistanceKind.UNKNOWN
        assert squash_case(d, 2) == 3  # conservative

    def test_rom_loads_excluded(self):
        import numpy as np
        b = ProgramBuilder("p")
        rom = b.rom("T", np.arange(16, dtype=np.uint8), U8)
        out = b.array("out", (8,), U8, output=True)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2) as j:
                out[i] = rom[BinOp("and", i + j, Const(15, I32))]
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        accs = collect_accesses(nest, rom_names=frozenset({"T"}))
        assert {a.array for a in accs} == {"out"}


class TestSoundness:
    """The analytic engine must never report fewer distances than brute force."""

    @staticmethod
    def _check(body, addr1_fn, addr2_fn, m=6, n=3):
        prog, nest = _nest(body, m=m, n=n)
        accs = collect_accesses(nest)
        store = next(x for x in accs if x.is_store)
        load = next(x for x in accs if not x.is_store)

        truth = set()
        addr1: dict[int, set[int]] = {}
        addr2: dict[int, set[int]] = {}
        for i in range(m):
            for j in range(n):
                addr1.setdefault(addr1_fn(i, j), set()).add(i)
                addr2.setdefault(addr2_fn(i, j), set()).add(i)
        for key, s1 in addr1.items():
            for i2 in addr2.get(key, ()):
                for i1 in s1:
                    truth.add(i2 - i1)

        d = outer_distance(store, load, nest)
        if d.kind is DistanceKind.FINITE:
            assert truth <= set(d.distances), (
                f"unsound: truth {sorted(truth)} vs reported {sorted(d.distances)}")
        if d.kind is DistanceKind.EMPTY:
            assert not truth

    @given(a=st.integers(-3, 3), b=st.integers(-3, 3), c1=st.integers(0, 8),
           c2=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_affine_engine_sound(self, a, b, c1, c2):
        # offsets keep subscripts in [0, 64) so the pure-affine path is used
        def body(bb, arrs, i, j):
            arrs["A"][i * a + j * b + c1 + 32] = 1
            bb.let("x", arrs["A"][i * a + j * b + c2 + 32])
        self._check(body, lambda i, j: i * a + j * b + c1 + 32,
                    lambda i, j: i * a + j * b + c2 + 32)

    @given(a=st.integers(-3, 3), b=st.integers(-3, 3), c1=st.integers(0, 8),
           c2=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_brute_force_engine_sound(self, a, b, c1, c2):
        size = 64

        def clamp(e):
            return BinOp("and", e, Const(size - 1, I32))

        def body(bb, arrs, i, j):
            arrs["A"][clamp(i * a + j * b + c1)] = 1
            bb.let("x", arrs["A"][clamp(i * a + j * b + c2)])
        self._check(body, lambda i, j: (i * a + j * b + c1) & (size - 1),
                    lambda i, j: (i * a + j * b + c2) & (size - 1))
