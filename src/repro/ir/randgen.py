"""Random program generation for property-based testing.

Two generators:

* :func:`random_program` — arbitrary structured programs (straight-line
  code, nested counted loops, conditionals, array traffic), valid by
  construction.  Used to check that if-conversion preserves semantics
  and that programs survive cloning and the ``.lang`` round trip.
* :func:`random_squashable_nest` — inner/outer loop pairs that satisfy the
  unroll-and-squash requirements by construction (parallel outer
  iterations, single-basic-block inner loop with scalar recurrences, ROM
  lookups, per-iteration array slots).  Used for the headline
  "squash(DS) == original" property test.

Both take a :class:`random.Random` so hypothesis can drive them through a
seed strategy and shrinking stays meaningful (smaller seeds => different,
not smaller, programs; we expose size knobs for shrinking instead).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import BinOp, Const, Expr, For, Load, Program, Select, Var
from repro.ir.types import F64, I16, I32, U16, U32, U8, ScalarType

__all__ = ["RandConfig", "random_program", "random_squashable_nest",
           "SquashNestSpec", "ValueDomain"]

_INT_CHOICES = (U8, U16, I16, I32, U32)
_ARITH = ("add", "sub", "mul", "and", "or", "xor")
_SHIFTS = ("shl", "shr")


@dataclass(frozen=True)
class ValueDomain:
    """Value/shape sampling shared by the nest generators.

    Both :func:`random_squashable_nest` (IR-level) and the source-level
    generator in :mod:`repro.lang.fuzz` draw their input types, array
    contents, ROM tables, operators, and constants from one domain, so
    the two fuzzers exercise the same numeric space and differential
    findings transfer between them.
    """

    in_types: tuple[ScalarType, ...] = (U8, U16, U32)
    arith_ops: tuple[str, ...] = _ARITH
    rom_size: int = 256
    const_lo: int = 1
    const_hi: int = 64

    def pick_in_type(self, rng: random.Random) -> ScalarType:
        return rng.choice(self.in_types)

    def sample_init(self, rng: random.Random, ty: ScalarType,
                    n: int) -> list[int]:
        """Contents for an input array of ``ty`` (16-bit capped so u32
        seeds stay comfortably inside every backend's literal paths)."""
        return [rng.randrange(0, 1 << min(ty.bits, 16)) for _ in range(n)]

    def sample_rom(self, rng: random.Random) -> list[int]:
        return [rng.randrange(0, 256) for _ in range(self.rom_size)]

    def pick_op(self, rng: random.Random) -> str:
        return rng.choice(self.arith_ops)

    def sample_const(self, rng: random.Random) -> int:
        return rng.randrange(self.const_lo, self.const_hi)


@dataclass
class RandConfig:
    """Size/shape knobs for :func:`random_program`."""

    max_depth: int = 2          # loop nesting
    max_stmts: int = 6          # statements per block
    max_expr_depth: int = 3
    n_arrays: int = 2
    array_size: int = 16        # power of two (indices are masked)
    n_scalars: int = 4
    allow_if: bool = True
    allow_float: bool = False
    allow_div: bool = True
    max_trip: int = 6


class _Gen:
    def __init__(self, rng: random.Random, cfg: RandConfig):
        self.rng = rng
        self.cfg = cfg
        self.b = ProgramBuilder(f"rand_{rng.randrange(1 << 30)}")
        self.scalars: list[tuple[str, ScalarType]] = []
        self.arrays: list[str] = []
        self.loop_vars: list[str] = []

    # -- expressions -------------------------------------------------------

    def expr(self, depth: int, want_float: bool = False) -> Expr:
        r = self.rng
        cfg = self.cfg
        leaves_only = depth >= cfg.max_expr_depth
        choice = r.random()
        if leaves_only or choice < 0.35:
            kind = r.random()
            if kind < 0.4 and self.scalars:
                name, ty = r.choice(self.scalars)
                if ty.is_float == want_float:
                    return Var(name, ty)
            if kind < 0.6 and self.loop_vars and not want_float:
                return Var(r.choice(self.loop_vars), I32)
            if want_float:
                return Const(round(r.uniform(-4.0, 4.0), 3), F64)
            return Const(r.randrange(-64, 64), I32)
        if choice < 0.8:
            op = r.choice(_ARITH if not want_float else ("add", "sub", "mul"))
            lhs = self.expr(depth + 1, want_float)
            rhs = self.expr(depth + 1, want_float)
            return BinOp(op, lhs, rhs)
        if choice < 0.86 and not want_float:
            op = r.choice(_SHIFTS)
            lhs = self.expr(depth + 1)
            return BinOp(op, lhs, Const(r.randrange(0, 7), I32))
        if choice < 0.9 and cfg.allow_div and not want_float:
            lhs = self.expr(depth + 1)
            rhs = BinOp("or", self.expr(depth + 1), Const(1, I32))
            return BinOp(self.rng.choice(("div", "mod")), lhs, rhs)
        if choice < 0.95 and self.arrays and not want_float:
            return self.load(depth)
        cond = BinOp(r.choice(("lt", "ge", "eq")),
                     self.expr(depth + 1), self.expr(depth + 1))
        return Select(cond, self.expr(depth + 1, want_float),
                      self.expr(depth + 1, want_float))

    def load(self, depth: int) -> Expr:
        arr = self.rng.choice(self.arrays)
        decl = self.b.program.arrays[arr]
        idx = BinOp("and", self.expr(depth + 1), Const(decl.shape[0] - 1, I32))
        return Load(arr, (idx,), decl.ty)

    # -- statements ----------------------------------------------------------

    def block(self, depth: int) -> None:
        n = self.rng.randrange(1, self.cfg.max_stmts + 1)
        for _ in range(n):
            self.stmt(depth)

    def stmt(self, depth: int) -> None:
        r = self.rng
        cfg = self.cfg
        c = r.random()
        if c < 0.5 or depth >= cfg.max_depth:
            if c < 0.25 and self.arrays:
                arr = r.choice(self.arrays)
                decl = self.b.program.arrays[arr]
                idx = BinOp("and", self.expr(1), Const(decl.shape[0] - 1, I32))
                self.b.store(arr, idx, self.expr(1, decl.ty.is_float))
            else:
                name, ty = r.choice(self.scalars)
                self.b.assign(name, self.expr(1, ty.is_float))
            return
        if c < 0.65 and cfg.allow_if:
            cond = BinOp(r.choice(("lt", "ge", "ne")), self.expr(1), self.expr(1))
            with self.b.if_(cond):
                self.block(depth + 1)
            if r.random() < 0.5:
                with self.b.else_():
                    self.block(depth + 1)
            return
        var = f"l{len(self.loop_vars)}_{depth}"
        trip = r.randrange(1, cfg.max_trip + 1)
        lo = r.randrange(0, 3)
        with self.b.loop(var, lo, lo + trip):
            self.loop_vars.append(var)
            self.block(depth + 1)
            self.loop_vars.pop()

    def build(self) -> Program:
        r = self.rng
        cfg = self.cfg
        for i in range(cfg.n_arrays):
            ty = r.choice(_INT_CHOICES)
            lo = max(ty.min_value, -32768)
            hi = min(ty.max_value, 32767)
            init = [r.randrange(lo, hi + 1) for _ in range(cfg.array_size)]
            self.b.array(f"arr{i}", (cfg.array_size,), ty, init=init, output=True)
            self.arrays.append(f"arr{i}")
        for i in range(cfg.n_scalars):
            ty = F64 if (cfg.allow_float and r.random() < 0.3) else r.choice(_INT_CHOICES)
            v = self.b.local(f"s{i}", ty)
            self.b.assign(v, round(r.uniform(-8, 8), 2) if ty.is_float
                          else r.randrange(-100, 100))
            self.scalars.append((f"s{i}", ty))
        self.block(0)
        return self.b.build()


def random_program(rng: random.Random,
                   cfg: RandConfig | None = None) -> Program:
    """Generate a random valid program (see module docstring)."""
    return _Gen(rng, cfg or RandConfig()).build()


# ---------------------------------------------------------------------------
# Squashable inner/outer nests
# ---------------------------------------------------------------------------

@dataclass
class SquashNestSpec:
    """Shape knobs for :func:`random_squashable_nest`."""

    m: int = 12                  # outer trip count
    n: int = 5                   # inner trip count
    n_state: int = 3             # live scalar recurrence chain width
    n_ops: int = 6               # extra ops in the inner body
    use_rom: bool = True
    use_inner_iv: bool = True    # reference j inside the body
    use_outer_iv: bool = True    # reference i inside the body
    seed_arrays: int = 2


def random_squashable_nest(rng: random.Random,
                           spec: SquashNestSpec | None = None,
                           domain: ValueDomain | None = None,
                           ) -> tuple[Program, For]:
    """Generate ``(program, outer_loop)`` satisfying the squash requirements.

    Construction guarantees (mirroring thesis §4.1):

    * the outer loop's iterations touch disjoint array slots (``[i]``),
      so tiled iterations are parallel (dependence Case 1/2);
    * the inner loop is one basic block with constant trip count;
    * the inner body carries scalar recurrences across inner iterations
      (the hard case squash targets).
    """
    spec = spec or SquashNestSpec()
    dom = domain or ValueDomain()
    r = rng
    b = ProgramBuilder(f"nest_{r.randrange(1 << 30)}")
    m, n = spec.m, spec.n

    ins = []
    for k in range(spec.seed_arrays):
        ty = dom.pick_in_type(r)
        ins.append(b.array(f"in{k}", (m,), ty, init=dom.sample_init(r, ty, m)))
    out = b.array("out", (m,), U32, output=True)
    rom = None
    if spec.use_rom:
        rom = b.rom("rom", dom.sample_rom(r), U8)

    state = [b.local(f"x{k}", U32) for k in range(spec.n_state)]

    with b.loop("i", 0, m) as i:
        for k, v in enumerate(state):
            b.assign(v, ins[k % len(ins)][i] + k)
        with b.loop("j", 0, n, kernel=True) as j:
            exprs: list[Expr] = [Var(v.name, U32) for v in state]
            if spec.use_inner_iv:
                exprs.append(j)
            if spec.use_outer_iv:
                exprs.append(i)
            for t in range(spec.n_ops):
                op = dom.pick_op(r)
                a = r.choice(exprs)
                bb = r.choice(exprs + [Const(dom.sample_const(r), U32)])
                e: Expr = BinOp(op, a, bb)
                if rom is not None and r.random() < 0.35:
                    e = rom[BinOp("and", e, Const(255, I32))] + e
                tmp = b.let(f"t{t}", e, U32)
                exprs.append(tmp)
            # rotate the recurrence chain so every state var is live-in & live-out
            for k, v in enumerate(state):
                b.assign(v, BinOp("add", Var(state[(k + 1) % len(state)].name, U32),
                                  exprs[-(k % len(exprs)) - 1]))
        acc: Expr = Var(state[0].name, U32)
        for v in state[1:]:
            acc = BinOp("xor", acc, Var(v.name, U32))
        out[i] = acc

    prog = b.build()
    outer = next(s for s in prog.body.stmts if isinstance(s, For))
    return prog, outer
