"""Unroll-and-jam analyses by replication (thesis Ch. 6).

Unroll-and-jam by F makes the inner loop F copies of one iteration of
the original: the operator count scales with F, the recurrence does
not.  The program-level route ignores that structure.  It rewrites the
whole program (:func:`~repro.transforms.unroll_and_jam.unroll_and_jam`),
re-locates the fused nest (:func:`find_jammed_nest`), then clones,
lowers to three-address form, SSA-renames and DFG-builds all F copies.
This module derives the fused loop's SSA block for F > 2 from two
analyses a sweep computes anyway:

* **copy 0** is the base analysis of the untransformed nest, verbatim:
  the same statements, the same ``t3_*`` temporaries, the same versions;
* **copy 1** comes from the *template*, jam(2) analyzed by the
  program-level route.  Every copy k >= 1 is copy 1 under three renames:
  privatized scalars ``v__u1`` become ``v__u<k>`` (SSA versions keep
  their ``@n``); copy 1's contiguous block of temporaries shifts by
  ``(k-1)·T1``; and the substitution adds ``x = i@0 + step``, copy 1's
  only reads of the outer IV, add ``k·step`` instead.

Copy 1 is not copy 0 when the body reads the outer IV (those adds and
their constants), which is why the template is a real jam(2) analysis.
The assembled block goes through the one DFG builder,
:func:`~repro.core.dfg.build_dfg`, which places every node and edge,
including the memory-order edges that run across copies.  The fused
loop's liveness is the union of the base's sets under the per-copy
renames, and its DS=1 legality check follows from the base's: at DS=1
no array dependence can classify as a hazard, and a base without
outer-carried scalars has privatized copies without them too.

The renames are sound only when lowering numbers temporaries uniformly
and the per-copy names are fresh.  :func:`replicable` rules out the
inputs where they are not (another nest shares the outer IV, or a
scalar is already named ``t3_<n>`` or ``<v>__u<k>``), and
:meth:`JamCopies.of` returns ``None`` when the body assigns an
induction variable, which every copy then writes.  Copy k renames copy 1 the same
way at every factor, so :class:`JamCopies` renames each copy once and
keeps it: jam(8) shares the statements of the copies jam(4) made, as
copy 0 shares the base's.  The caller takes the
program-level route instead, as it does when the base DS=1 check fails
(the reasons must come from the fused nest).
``tests/pipeline/test_jamdfg.py`` compares both routes field by field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

from repro.analysis.loops import LoopNest, find_loop_nests, trip_count
from repro.analysis.parallel import ParallelismReport, check_outer_parallel
from repro.analysis.ssa import SSABlock, base_name
from repro.analysis.usedef import LoopLiveness
from repro.core.legality import SquashCheck
from repro.core.squash import front_dfg
from repro.errors import LegalityError
from repro.ir.nodes import (
    Assign, BinOp, Block, Const, Expr, For, Program, Stmt, Var,
)
from repro.ir.visitors import rename_vars
from repro.transforms.unroll_and_jam import _check_structure, \
    jam_privatized_names

if TYPE_CHECKING:  # core <-> pipeline: BaseAnalysis only for types
    from repro.pipeline.analysis import BaseAnalysis

__all__ = ["JamCopies", "check_jam", "find_jammed_nest", "replicable",
           "replicate"]

#: Scalar names that three-address lowering (``t3_<n>``) and
#: unroll-and-jam (``<v>__u<k>``) make up.
_GENERATED = re.compile(r"t3_\d+|.+__u\d+")
_TEMP = re.compile(r"t3_(\d+)")


def check_jam(program: Program, nest: LoopNest, factor: int) -> int:
    """Run the jam legality checks and return the outer trip count.

    The checks, their order and their messages are those of
    :func:`~repro.transforms.unroll_and_jam.unroll_and_jam`.
    """
    if factor < 1:
        raise LegalityError("jam factor must be >= 1")
    _check_structure(nest)
    rep = check_outer_parallel(program, nest, factor)
    if not rep.ok:
        raise LegalityError("unroll-and-jam rejected", rep.reasons)
    trip = trip_count(nest.outer)
    if trip is None:
        raise LegalityError("unroll-and-jam requires a constant outer "
                            "trip count")
    return trip


def find_jammed_nest(jammed: Program, nest: LoopNest,
                     factor: int) -> LoopNest:
    """The fused nest of ``unroll_and_jam(program, nest, factor)``.

    It is the first nest whose outer loop kept ``nest``'s IV and grew its
    step by the factor clamped to the outer trip.  A trip-0 nest is left
    untransformed, so nothing matches and this raises.
    """
    step = nest.outer.step * min(factor, trip_count(nest.outer) or factor)
    for n in find_loop_nests(jammed):
        if n.outer.var == nest.outer.var and n.outer.step == step:
            return n
    raise LegalityError("jammed nest not found")


def replicable(program: Program, nest: LoopNest) -> bool:
    """Whether the renames can stand in for the program-level route.

    Not when another nest shares the outer IV (re-location could pick
    that nest), and not when a parameter or local already has a name
    lowering or jam would make up (lowering skips taken names, so the
    temporaries would stop being numbered uniformly).
    """
    if any(_GENERATED.fullmatch(name)
           for name in (*program.params, *program.locals)):
        return False
    return not any(n.outer is not nest.outer
                   and n.outer.var == nest.outer.var
                   for n in find_loop_nests(program))


def _jammed_trip(outer: For, factor: int) -> Optional[int]:
    """The trip count of the fused outer loop (remainder peeled off)."""
    lo, trip = outer.lo, trip_count(outer)
    if not isinstance(lo, Const) or trip is None:
        return None
    hi = int(lo.value) + trip // factor * factor * outer.step
    return trip_count(For(outer.var, Const(lo.value, lo.ty),
                          Const(hi, outer.hi.ty), Block(),
                          outer.step * factor))


def _jammed_liveness(live: LoopLiveness, privatized: set[str],
                     factor: int) -> LoopLiveness:
    """The fused inner loop's liveness: each of the base's sets united
    with its renames in copies 1 .. factor-1."""
    def jammed(names: set[str]) -> set[str]:
        return names.union(*({f"{n}__u{k}" if n in privatized else n
                              for n in names} for k in range(1, factor)))
    return LoopLiveness(**{f.name: jammed(getattr(live, f.name))
                           for f in fields(LoopLiveness)})


def _iv_add(e: Expr, iv0: str, step: int) -> Optional[BinOp]:
    """``e`` if it is a substitution add ``i@0 + step`` of copy 1."""
    if (isinstance(e, BinOp) and e.op == "add"
            and isinstance(e.lhs, Var) and e.lhs.name == iv0
            and isinstance(e.rhs, Const)
            and e.rhs.value == Const(step, e.rhs.ty).value):
        return e
    return None


#: One renamed copy: its statements, then its new entry, exit and types
#: items.
_Copy = tuple[list[Stmt], list, list, list]


@dataclass
class JamCopies:
    """Copy 1 of a jam(2) template, and the copies renamed from it.

    Copy k renames copy 1 the same way at every factor, so each copy is
    renamed once and every jam(F) of the nest shares its statements.
    """

    stmts: list[Stmt]
    #: ``v__u1`` -> ``v`` for every privatized scalar
    privatized: dict[str, str]
    #: copy 1's temporaries, ``t3_<n>`` -> n (one contiguous block)
    temps: dict[str, int]
    #: statement index -> (target, substitution add ``i@0 + step``)
    iv_adds: dict[int, tuple[str, BinOp]]
    #: copy 1's new entry, exit and types items, in template order
    tails: tuple[list, list, list]
    #: every version copy k renames: copy 1's targets and entry versions
    versions: list[str]
    #: copies 1, 2, ... renamed so far
    made: list[_Copy] = field(default_factory=list)

    @classmethod
    def of(cls, nest: LoopNest, base: "BaseAnalysis",
           template: "BaseAnalysis") -> Optional["JamCopies"]:
        """Copy 1 of ``template`` (jam(2)) against ``base``.

        ``None`` when either analysis has no SSA block, or when copy 1
        writes a scalar the copies share: the renames would give every
        copy the same versions of it.  Only an induction variable can
        be one, and the builder's validator rejects assigning those, but
        a program built by hand may.  The caller then takes the
        program-level route.
        """
        if base.ssa is None or template.ssa is None:
            return None
        stmts = template.ssa.stmts[len(base.ssa.stmts):]
        u1 = {f"{v}__u1": v for v in jam_privatized_names(nest)}
        iv0 = f"{nest.outer.var}@0"
        temps: dict[str, int] = {}
        iv_adds: dict[int, tuple[str, BinOp]] = {}
        for i, s in enumerate(stmts):
            if not isinstance(s, Assign):
                continue
            b = base_name(s.var)
            if b not in u1:
                m = _TEMP.fullmatch(b)
                if m is None:
                    return None
                temps[b] = int(m.group(1))
            add = _iv_add(s.expr, iv0, nest.outer.step)
            if add is not None:
                iv_adds[i] = (s.var, add)
        # copy 0 is the base, so the template's tables extend the base's
        entry, exit_, types = (list(theirs.items())[len(mine):]
                               for mine, theirs in (
                                   (base.ssa.entry, template.ssa.entry),
                                   (base.ssa.exit, template.ssa.exit),
                                   (base.ssa.types, template.ssa.types)))
        versions = [s.var for s in stmts if isinstance(s, Assign)] \
            + [v for _, v in entry]
        return cls(stmts, u1, temps, iv_adds, (entry, exit_, types),
                   versions)

    def copy(self, k: int, step: int) -> _Copy:
        """Copy k, renamed on first use."""
        while len(self.made) < k:
            self.made.append(self._rename(len(self.made) + 1, step))
        return self.made[k - 1]

    def _rename(self, k: int, step: int) -> _Copy:
        """Copy 1's statements and name-table items, renamed to copy k's."""
        shift = (k - 1) * len(self.temps)

        def rename(name: str) -> str:
            """Copy 1's name or ``name@n`` version -> copy k's."""
            b, at, n = name.partition("@")
            if b in self.privatized:
                b = f"{self.privatized[b]}__u{k}"
            elif b in self.temps:
                b = f"t3_{self.temps[b] + shift}"
            return b + at + n

        versions = {v: rename(v) for v in self.versions}
        stmts: list[Stmt] = []
        for i, s in enumerate(self.stmts):
            add = self.iv_adds.get(i)
            if add is None:
                stmts.append(rename_vars(s, versions))
            else:
                target, expr = add
                stmts.append(Assign(versions[target], BinOp(
                    "add", expr.lhs, Const(k * step, expr.rhs.ty))))
        entry, exit_, types = self.tails
        return (stmts, [(rename(n), versions[v]) for n, v in entry],
                [(rename(n), rename(v)) for n, v in exit_],
                [(rename(v), ty) for v, ty in types])


def replicate(program: Program, nest: LoopNest, base: "BaseAnalysis",
              copies: JamCopies, factor: int) -> "BaseAnalysis":
    """jam(``factor``) of ``nest``, from its base analysis and the
    :class:`JamCopies` of its jam(2).

    ``factor`` must already be clamped to the outer trip, ``base`` must
    have passed its DS=1 check, and the input must be
    :func:`replicable`.  Never mutates ``base``; ``copies`` only renames
    the copies it lacks.  Copy 0 shares the base's statements, copy k
    the statements ``copies`` renamed.
    """
    from repro.pipeline.analysis import BaseAnalysis

    assert base.ssa is not None   # JamCopies.of found one
    ssa = SSABlock(stmts=list(base.ssa.stmts), entry=dict(base.ssa.entry),
                   exit=dict(base.ssa.exit), types=dict(base.ssa.types))
    for k in range(1, factor):
        stmts, entry, exit_, types = copies.copy(k, nest.outer.step)
        ssa.stmts.extend(stmts)
        ssa.entry.update(entry)
        ssa.exit.update(exit_)
        ssa.types.update(types)
    privatized = jam_privatized_names(nest)
    live = _jammed_liveness(base.check1.require_liveness(), privatized,
                            factor)
    check = SquashCheck(parallelism=ParallelismReport(), liveness=live,
                        outer_trip=_jammed_trip(nest.outer, factor),
                        inner_trip=base.check1.inner_trip)
    dfg, carried, invariant = front_dfg(ssa, live, nest.inner, program)
    return BaseAnalysis(check1=check, ssa=ssa, dfg=dfg, carried=carried,
                        invariant=invariant)
