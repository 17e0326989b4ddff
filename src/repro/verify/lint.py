"""A static linter for ``repro.lang`` sources — no scheduling needed.

``repro lint <file.lang>`` runs the front end (lexer → parser → sema)
and then purely static analyses over the typed AST and the lowered IR:

* **W001/W002** unused parameters and locals (never read anywhere);
* **W003** statically out-of-bounds affine subscripts — interval
  arithmetic over the sema-checked loop ranges proves an index can
  leave ``[0, dim)``;
* **W004** typed literals whose value overflows their suffix type
  (``300u8`` wraps to 44);
* **W005** narrowing initializers/assignments — an unsuffixed integer
  literal stored into a declared scalar it cannot represent;
* **W009/W010/W011** squashability pre-diagnosis: the DS-independent
  legality facts (:func:`repro.core.legality.prepare_squash`) of each
  ``#pragma kernel`` nest, surfaced as lint findings before any
  hardware compilation is attempted.

Parse and sema failures become a single **E000** error finding, so the
CLI reports uniformly instead of mixing tracebacks and diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import LangError
from repro.ir.types import ScalarType, wrap_int
from repro.lang import ast as A
from repro.lang.diagnostics import Span

__all__ = ["LintFinding", "lint_file", "lint_source"]

#: (lo, hi) inclusive integer interval, or None when statically unknown.
Interval = Optional[tuple[int, int]]


@dataclass(frozen=True)
class LintFinding:
    """One linter diagnostic, anchored to a source position."""

    code: str
    message: str
    line: int
    col: int
    severity: str = "warning"

    def render(self, filename: str) -> str:
        return (f"{filename}:{self.line}:{self.col}: "
                f"{self.severity}[{self.code}]: {self.message}")


# ---------------------------------------------------------------------------
# AST walking helpers
# ---------------------------------------------------------------------------

def _walk_exprs(stmts: list[A.LStmt]) -> Iterator[A.LExpr]:
    """Every expression in a statement list, loop bounds included."""
    for s in stmts:
        if isinstance(s, A.LAssign):
            yield s.expr
        elif isinstance(s, A.LStore):
            yield from s.index
            yield s.value
        elif isinstance(s, A.LFor):
            yield s.lo
            yield s.hi
            yield from _walk_exprs(s.body)
        elif isinstance(s, A.LIf):
            yield s.cond
            yield from _walk_exprs(s.then)
            yield from _walk_exprs(s.orelse)


def _subexprs(e: A.LExpr) -> Iterator[A.LExpr]:
    yield e
    if isinstance(e, A.LBin):
        yield from _subexprs(e.lhs)
        yield from _subexprs(e.rhs)
    elif isinstance(e, A.LUn):
        yield from _subexprs(e.operand)
    elif isinstance(e, A.LIndex):
        for i in e.index:
            yield from _subexprs(i)
    elif isinstance(e, A.LSelect):
        yield from _subexprs(e.cond)
        yield from _subexprs(e.iftrue)
        yield from _subexprs(e.iffalse)
    elif isinstance(e, A.LCast):
        yield from _subexprs(e.operand)
    elif isinstance(e, A.LCall):
        for a in e.args:
            yield from _subexprs(a)


def _names_read(unit: A.LKernel) -> set[str]:
    """Every scalar name read anywhere (loop vars count as read by
    their own loop — the induction is a structural use)."""
    read: set[str] = set()
    roots = list(_walk_exprs(unit.body))
    for s in unit.scalars:
        if s.init is not None:
            roots.append(s.init)
    for root in roots:
        for e in _subexprs(root):
            if isinstance(e, A.LVar):
                read.add(e.name)

    def loops(stmts: list[A.LStmt]) -> Iterator[A.LFor]:
        for s in stmts:
            if isinstance(s, A.LFor):
                yield s
                yield from loops(s.body)
            elif isinstance(s, A.LIf):
                yield from loops(s.then)
                yield from loops(s.orelse)

    for f in loops(unit.body):
        read.add(f.var)
    return read


# ---------------------------------------------------------------------------
# Interval arithmetic over loop ranges (W003)
# ---------------------------------------------------------------------------

def _interval(e: A.LExpr, env: dict[str, tuple[int, int]]) -> Interval:
    if isinstance(e, A.LLit):
        if isinstance(e.value, bool) or not isinstance(e.value, int):
            return None
        return (e.value, e.value)
    if isinstance(e, A.LVar):
        return env.get(e.name)
    if isinstance(e, A.LUn) and e.op == "neg":
        iv = _interval(e.operand, env)
        return None if iv is None else (-iv[1], -iv[0])
    if isinstance(e, A.LBin):
        lhs = _interval(e.lhs, env)
        rhs = _interval(e.rhs, env)
        if lhs is None or rhs is None:
            return None
        if e.op == "add":
            return (lhs[0] + rhs[0], lhs[1] + rhs[1])
        if e.op == "sub":
            return (lhs[0] - rhs[1], lhs[1] - rhs[0])
        if e.op == "mul":
            corners = [a * b for a in lhs for b in rhs]
            return (min(corners), max(corners))
        return None
    if isinstance(e, A.LCall) and len(e.args) == 2:
        lhs = _interval(e.args[0], env)
        rhs = _interval(e.args[1], env)
        if lhs is None or rhs is None:
            return None
        if e.fn == "min":
            return (min(lhs[0], rhs[0]), min(lhs[1], rhs[1]))
        if e.fn == "max":
            return (max(lhs[0], rhs[0]), max(lhs[1], rhs[1]))
        return None
    if isinstance(e, A.LCast):
        if e.target.is_float:
            return None
        iv = _interval(e.operand, env)
        # a cast that cannot wrap is the identity; one that can is opaque
        if iv is not None and e.target.min_value <= iv[0] \
                and iv[1] <= e.target.max_value:
            return iv
        return None
    return None


def _loop_range(s: A.LFor, env: dict[str, tuple[int, int]]) -> Interval:
    lo = _interval(s.lo, env)
    hi = _interval(s.hi, env)
    if lo is None or hi is None or s.step == 0:
        return None
    if s.step > 0:
        span = (lo[0], hi[1] - 1)      # i = lo; i < hi; i += step
    else:
        span = (hi[0] + 1, lo[1])      # i = lo; i > hi; i -= step
    return span if span[0] <= span[1] else None


# ---------------------------------------------------------------------------
# The linter
# ---------------------------------------------------------------------------

class _Linter:
    def __init__(self, unit: A.LKernel, arrays: dict[str, A.LArray]):
        self.unit = unit
        self.arrays = arrays
        self.out: list[LintFinding] = []

    def warn(self, code: str, message: str, span: Span) -> None:
        self.out.append(LintFinding(code, message, span.line, span.col))

    # -- W001/W002: unused declarations ---------------------------------

    def check_unused(self) -> None:
        read = _names_read(self.unit)
        for p in self.unit.params:
            if p.name not in read:
                self.warn("W001", f"parameter {p.name!r} is never read",
                          p.span)
        for s in self.unit.scalars:
            if s.name not in read:
                self.warn("W002", f"local {s.name!r} is never read",
                          s.span)

    # -- W003: out-of-bounds subscripts ---------------------------------

    def check_bounds(self) -> None:
        self._bounds_walk(self.unit.body, {})

    def _bounds_walk(self, stmts: list[A.LStmt],
                     env: dict[str, tuple[int, int]]) -> None:
        for s in stmts:
            if isinstance(s, A.LAssign):
                self._bounds_expr(s.expr, env)
            elif isinstance(s, A.LStore):
                self._subscript(s.name, s.index, env,
                                s.name_span or s.span)
                for i in s.index:
                    self._bounds_expr(i, env)
                self._bounds_expr(s.value, env)
            elif isinstance(s, A.LFor):
                self._bounds_expr(s.lo, env)
                self._bounds_expr(s.hi, env)
                span = _loop_range(s, env)
                inner = dict(env)
                if span is not None:
                    inner[s.var] = span
                else:
                    inner.pop(s.var, None)
                self._bounds_walk(s.body, inner)
            elif isinstance(s, A.LIf):
                self._bounds_expr(s.cond, env)
                self._bounds_walk(s.then, env)
                self._bounds_walk(s.orelse, env)

    def _bounds_expr(self, e: A.LExpr,
                     env: dict[str, tuple[int, int]]) -> None:
        for sub in _subexprs(e):
            if isinstance(sub, A.LIndex):
                self._subscript(sub.name, sub.index, env, sub.span)

    def _subscript(self, name: str, index: list[A.LExpr],
                   env: dict[str, tuple[int, int]], span: Span) -> None:
        decl = self.arrays.get(name)
        if decl is None or len(index) != len(decl.shape):
            return  # sema already rejected or reported this
        for axis, (idx, dim) in enumerate(zip(index, decl.shape)):
            iv = _interval(idx, env)
            if iv is None:
                continue
            if iv[0] < 0 or iv[1] >= dim:
                self.warn(
                    "W003",
                    f"subscript {axis + 1} of {name!r} spans "
                    f"[{iv[0]}..{iv[1]}] but the dimension is {dim}",
                    idx.span)

    # -- W004/W005: literal overflow and narrowing ----------------------

    def check_literals(self) -> None:
        roots = list(_walk_exprs(self.unit.body))
        for s in self.unit.scalars:
            if s.init is not None:
                roots.append(s.init)
        for root in roots:
            for e in _subexprs(root):
                if isinstance(e, A.LLit) and e.suffix is not None \
                        and not e.suffix.is_float \
                        and isinstance(e.value, int) \
                        and not isinstance(e.value, bool):
                    wrapped = wrap_int(e.value, e.suffix)
                    if wrapped != e.value:
                        self.warn(
                            "W004",
                            f"literal {e.value} overflows {e.suffix} "
                            f"(wraps to {wrapped})", e.span)

        declared: dict[str, ScalarType] = {p.name: p.ty
                                           for p in self.unit.params}
        for s in self.unit.scalars:
            declared[s.name] = s.ty
            self._narrowing(s.ty, s.init, s.name, s.span)
        for st in self._assigns(self.unit.body):
            ty = declared.get(st.name)
            if ty is not None:
                self._narrowing(ty, st.expr, st.name,
                                st.name_span or st.span)

    def _assigns(self, stmts: list[A.LStmt]) -> Iterator[A.LAssign]:
        for s in stmts:
            if isinstance(s, A.LAssign):
                yield s
            elif isinstance(s, A.LFor):
                yield from self._assigns(s.body)
            elif isinstance(s, A.LIf):
                yield from self._assigns(s.then)
                yield from self._assigns(s.orelse)

    def _narrowing(self, ty: ScalarType, e: Optional[A.LExpr],
                   name: str, span: Span) -> None:
        if ty.is_float or not isinstance(e, A.LLit) \
                or e.suffix is not None or not isinstance(e.value, int) \
                or isinstance(e.value, bool):
            return
        if not (ty.min_value <= e.value <= ty.max_value):
            self.warn(
                "W005",
                f"literal {e.value} does not fit {name!r} "
                f"({ty}: [{ty.min_value}..{ty.max_value}]) and will wrap "
                f"to {wrap_int(e.value, ty)}", e.span)

    # -- W009/W010/W011: squashability pre-diagnosis --------------------

    def check_squash(self, source_text: str, filename: str) -> None:
        from repro.analysis.loops import find_kernel_nests
        from repro.core.legality import prepare_squash
        from repro.lang.diagnostics import SourceText
        from repro.lang.lower import compile_unit

        def kernel_loops(stmts: list[A.LStmt]) -> Iterator[A.LFor]:
            for s in stmts:
                if isinstance(s, A.LFor):
                    if s.kernel:
                        yield s
                    yield from kernel_loops(s.body)
                elif isinstance(s, A.LIf):
                    yield from kernel_loops(s.then)
                    yield from kernel_loops(s.orelse)

        anchors = list(kernel_loops(self.unit.body))
        try:
            program = compile_unit(SourceText(source_text, filename),
                                   self.unit)
        except LangError:
            return  # lowering diagnostics surface through compile paths
        nests = find_kernel_nests(program)
        if not nests:
            has_loop = any(isinstance(s, A.LFor) for s in self.unit.body)
            if has_loop:
                first = next(s for s in self.unit.body
                             if isinstance(s, A.LFor))
                self.warn("W009",
                          "no '#pragma kernel' loop nest — squashability "
                          "pre-diagnosis skipped",
                          first.var_span or first.span)
            return
        for i, nest in enumerate(nests):
            anchor = anchors[i] if i < len(anchors) else self.unit
            span = getattr(anchor, "var_span", None) or anchor.span
            prep = prepare_squash(program, nest)
            for reason in prep.base_failures:
                self.warn("W010", f"kernel nest is not squashable: "
                          f"{reason}", span)
            if not prep.base_failures and prep.scalar_conflicts:
                self.warn(
                    "W011",
                    "outer-carried scalar dependences on "
                    f"{sorted(prep.scalar_conflicts)}: outer iterations "
                    "are not parallel, so unroll-and-squash would be "
                    "rejected", span)


def lint_source(text: str, filename: str = "<lang>") -> list[LintFinding]:
    """Lint one source text; returns findings sorted by position.

    Parse/sema failures yield a single error-severity ``E000`` finding
    instead of raising, so callers always get a finding list.
    """
    from repro.lang.diagnostics import SourceText
    from repro.lang.parser import parse
    from repro.lang.sema import analyze

    try:
        unit = parse(text, filename)
        analyze(SourceText(text, filename), unit)
    except LangError as exc:
        return [LintFinding("E000", exc.bare_message, exc.line, exc.col,
                            severity="error")]

    arrays = {a.name: a for a in unit.arrays}
    linter = _Linter(unit, arrays)
    linter.check_unused()
    linter.check_bounds()
    linter.check_literals()
    linter.check_squash(text, filename)
    return sorted(linter.out, key=lambda f: (f.line, f.col, f.code))


def lint_file(path: "str | os.PathLike[str]") -> list[LintFinding]:
    """Lint one ``.lang`` file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return lint_source(text, filename=os.fspath(path))
