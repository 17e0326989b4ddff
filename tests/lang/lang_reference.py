"""Frozen reference of the ``repro.lang`` scanner and parser: a test oracle.

:mod:`repro.lang.lexer` (one master regex, literal tables read as one
``init`` token) and :mod:`repro.lang.parser` (precedence climbing over one
operator table) replaced the character-at-a-time ``_Lexer`` and the
per-level binary-operator ladder below.  They are kept here as they were
so ``tests/lang/test_frontend_parity.py`` can hold the shipped front end
to them: equal ASTs, every span included, on every accepted source, and
the same :class:`~repro.errors.LangError` text on every rejected one.

Do not optimise or "fix" anything here: the oracle is what the parity
suite pins.  Its ``Token`` is the old frozen dataclass; spans, AST nodes
and diagnostics come from ``repro.lang`` so trees compare directly.
Known divergences, all on malformed input and fixed in the shipped
scanner: a ``0`` that ends the input is read here as a malformed hex
prefix, ``#pragma`` at the end of the input never returns, and a
non-ASCII digit (``str.isdigit``) starts a number, which ``int()`` may
then reject with a bare ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.ir.types import ALL_TYPES, ScalarType
from repro.lang import ast as A
from repro.lang.diagnostics import SourceText, Span, lang_error, suggest

__all__ = ["Token", "tokenize", "parse"]

#: Reserved words (cannot be used as identifiers in declarations).
KEYWORDS = frozenset({
    "kernel", "param", "rom", "output", "for", "if", "else",
    "true", "false",
})

#: Scalar type spellings (``i8`` ... ``f64``, ``bool``).
TYPE_NAMES = {t.name: t for t in ALL_TYPES}

#: Multi-character operators, longest first (order matters for matching).
_OPS2 = ("<<", ">>", "<=", ">=", "==", "!=", "++", "--", "+=", "-=")
_OPS1 = "{}()[];,=<>+-*/%&|^~?:"

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_HEX = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True)
class Token:
    """One lexeme.  ``kind`` is ``ident``/``int``/``float``/``string``/
    ``pragma``/``op``/``eof``; ``ty`` is the suffix type of a typed
    literal (``None`` for bare literals)."""

    kind: str
    value: Union[str, int, float]
    span: Span
    ty: Optional[ScalarType] = None

    @property
    def text(self) -> str:
        return str(self.value)


class _Lexer:
    def __init__(self, source: SourceText):
        self.src = source
        self.text = source.text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    # -- position bookkeeping -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        p = self.pos + offset
        return self.text[p] if p < len(self.text) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _span(self, start_line: int, start_col: int, length: int) -> Span:
        return Span(start_line, start_col, length)

    def _error(self, message: str, span: Optional[Span] = None):
        raise lang_error(self.src, message,
                         span or Span(self.line, self.col, 1))

    # -- scanners ------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            c = self._peek()
            if c in " \t\r\n":
                self._advance()
            elif c == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif c == "/" and self._peek(1) == "*":
                open_span = Span(self.line, self.col, 2)
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    self._error("unterminated block comment", open_span)
            else:
                return

    def _read_ident(self) -> str:
        start = self.pos
        while self._peek() in _IDENT_CONT:
            self._advance()
        return self.text[start:self.pos]

    def _lex_pragma(self) -> None:
        line, col = self.line, self.col
        self._advance()  # '#'
        if self._peek() not in _IDENT_START:
            self._error("expected 'pragma' after '#'",
                        Span(line, col, 1))
        word = self._read_ident()
        if word != "pragma":
            self._error(f"unknown directive '#{word}' (only '#pragma' "
                        f"is recognized)", Span(line, col, len(word) + 1))
        self._skip_trivia_same_line()
        if self._peek() not in _IDENT_START:
            self._error("expected an annotation name after '#pragma'",
                        Span(self.line, self.col, 1))
        nline, ncol = self.line, self.col
        name = self._read_ident()
        self.tokens.append(Token("pragma", name,
                                 Span(nline, ncol, len(name))))

    def _skip_trivia_same_line(self) -> None:
        while self._peek() in " \t":
            self._advance()

    def _lex_string(self) -> None:
        line, col = self.line, self.col
        self._advance()  # opening quote
        start = self.pos
        while True:
            c = self._peek()
            if c == "" or c == "\n":
                self._error("unterminated string literal",
                            Span(line, col, self.pos - start + 1))
            if c == '"':
                break
            self._advance()
        value = self.text[start:self.pos]
        self._advance()  # closing quote
        self.tokens.append(Token("string", value,
                                 Span(line, col, len(value) + 2)))

    def _lex_number(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            if self._peek() not in _HEX:
                self._error("malformed hex literal",
                            Span(line, col, self.pos - start + 1))
            while self._peek() in _HEX:
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1).isdigit():
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (
                    self._peek(1).isdigit()
                    or (self._peek(1) in "+-" and self._peek(2).isdigit())):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        digits = self.text[start:self.pos]
        ty = None
        if self._peek() in _IDENT_START:
            sline, scol = self.line, self.col
            suffix = self._read_ident()
            ty = TYPE_NAMES.get(suffix)
            if ty is None:
                self._error(
                    f"unknown literal type suffix {suffix!r}"
                    + suggest(suffix, TYPE_NAMES),
                    Span(sline, scol, len(suffix)))
            if is_float != ty.is_float:
                self._error(
                    f"literal {digits!r} does not match suffix type "
                    f"{suffix!r}",
                    Span(line, col, self.pos - start))
        span = Span(line, col, self.pos - start)
        if is_float:
            self.tokens.append(Token("float", float(digits), span, ty))
        else:
            base = 16 if digits[:2].lower() == "0x" else 10
            value = int(digits, base) if base == 16 else int(digits)
            self.tokens.append(Token("int", value, span, ty))

    def run(self) -> list[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                break
            c = self._peek()
            line, col = self.line, self.col
            if c == "#":
                self._lex_pragma()
            elif c == '"':
                self._lex_string()
            elif c.isdigit():
                self._lex_number()
            elif c in _IDENT_START:
                name = self._read_ident()
                self.tokens.append(Token("ident", name,
                                         Span(line, col, len(name))))
            else:
                two = self.text[self.pos:self.pos + 2]
                if two in _OPS2:
                    self._advance(2)
                    self.tokens.append(Token("op", two, Span(line, col, 2)))
                elif c in _OPS1:
                    self._advance()
                    self.tokens.append(Token("op", c, Span(line, col, 1)))
                else:
                    self._error(f"unexpected character {c!r}")
        self.tokens.append(Token("eof", "", Span(self.line, self.col, 1)))
        return self.tokens


def tokenize(source: SourceText) -> list[Token]:
    """Tokenize ``source``; raises :class:`~repro.errors.LangError` on
    malformed input."""
    return _Lexer(source).run()


#: Binary operators by precedence level (low → high), with IR spellings.
_BINARY_LEVELS = (
    (("|", "or"),),
    (("^", "xor"),),
    (("&", "and"),),
    (("==", "eq"), ("!=", "ne")),
    (("<", "lt"), ("<=", "le"), (">", "gt"), (">=", "ge")),
    (("<<", "shl"), (">>", "shr")),
    (("+", "add"), ("-", "sub")),
    (("*", "mul"), ("/", "div"), ("%", "mod")),
)

_INTRINSICS = frozenset({"min", "max"})

#: Words that can never name a variable/array.  ``param``/``rom``/``output``
#: are *contextual* qualifiers — they only act as keywords at a declaration
#: head when followed by a type name, so arrays named ``rom`` stay legal
#: (the random nest generator emits one).
_RESERVED = frozenset({"kernel", "for", "if", "else", "true", "false"})


class _Parser:
    def __init__(self, source: SourceText):
        self.src = source
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        p = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[p]

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at_op(self, *values: str) -> bool:
        tok = self._peek()
        return tok.kind == "op" and tok.value in values

    def _at_kw(self, *words: str) -> bool:
        tok = self._peek()
        return tok.kind == "ident" and tok.value in words

    def _error(self, message: str, span: Optional[Span] = None):
        raise lang_error(self.src, message, span or self._peek().span)

    def _describe(self, tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return f"{tok.text!r}"

    def _expect_op(self, value: str, context: str) -> Token:
        if not self._at_op(value):
            self._error(f"expected {value!r} {context}, "
                        f"found {self._describe(self._peek())}")
        return self._next()

    def _expect_ident(self, context: str) -> Token:
        tok = self._peek()
        if tok.kind != "ident":
            self._error(f"expected an identifier {context}, "
                        f"found {self._describe(tok)}")
        if tok.value in _RESERVED or tok.value in TYPE_NAMES:
            self._error(f"{tok.value!r} is a reserved word and cannot be "
                        f"used as a name {context}")
        return self._next()

    def _expect_type(self, context: str):
        tok = self._peek()
        if tok.kind != "ident" or tok.value not in TYPE_NAMES:
            name = tok.text if tok.kind == "ident" else self._describe(tok)
            hint = suggest(tok.text, TYPE_NAMES) if tok.kind == "ident" else ""
            self._error(f"expected a type name {context}, found {name!r}"
                        + hint, tok.span)
        self._next()
        return TYPE_NAMES[tok.value], tok

    # -- unit / declarations -------------------------------------------------

    def parse_unit(self) -> A.LKernel:
        kw = self._peek()
        if not self._at_kw("kernel"):
            self._error(f"expected 'kernel' at top level, "
                        f"found {self._describe(kw)}")
        self._next()
        name_tok = self._peek()
        if name_tok.kind == "string":
            name = str(name_tok.value)
            self._next()
        else:
            name = self._expect_ident("as the kernel name").text
        self._expect_op("{", "to open the kernel body")

        params: list[A.LParam] = []
        arrays: list[A.LArray] = []
        scalars: list[A.LScalar] = []
        while self._starts_decl():
            self._parse_decl(params, arrays, scalars)

        body: list[A.LStmt] = []
        while not self._at_op("}"):
            if self._peek().kind == "eof":
                self._error("unexpected end of input inside kernel body "
                            "(missing '}')")
            if self._starts_decl():
                self._error("declarations must precede statements in the "
                            "kernel body", self._peek().span)
            body.append(self.parse_stmt())
        close = self._next()  # '}'
        if self._peek().kind != "eof":
            self._error("unexpected trailing input after the kernel body")
        span = kw.span.merge(close.span)
        return A.LKernel(span, name, params, arrays, scalars, body)

    def _starts_decl(self) -> bool:
        """A declaration starts with a type name, or with qualifier words
        that lead (possibly via more qualifiers) to a type name."""
        tok = self._peek()
        if tok.kind != "ident":
            return False
        if tok.value in TYPE_NAMES:
            return True
        offset = 0
        while (self._peek(offset).kind == "ident"
               and self._peek(offset).value in ("param", "rom", "output")):
            offset += 1
        return (offset > 0 and self._peek(offset).kind == "ident"
                and self._peek(offset).value in TYPE_NAMES)

    def _parse_decl(self, params, arrays, scalars) -> None:
        start = self._peek()
        if self._at_kw("param"):
            self._next()
            ty, _ = self._expect_type("after 'param'")
            name = self._expect_ident("as the parameter name")
            self._expect_op(";", "after the parameter declaration")
            params.append(A.LParam(start.span.merge(name.span),
                                   name.text, ty))
            return

        rom = output = False
        while self._at_kw("rom", "output"):
            q = self._next()
            if q.value == "rom":
                if rom:
                    self._error("duplicate 'rom' qualifier", q.span)
                rom = True
            else:
                if output:
                    self._error("duplicate 'output' qualifier", q.span)
                output = True

        ty, ty_tok = self._expect_type("to start the declaration")
        name = self._expect_ident("as the declared name")

        if self._at_op("["):
            shape = []
            while self._at_op("["):
                self._next()
                dim = self._peek()
                if dim.kind != "int":
                    self._error("array dimensions must be integer literals",
                                dim.span)
                if int(dim.value) <= 0:
                    self._error("array dimensions must be positive",
                                dim.span)
                self._next()
                shape.append(int(dim.value))
                self._expect_op("]", "to close the array dimension")
            init = None
            init_span = None
            if self._at_op("="):
                self._next()
                init, init_span = self._parse_array_init()
            semi = self._expect_op(";", "after the array declaration")
            arrays.append(A.LArray(start.span.merge(semi.span), name.text,
                                   ty, shape, rom=rom, output=output,
                                   init=init, init_span=init_span))
            return

        if rom or output:
            qual = "rom" if rom else "output"
            self._error(f"'{qual}' applies to arrays; give {name.text!r} "
                        f"dimensions like '{qual} {ty} {name.text}[16];'",
                        start.span.merge(name.span))
        init_expr = None
        if self._at_op("="):
            self._next()
            init_expr = self.parse_expr()
        semi = self._expect_op(";", "after the declaration")
        scalars.append(A.LScalar(ty_tok.span.merge(semi.span), name.text,
                                 ty, init_expr))

    def _parse_array_init(self):
        open_tok = self._expect_op("{", "to start the array initializer")
        values: list = []
        while not self._at_op("}"):
            values.append(self._parse_init_number())
            if self._at_op(","):
                self._next()
            elif not self._at_op("}"):
                self._error("expected ',' or '}' in the array initializer")
        close = self._next()  # '}'
        if not values:
            self._error("array initializer must not be empty",
                        open_tok.span.merge(close.span))
        return values, open_tok.span.merge(close.span)

    def _parse_init_number(self):
        neg = False
        if self._at_op("-"):
            self._next()
            neg = True
        tok = self._peek()
        if tok.kind not in ("int", "float"):
            self._error("array initializers hold numeric literals only, "
                        f"found {self._describe(tok)}", tok.span)
        self._next()
        return -tok.value if neg else tok.value

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> A.LStmt:
        tok = self._peek()
        if tok.kind == "pragma":
            return self._parse_pragma_for()
        if self._at_kw("for"):
            return self._parse_for(kernel=False)
        if self._at_kw("if"):
            return self._parse_if()
        if tok.kind == "ident" and tok.value not in _RESERVED:
            return self._parse_assign_or_store()
        self._error(f"expected a statement, found {self._describe(tok)}")

    def _parse_pragma_for(self) -> A.LStmt:
        tok = self._next()
        if tok.value != "kernel":
            self._error(f"unknown pragma {tok.value!r}"
                        + suggest(str(tok.value), ["kernel"]), tok.span)
        if not self._at_kw("for"):
            self._error("'#pragma kernel' must be followed by a 'for' loop")
        return self._parse_for(kernel=True)

    def _parse_for(self, kernel: bool) -> A.LFor:
        kw = self._next()  # 'for'
        self._expect_op("(", "after 'for'")
        var = self._expect_ident("as the loop variable")
        self._expect_op("=", "in the loop initialization")
        lo = self.parse_expr()
        self._expect_op(";", "after the loop initialization")

        cmp_var = self._expect_ident("in the loop condition")
        if cmp_var.text != var.text:
            self._error(f"loop condition tests {cmp_var.text!r} but the "
                        f"loop variable is {var.text!r}", cmp_var.span)
        if self._at_op("<"):
            direction = 1
        elif self._at_op(">"):
            direction = -1
        else:
            self._error("expected '<' or '>' in the loop condition "
                        f"(found {self._describe(self._peek())})")
        self._next()
        hi = self.parse_expr()
        self._expect_op(";", "after the loop condition")

        step_var = self._expect_ident("in the loop step")
        if step_var.text != var.text:
            self._error(f"loop step updates {step_var.text!r} but the "
                        f"loop variable is {var.text!r}", step_var.span)
        if self._at_op("++"):
            self._next()
            step = 1
        elif self._at_op("--"):
            self._next()
            step = -1
        elif self._at_op("+=", "-="):
            op = self._next()
            neg = False
            if self._at_op("-"):
                self._next()
                neg = True
            amt = self._peek()
            if amt.kind != "int":
                self._error("the loop step amount must be an integer "
                            "literal", amt.span)
            self._next()
            step = int(amt.value)
            if neg != (op.value == "-="):
                step = -step
            if step == 0:
                self._error("loop step must be non-zero", amt.span)
        else:
            self._error("expected '++', '--', '+=' or '-=' in the loop "
                        f"step (found {self._describe(self._peek())})")
        if (step > 0) != (direction > 0):
            word = "ascending" if step > 0 else "descending"
            sym = "<" if step > 0 else ">"
            self._error(f"{word} loop (step {step}) must use {sym!r} in "
                        f"its condition", cmp_var.span)

        self._expect_op(")", "to close the loop header")
        body = self._parse_block("the loop body")
        return A.LFor(kw.span, var.text, lo, hi, step, body,
                      kernel=kernel, var_span=var.span)

    def _parse_if(self) -> A.LIf:
        kw = self._next()  # 'if'
        self._expect_op("(", "after 'if'")
        cond = self.parse_expr()
        self._expect_op(")", "to close the if condition")
        then = self._parse_block("the if body")
        orelse: list[A.LStmt] = []
        if self._at_kw("else"):
            self._next()
            if self._at_kw("if"):
                orelse = [self._parse_if()]
            else:
                orelse = self._parse_block("the else body")
        return A.LIf(kw.span, cond, then, orelse)

    def _parse_block(self, what: str) -> list[A.LStmt]:
        self._expect_op("{", f"to open {what}")
        stmts: list[A.LStmt] = []
        while not self._at_op("}"):
            if self._peek().kind == "eof":
                self._error(f"unexpected end of input inside {what} "
                            "(missing '}')")
            stmts.append(self.parse_stmt())
        self._next()  # '}'
        return stmts

    def _parse_assign_or_store(self) -> A.LStmt:
        name = self._next()
        if self._at_op("["):
            index = []
            while self._at_op("["):
                self._next()
                index.append(self.parse_expr())
                self._expect_op("]", "to close the subscript")
            self._expect_op("=", "in the array store")
            value = self.parse_expr()
            semi = self._expect_op(";", "after the statement")
            return A.LStore(name.span.merge(semi.span), name.text, index,
                            value, name_span=name.span)
        self._expect_op("=", "in the assignment (calls and bare "
                        "expressions are not statements)")
        expr = self.parse_expr()
        semi = self._expect_op(";", "after the statement")
        return A.LAssign(name.span.merge(semi.span), name.text, expr,
                         name_span=name.span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> A.LExpr:
        return self._parse_ternary()

    def _parse_ternary(self) -> A.LExpr:
        cond = self._parse_binary(0)
        if not self._at_op("?"):
            return cond
        self._next()
        iftrue = self.parse_expr()
        self._expect_op(":", "in the conditional expression")
        iffalse = self._parse_ternary()
        return A.LSelect(cond.span.merge(iffalse.span), cond, iftrue,
                         iffalse)

    def _parse_binary(self, level: int) -> A.LExpr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        ops = dict(_BINARY_LEVELS[level])
        lhs = self._parse_binary(level + 1)
        while self._at_op(*ops):
            op_tok = self._next()
            rhs = self._parse_binary(level + 1)
            node = A.LBin(lhs.span.merge(rhs.span), ops[str(op_tok.value)],
                          lhs, rhs, op_span=op_tok.span)
            lhs = node
        return lhs

    def _parse_unary(self) -> A.LExpr:
        tok = self._peek()
        if self._at_op("-"):
            self._next()
            lit = self._peek()
            if lit.kind in ("int", "float"):
                # fold into a negative literal (printer spells an explicit
                # neg node as "-(5)")
                self._next()
                node = A.LLit(tok.span.merge(lit.span), -lit.value,
                              suffix=lit.ty)
                return node
            operand = self._parse_unary()
            return A.LUn(tok.span.merge(operand.span), "neg", operand)
        if self._at_op("~"):
            self._next()
            operand = self._parse_unary()
            return A.LUn(tok.span.merge(operand.span), "not", operand)
        return self._parse_cast()

    def _parse_cast(self) -> A.LExpr:
        tok = self._peek()
        if (self._at_op("(") and self._peek(1).kind == "ident"
                and self._peek(1).value in TYPE_NAMES
                and self._peek(2).kind == "op"
                and self._peek(2).value == ")"):
            self._next()
            ty_tok = self._next()
            self._next()  # ')'
            operand = self._parse_unary()
            return A.LCast(tok.span.merge(operand.span),
                           TYPE_NAMES[ty_tok.value], operand)
        return self._parse_primary()

    def _parse_primary(self) -> A.LExpr:
        tok = self._peek()
        if tok.kind == "int" or tok.kind == "float":
            self._next()
            return A.LLit(tok.span, tok.value, suffix=tok.ty)
        if self._at_kw("true", "false"):
            self._next()
            return A.LLit(tok.span, tok.value == "true")
        if self._at_op("("):
            self._next()
            inner = self.parse_expr()
            close = self._expect_op(")", "to close the parenthesized "
                                    "expression")
            inner.span = tok.span.merge(close.span)
            return inner
        if tok.kind == "ident":
            if tok.value in _RESERVED:
                self._error(f"unexpected keyword {tok.value!r} in an "
                            "expression", tok.span)
            self._next()
            if self._at_op("("):
                if tok.value in _INTRINSICS:
                    return self._parse_call(tok)
                self._error(f"unknown function {tok.text!r}; the only "
                            "intrinsic calls are min(a, b) and max(a, b)",
                            tok.span)
            if self._at_op("["):
                index = []
                last = tok
                while self._at_op("["):
                    self._next()
                    index.append(self.parse_expr())
                    last = self._expect_op("]", "to close the subscript")
                return A.LIndex(tok.span.merge(last.span), tok.text, index)
            return A.LVar(tok.span, tok.text)
        self._error(f"expected an expression, found {self._describe(tok)}")

    def _parse_call(self, fn: Token) -> A.LExpr:
        self._next()  # '('
        args = [self.parse_expr()]
        while self._at_op(","):
            self._next()
            args.append(self.parse_expr())
        close = self._expect_op(")", f"to close the {fn.text}() call")
        if len(args) != 2:
            self._error(f"{fn.text}() takes exactly 2 arguments, "
                        f"got {len(args)}", fn.span.merge(close.span))
        return A.LCall(fn.span.merge(close.span), fn.text, args)


def parse(text: str, filename: str = "<lang>") -> A.LKernel:
    """Parse one ``kernel`` unit; raises :class:`~repro.errors.LangError`
    on malformed input."""
    return _Parser(SourceText(text, filename)).parse_unit()
