"""Tokenizer for the ``repro.lang`` loop-nest language.

Produces a flat token stream with 1-based line/column spans for every
token, so the parser and semantic pass can pin diagnostics to source
positions.  Token kinds:

* ``ident`` — names, keywords and type names (the parser tells them
  apart); ``value`` is the spelling;
* ``int`` / ``float`` — hex, decimal and float literals; ``value`` is the
  number, ``ty`` the type of a typed suffix (``255u8``, ``1.5f32``) or
  ``None``;
* ``string`` — a quoted kernel name, ``value`` without the quotes;
* ``pragma`` — ``#pragma NAME``, ``value`` the annotation name;
* ``op`` — punctuation and operators, ``value`` the symbol;
* ``init`` — a literal initializer list ``{ lit, lit, ... }`` right after
  an ``=``: ``value`` is the tuple of element values (a ``-`` sign folded
  in, suffixes checked and dropped), ``span`` the ``{``...``}`` span the
  parser reports.  Literal lookup tables (the ciphers' S-boxes) are most
  of a kernel's lexemes, so reading one as one token is most of the
  scanner's speed.  Braces holding anything else lex token by token, so
  the parser raises its usual diagnostics;
* ``eof`` — end of input.

One compiled master regex matches at the cursor, with the whitespace and
comments before each token folded into the match; line and column come
from newline counts.  Every alternative after the trivia either matches
or falls through to a one-character catch-all, so the trivia is never
backtracked and each pattern runs in linear time.  Malformed input
(unterminated string or block comment, unknown suffix, stray characters)
raises :class:`~repro.errors.LangError` with a caret snippet.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple, NoReturn, Optional, Union, cast

from repro.ir.types import ALL_TYPES, ScalarType
from repro.lang.diagnostics import SourceText, Span, lang_error, suggest

__all__ = ["Token", "tokenize", "TYPE_NAMES"]

#: Scalar type spellings (``i8`` ... ``f64``, ``bool``).
TYPE_NAMES = {t.name: t for t in ALL_TYPES}

#: Whitespace and comments (a block comment runs to the first ``*/``).
_LINE_COMMENT = r"//[^\n]*"
_BLOCK_COMMENT = r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_DIGITS = r"0[xX][0-9a-fA-F]*|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"

_TOKEN = re.compile(rf"""
    (?:[ \t\r\n]+|{_LINE_COMMENT}|{_BLOCK_COMMENT})*
    (?:
        (?P<ident>{_IDENT})
      | (?P<num>(?:{_DIGITS})(?:{_IDENT})?)
      | (?P<open_comment>/\*)
      | (?P<op><<|>>|<=|>=|==|!=|\+\+|--|\+=|-=|[{{}}()\[\];,=<>+\-*/%&|^~?:])
      | (?P<string>"[^"\n]*"?)
      | (?P<pragma>\#)
      | (?P<eof>\Z)
      | (?P<bad>[\s\S])
    )""", re.VERBOSE)
_NUMBER = re.compile(rf"({_DIGITS})({_IDENT})?")
_PRAGMA = re.compile(rf"({_IDENT})?[ \t]*({_IDENT})?")

#: A literal initializer list, matched without backtracking: trivia is
#: unambiguous (whitespace runs between maximal comments), and each
#: element is a maximal literal, so a failed match costs one pass.
_TRIVIA = (rf"[ \t\r\n]*(?:(?:{_LINE_COMMENT}(?![^\n])|{_BLOCK_COMMENT})"
           r"[ \t\r\n]*)*")
_ELEMENT = (rf"(?:-{_TRIVIA})?"
            r"(?:0[xX][0-9a-fA-F]+(?![0-9a-fA-F])(?:[g-zG-Z_]\w*)?"
            r"|(?!0[xX])[0-9]+(?![0-9])(?:\.[0-9]+(?![0-9]))?"
            r"(?:[eE][+-]?[0-9]+(?![0-9]))?"
            r"(?:(?![eE][+-]?[0-9])[A-Za-z_]\w*)?)(?!\w)")
_INIT = re.compile(rf"\{{{_TRIVIA}{_ELEMENT}{_TRIVIA}"
                   rf"(?:,{_TRIVIA}{_ELEMENT}{_TRIVIA})*(?:,{_TRIVIA})?\}}",
                   re.ASCII)
#: ... and its elements, once the comments are blanked out.
_COMMENTS = re.compile(rf"{_LINE_COMMENT}|{_BLOCK_COMMENT}")
_INIT_ELEMENT = re.compile(rf"(-?)[ \t\r\n]*({_DIGITS})({_IDENT})?")


class Token(NamedTuple):
    """One lexeme (see the module docstring for the kinds); ``ty`` is the
    suffix type of a typed literal (``None`` for bare literals)."""

    kind: str
    value: Union[str, int, float, tuple]
    span: Span
    ty: Optional[ScalarType] = None

    @property
    def text(self) -> str:
        return str(self.value)


#: C-level constructors for the scanner loop (calling ``Token`` or
#: ``Span`` runs a Python-level ``__new__``): ``_token((kind, value,
#: span, ty))``, ``_span((line, col, length))``.
_token = cast(Callable[[tuple], Token], partial(tuple.__new__, Token))
_span = cast(Callable[[tuple], Span], partial(tuple.__new__, Span))


def _number(digits: str, suffix: Optional[str]
            ) -> tuple[Union[int, float], Optional[ScalarType], str]:
    """``(value, suffix type, problem)`` of one literal; ``problem`` is
    ``"suffix"`` for an unknown suffix, ``"mismatch"`` for float digits
    with an integer suffix or the reverse, else empty."""
    ty: Optional[ScalarType] = None
    hex_digits = digits[:2] in ("0x", "0X")
    is_float = not hex_digits and (
        "." in digits or "e" in digits or "E" in digits)
    if suffix:
        ty = TYPE_NAMES.get(suffix)
        if ty is None:
            return 0, None, "suffix"
        if is_float != ty.is_float:
            return 0, None, "mismatch"
    if is_float:
        return float(digits), ty, ""
    return int(digits, 16 if hex_digits else 10), ty, ""


def _init_values(body: str) -> Optional[tuple]:
    """Element values of a matched initializer list, or ``None`` when a
    suffix is wrong (the token-by-token path reports it)."""
    if "/" in body:
        body = _COMMENTS.sub(" ", body)
    values = []
    for sign, digits, suffix in _INIT_ELEMENT.findall(body):
        if not suffix and digits.isdigit():
            values.append(-int(digits) if sign else int(digits))
            continue
        value, _, problem = _number(digits, suffix)
        if problem:
            return None
        values.append(-value if sign else value)
    return tuple(values)


def tokenize(source: SourceText) -> list[Token]:
    """Tokenize ``source``; raises :class:`~repro.errors.LangError` on
    malformed input."""
    text = source.text
    match = _TOKEN.match
    tokens: list[Token] = []
    append = tokens.append
    pos = counted = 0  # newlines are counted up to ``counted``
    line = 1
    line_start = 0     # offset of the first character of ``line``
    after_eq = False   # the last token was a plain '='

    def error(message: str, span: Span) -> NoReturn:
        raise lang_error(source, message, span)

    while True:
        m = match(text, pos)
        # the catch-all alternatives match everywhere
        assert m is not None and m.lastgroup is not None
        kind = m.lastgroup
        start = m.start(kind)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        col = start - line_start + 1
        pos = m.end()

        if kind == "ident":
            append(_token(("ident", m[kind], _span((line, col, pos - start)),
                           None)))
        elif kind == "op":
            sym = m[kind]
            if sym == "{" and after_eq:
                init = _INIT.match(text, start)
                values = _init_values(init[0]) if init else None
                if init and values:
                    # a span across lines keeps its first line, as
                    # Span.merge does
                    pos = init.end()
                    span = Span(line, col,
                                1 if "\n" in init[0] else pos - start)
                    append(Token("init", values, span))
                    after_eq = False
                    continue
            append(_token(("op", sym, _span((line, col, pos - start)),
                           None)))
            after_eq = sym == "="
            continue
        elif kind == "num":
            num = _NUMBER.match(m[kind])
            assert num is not None
            digits, suffix = num[1], num[2]
            if digits in ("0x", "0X"):
                error("malformed hex literal", Span(line, col, 3))
            value, ty, problem = _number(digits, suffix)
            if problem == "suffix":
                error(f"unknown literal type suffix {suffix!r}"
                      + suggest(suffix, TYPE_NAMES),
                      Span(line, col + len(digits), len(suffix)))
            if problem == "mismatch":
                error(f"literal {digits!r} does not match suffix type "
                      f"{suffix!r}", Span(line, col, pos - start))
            append(_token(("float" if isinstance(value, float) else "int",
                           value, _span((line, col, pos - start)), ty)))
        elif kind == "string":
            lexeme = m[kind]
            if len(lexeme) < 2 or lexeme[-1] != '"':
                error("unterminated string literal",
                      Span(line, col, len(lexeme)))
            append(Token("string", lexeme[1:-1],
                         Span(line, col, len(lexeme))))
        elif kind == "pragma":
            p = _PRAGMA.match(text, pos)
            assert p is not None      # every part is optional
            word, name = p[1], p[2]
            if word is None:
                error("expected 'pragma' after '#'", Span(line, col, 1))
            if word != "pragma":
                error(f"unknown directive '#{word}' (only '#pragma' "
                      f"is recognized)", Span(line, col, len(word) + 1))
            if name is None:
                error("expected an annotation name after '#pragma'",
                      Span(line, p.end() - line_start + 1, 1))
            append(Token("pragma", name,
                         Span(line, p.start(2) - line_start + 1, len(name))))
            pos = p.end()
        elif kind == "open_comment":
            error("unterminated block comment", Span(line, col, 2))
        elif kind == "eof":
            append(Token("eof", "", Span(line, col, 1)))
            return tokens
        else:
            error(f"unexpected character {m[kind]!r}", Span(line, col, 1))
        after_eq = False
