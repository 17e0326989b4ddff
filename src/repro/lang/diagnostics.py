"""Source-position diagnostics for the ``repro.lang`` front-end.

Every error the lexer, parser, sema, or lowering raises is a
:class:`repro.errors.LangError` (a :class:`~repro.errors.ReproError`)
carrying ``file:line:col`` plus a caret snippet of the offending line —
never a bare ``SyntaxError``/``KeyError`` traceback.  Unknown-name
messages get a did-you-mean suggestion, consistent with the
target-modifier errors of :mod:`repro.nimble.target`.
"""

from __future__ import annotations

import difflib
from typing import Iterable, NamedTuple, Optional

from repro.errors import LangError

__all__ = ["Span", "SourceText", "lang_error", "suggest", "LangError"]


class Span(NamedTuple):
    """A half-open source region on one line (1-based line/col).

    A tuple: immutable, hashable and equal by value, and cheap enough
    for the scanner to build one per token."""

    line: int
    col: int
    length: int = 1

    def merge(self, other: "Span") -> "Span":
        """The span from the start of ``self`` to the end of ``other``
        (same-line only; cross-line merges keep ``self``)."""
        if other.line != self.line or other.col < self.col:
            return self
        return Span(self.line, self.col,
                    (other.col + other.length) - self.col)


class SourceText:
    """Source text plus filename; renders caret snippets for spans."""

    def __init__(self, text: str, filename: str = "<lang>"):
        self.text = text
        self.filename = filename
        self._lines = text.splitlines()

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self._lines):
            return self._lines[lineno - 1]
        return ""

    def snippet(self, span: Span) -> str:
        """Two-line caret rendering of ``span``::

              |   u7 x;
              |   ^^
        """
        src = self.line(span.line)
        caret_pad = " " * max(0, span.col - 1)
        width = max(1, min(span.length, max(1, len(src) - span.col + 1)))
        return f"  | {src}\n  | {caret_pad}{'^' * width}"


def suggest(name: str, known: Iterable[str]) -> str:
    """A ``; did you mean '...'?`` suffix (empty when nothing is close)."""
    close = difflib.get_close_matches(name, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def lang_error(source: SourceText, message: str,
               span: Optional[Span] = None) -> LangError:
    """Build a :class:`LangError` pinned to ``span`` in ``source``."""
    if span is None:
        return LangError(message, filename=source.filename)
    return LangError(message, filename=source.filename,
                     line=span.line, col=span.col,
                     snippet=source.snippet(span))
