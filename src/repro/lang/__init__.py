"""``repro.lang`` — a compact C-like loop-nest source language.

The front-end counterpart of the Nimble Compiler's C subset: kernels are
written as ``kernel name { declarations... statements... }`` units,
compiled through lexer → parser → sema → lowering into
:class:`~repro.ir.nodes.Program` IR, and from there through the regular
:mod:`repro.nimble` / :mod:`repro.explore` pipeline.  The IR printer
(:func:`repro.ir.printer.program_to_str`) emits this language, so
``compile_source(program_to_str(p))`` reconstructs an equivalent
program.

All diagnostics are :class:`~repro.errors.LangError` with
``file:line:col`` positions and caret snippets.
"""

from repro.errors import LangError
from repro.lang.diagnostics import SourceText, Span
from repro.lang.lower import compile_unit, programs_equivalent
from repro.lang.parser import parse

__all__ = [
    "LangError", "Span", "SourceText",
    "compile_source", "compile_file",
    "programs_equivalent",
]


def compile_source(text: str, filename: str = "<lang>"):
    """Compile source text to a validated :class:`~repro.ir.nodes.Program`."""
    source = SourceText(text, filename)
    unit = parse(text, filename)
    return compile_unit(source, unit)


def compile_file(path) -> "tuple":
    """Compile a ``.lang`` file; returns ``(program, source_text)``."""
    import os
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return compile_source(text, filename=os.fspath(path)), text
