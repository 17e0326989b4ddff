"""The ``.lang`` front end if-converts the ``#pragma kernel`` loops
(§4.2), and leaves every other conditional as lowered."""

import pathlib

import numpy as np
import pytest

from repro.analysis import find_kernel_nests, is_straightline
from repro.cli import main
from repro.core import unroll_and_squash
from repro.ir import If, walk_stmts
from repro.ir.interp import run_program
from repro.lang import compile_file, compile_source, programs_equivalent
from repro.lang.diagnostics import SourceText
from repro.lang.lower import lower
from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.verify.lint import lint_file

ROOT = pathlib.Path(__file__).resolve().parents[2]
CLAMP = ROOT / "examples" / "clamp.lang"
NO_IF_KERNELS = sorted((ROOT / "src" / "repro" / "lang" / "kernels")
                       .glob("*.lang")) + [ROOT / "examples" / "dotprod.lang"]


def lowered(text: str, filename: str = "<lang>"):
    """The program exactly as lowered, before any if-conversion."""
    source = SourceText(text, filename)
    unit = parse(text, filename)
    return lower(source, unit, analyze(source, unit))


class TestClampKernel:
    def test_kernel_loop_becomes_one_basic_block(self):
        prog, text = compile_file(CLAMP)
        nest = find_kernel_nests(prog)[0]
        assert is_straightline(nest.inner.body)
        before = find_kernel_nests(lowered(text))[0]
        assert any(isinstance(s, If) for s in walk_stmts(before.inner.body))

    @pytest.mark.parametrize("ds", [2, 4])
    def test_squash_matches_unconverted_source(self, ds):
        prog, text = compile_file(CLAMP)
        res = unroll_and_squash(prog, find_kernel_nests(prog)[0], ds)
        want = run_program(lowered(text)).arrays["out"]
        np.testing.assert_array_equal(run_program(res.program).arrays["out"],
                                      want)
        assert (want == 800).any() and (want < 800).any()

    def test_lints_clean(self):
        assert lint_file(CLAMP) == []


class TestProgramsWithoutIfUnchanged:
    @pytest.mark.parametrize("path", NO_IF_KERNELS, ids=lambda p: p.name)
    def test_committed_kernels(self, path):
        prog, text = compile_file(path)
        assert programs_equivalent(prog, lowered(text, str(path)))

    def test_if_outside_kernel_loop_kept(self):
        text = """kernel k {
  u8 x[4] = { 1, 2, 3, 4 };
  output u32 out[4];
  u32 acc;
  for (i = 0; i < 4; i++) {
    acc = 0;
    #pragma kernel
    for (j = 0; j < 2; j++) { acc = acc + x[j]; }
    if (acc > 2) { acc = 2; }
    out[i] = acc;
  }
}
"""
        prog = compile_source(text)
        assert any(isinstance(s, If) for s in walk_stmts(prog.body))
        assert programs_equivalent(prog, lowered(text))


#: a guarded load in the outer body, next to a kernel loop's ``if``:
#: converting the outer ``if`` too would load ``x[-1]`` at ``i == 0``
GUARDED_OUTER_IF = """kernel guarded {
  u8 x[8] = { 9, 200, 31, 77, 4, 150, 66, 12 };
  output u32 out[8];
  u32 acc;
  u32 p;
  for (i = 0; i < 8; i++) {
    if (i > 0) { p = x[i - 1]; } else { p = 0; }
    acc = p;
    #pragma kernel
    for (j = 0; j < 4; j++) {
      acc = acc + x[i];
      if (acc > 400) { acc = 400; }
    }
    out[i] = acc;
  }
}
"""


class TestOnlyKernelLoopsConverted:
    def test_outer_body_if_stays(self):
        prog = compile_source(GUARDED_OUTER_IF)
        assert is_straightline(find_kernel_nests(prog)[0].inner.body)
        assert [type(s) for s in walk_stmts(prog.body)].count(If) == 1
        want = run_program(lowered(GUARDED_OUTER_IF)).arrays["out"]
        np.testing.assert_array_equal(run_program(prog).arrays["out"], want)

    def test_compile_verifies(self, tmp_path, capsys):
        path = tmp_path / "guarded.lang"
        path.write_text(GUARDED_OUTER_IF)
        assert main(["compile", str(path), "--ds", "2"]) == 0
        assert "squash(2) verified" in capsys.readouterr().out
