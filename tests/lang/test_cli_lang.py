"""CLI coverage for the source-language front end: ``repro compile`` and
the ``--source`` axis of ``repro explore`` / ``repro tables``."""

import pathlib

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
KERNEL_DIR = ROOT / "src" / "repro" / "lang" / "kernels"
EXAMPLES = ROOT / "examples"

GOOD = """kernel cli_demo {
  param i32 k;
  output u8 out[4];
  u8 a;
  for (i = 0; i < 4; i++) {
    a = 1;
    #pragma kernel
    for (j = 0; j < 3; j++) { a = (u8) (a + k); }
    out[i] = a;
  }
}
"""


#: a store inside the kernel loop's ``if``: if-conversion cannot remove it
STORE_IN_IF = """kernel store_if {
  u8 x[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
  output u32 out[4];
  u32 acc;
  for (i = 0; i < 4; i++) {
    acc = 0;
    #pragma kernel
    for (j = 0; j < 4; j++) {
      acc = acc + x[i + j];
      if (acc > 10) { out[i] = acc; }
    }
    out[i] = acc;
  }
}
"""


#: a guarded load in the kernel loop: if-conversion evaluates it at
#: i = j = 0 too, where it reads ``x[-1]``
GUARDED_LOAD = """kernel guarded {
  u8 x[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
  output u32 out[4];
  u32 acc;
  u32 t;
  for (i = 0; i < 4; i++) {
    acc = 0;
    #pragma kernel
    for (j = 0; j < 4; j++) {
      t = 0;
      if (i + j > 0) { t = x[i + j - 1]; }
      acc = acc + t;
    }
    out[i] = acc;
  }
}
"""


@pytest.fixture
def demo(tmp_path):
    p = tmp_path / "demo.lang"
    p.write_text(GOOD)
    return p


class TestCompileCommand:
    def test_compile_committed_kernel(self, capsys):
        path = str(KERNEL_DIR / "simple-fg.lang")
        assert main(["compile", path, "--ds", "2"]) == 0
        out = capsys.readouterr().out
        assert "kernel 'simple-fg'" in out
        assert "squash(2) verified" in out
        assert "II=" in out

    def test_unbound_params_skip_functional_check(self, demo, capsys):
        assert main(["compile", str(demo)]) == 0
        out = capsys.readouterr().out
        assert "functional check skipped (unbound params: k)" in out

    def test_bound_params_verify(self, demo, capsys):
        assert main(["compile", str(demo), "--param", "k=3"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_show_ir_round_trips(self, demo, capsys):
        assert main(["compile", str(demo), "--show-ir",
                     "--param", "k=1"]) == 0
        assert "kernel cli_demo {" in capsys.readouterr().out

    def test_bad_param_exits_1(self, demo, capsys):
        assert main(["compile", str(demo), "--param", "zz=1"]) == 1
        assert "declared params: k" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path / "nope.lang")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_exits_1_with_position(self, tmp_path, capsys):
        p = tmp_path / "bad.lang"
        p.write_text("kernel k {\n  output u8 o[1]\n}\n")
        assert main(["compile", str(p)]) == 1
        err = capsys.readouterr().err
        assert "bad.lang:" in err and "^" in err

    def test_if_in_kernel_loop_is_converted_and_verified(self, capsys):
        assert main(["compile", str(EXAMPLES / "clamp.lang"),
                     "--ds", "2"]) == 0
        assert "squash(2) verified" in capsys.readouterr().out

    def test_unconvertible_branch_exits_1_with_reason(self, tmp_path,
                                                      capsys):
        p = tmp_path / "store_if.lang"
        p.write_text(STORE_IN_IF)
        assert main(["compile", str(p), "--ds", "2"]) == 1
        err = capsys.readouterr().err
        assert "single basic block" in err
        assert len(err.strip().splitlines()) == 1

    def test_guarded_load_exits_1_with_one_line(self, tmp_path, capsys):
        from repro.verify.lint import lint_file

        p = tmp_path / "guarded.lang"
        p.write_text(GUARDED_LOAD)
        assert main(["compile", str(p), "--ds", "2"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("guarded/squash(2): ")
        assert "negative subscript -1 in dim 0 of 'x'" in err
        assert "W003" in err
        assert "W003" in {f.code for f in lint_file(p)}

    def test_target_spec_with_modifiers(self, capsys):
        assert main(["compile", str(EXAMPLES / "dotprod.lang"),
                     "--target", "vliw4::regs=128"]) == 0
        assert "squash(4) :" in capsys.readouterr().out

    def test_no_kernel_pragma_exits_1(self, tmp_path, capsys):
        p = tmp_path / "flat.lang"
        p.write_text("kernel k { output u8 o[2];\n"
                     "  for (i = 0; i < 2; i++) { o[i] = 1; } }\n")
        assert main(["compile", str(p)]) == 1
        assert "#pragma kernel" in capsys.readouterr().err


class TestSourceAxis:
    def test_explore_with_source(self, tmp_path, capsys):
        path = str(KERNEL_DIR / "simple-fg.lang")
        assert main(["explore", "--source", path, "--factors", "2",
                     "--variants", "original", "squash",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "explored 2 designs" in out

    def test_explore_if_converted_source_skips_nothing(self, tmp_path,
                                                       capsys):
        assert main(["explore", "--source", str(EXAMPLES / "clamp.lang"),
                     "--factors", "2", "4", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "6 evaluated, 0 skipped" in out

    def test_explore_without_kernel_or_source_exits_2(self, capsys):
        assert main(["explore", "--factors", "2"]) == 2
        assert "--kernel or --source" in capsys.readouterr().err

    def test_tables_with_source(self, capsys):
        path = str(KERNEL_DIR / "simple-fg.lang")
        assert main(["tables", "6.2", "--factors", "2",
                     "--source", path, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "simple-fg" in out or "lang:" in out
