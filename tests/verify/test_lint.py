"""The .lang static linter: every diagnostic fires with a located
position on a crafted bad kernel, and the committed kernels stay clean
(the false-positive guard)."""

import pathlib

from repro.verify.lint import lint_file, lint_source

KERNELS = (pathlib.Path(__file__).resolve().parents[2]
           / "src" / "repro" / "lang" / "kernels")
EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def codes(findings):
    return [f.code for f in findings]


def only(findings, code):
    picked = [f for f in findings if f.code == code]
    assert picked, f"expected a {code} finding, got {codes(findings)}"
    return picked[0]


class TestParseErrors:
    def test_syntax_error_becomes_e000(self):
        findings = lint_source("kernel bad {", "bad.lang")
        assert len(findings) == 1
        f = findings[0]
        assert f.code == "E000" and f.severity == "error"
        assert f.line >= 1 and f.col >= 1

    def test_sema_error_becomes_e000(self):
        src = """\
kernel bad {
  i32 i;
  for (i = 0; i < 4; i++) {
    i = nosuchvar;
  }
}
"""
        findings = lint_source(src, "bad.lang")
        assert codes(findings) == ["E000"]
        assert findings[0].line == 4


class TestUnused:
    SRC = """\
kernel unused {
  param i32 scale;
  output i32 out[8];
  i32 dead;
  i32 x;
  i32 i;

  for (i = 0; i < 8; i++) {
    x = i + 1;
    out[i] = x;
  }
}
"""

    def test_w001_unused_param(self):
        f = only(lint_source(self.SRC, "u.lang"), "W001")
        assert "'scale'" in f.message
        assert f.line == 2

    def test_w002_unused_local(self):
        f = only(lint_source(self.SRC, "u.lang"), "W002")
        assert "'dead'" in f.message
        assert f.line == 4


class TestBounds:
    def test_w003_overrunning_subscript(self):
        src = """\
kernel oob {
  i32 src[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
  output i32 out[8];
  i32 i;

  for (i = 0; i < 8; i++) {
    out[i] = src[i + 4];
  }
}
"""
        f = only(lint_source(src, "oob.lang"), "W003")
        assert "[4..11]" in f.message and "dimension is 8" in f.message
        assert (f.line, f.col) == (7, 18)

    def test_w003_negative_subscript(self):
        src = """\
kernel oob {
  i32 src[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
  output i32 out[8];
  i32 i;

  for (i = 0; i < 8; i++) {
    out[i] = src[i - 1];
  }
}
"""
        f = only(lint_source(src, "oob.lang"), "W003")
        assert "[-1..6]" in f.message

    def test_in_range_subscripts_are_silent(self):
        src = """\
kernel ok {
  i32 src[16] = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
  };
  output i32 out[8];
  i32 a;
  i32 i;
  i32 j;

  for (i = 0; i < 8; i++) {
    a = src[2 * i + 1];
    #pragma kernel
    for (j = 0; j < 4; j++) {
      a = a + j;
    }
    out[i] = a;
  }
}
"""
        assert lint_source(src, "ok.lang") == []


class TestLiterals:
    def test_w004_suffix_overflow(self):
        src = """\
kernel lit {
  output i32 out[4];
  i32 i;

  for (i = 0; i < 4; i++) {
    out[i] = i + 300u8;
  }
}
"""
        f = only(lint_source(src, "lit.lang"), "W004")
        assert "300 overflows u8" in f.message
        assert "wraps to 44" in f.message

    def test_w005_narrowing_assignment(self):
        src = """\
kernel nar {
  output i32 out[4];
  u8 small;
  i32 i;

  for (i = 0; i < 4; i++) {
    small = 999;
    out[i] = small;
  }
}
"""
        f = only(lint_source(src, "nar.lang"), "W005")
        assert "999 does not fit 'small'" in f.message


class TestSquashDiagnosis:
    def test_w009_no_kernel_pragma(self):
        src = """\
kernel nokernel {
  output i32 out[4];
  i32 i;

  for (i = 0; i < 4; i++) {
    out[i] = i;
  }
}
"""
        f = only(lint_source(src, "nk.lang"), "W009")
        assert "#pragma kernel" in f.message

    def test_w010_unsquashable_nest(self):
        # inner trip count depends on the outer IV: squash-illegal
        src = """\
kernel badtrip {
  output i32 out[8];
  i32 x;
  i32 i;
  i32 j;

  x = 0;
  for (i = 0; i < 8; i++) {
    #pragma kernel
    for (j = 0; j < i; j++) {
      x = x + 1;
    }
    out[i] = x;
  }
}
"""
        f = only(lint_source(src, "b.lang"), "W010")
        assert "not squashable" in f.message

    def test_w011_outer_carried_scalar(self):
        # acc accumulates across *outer* iterations: rows not parallel
        src = """\
kernel carried {
  i32 src[16] = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
  };
  output i32 out[4];
  i32 acc;
  i32 i;
  i32 j;

  acc = 0;
  for (i = 0; i < 4; i++) {
    #pragma kernel
    for (j = 0; j < 4; j++) {
      acc = acc + src[4 * i + j];
    }
    out[i] = acc;
  }
}
"""
        f = only(lint_source(src, "c.lang"), "W011")
        assert "'acc'" in f.message
        assert "not parallel" in f.message


class TestRendering:
    def test_render_carries_file_line_col(self):
        findings = lint_source("kernel bad {", "x.lang")
        text = findings[0].render("x.lang")
        assert text.startswith("x.lang:")
        assert "error[E000]" in text


class TestCommittedKernelsClean:
    def test_every_committed_kernel_lints_clean(self):
        paths = sorted(KERNELS.glob("*.lang")) + sorted(
            EXAMPLES.glob("*.lang"))
        assert paths, "no committed .lang kernels found"
        for path in paths:
            findings = lint_file(path)
            assert findings == [], [f.render(str(path)) for f in findings]
