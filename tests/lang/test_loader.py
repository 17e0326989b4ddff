"""Tests for ``lang:`` kernel specs: content digests, benchmark
resolution, and DesignQuery hash sensitivity to source changes."""

import os

import pytest

from repro.errors import ReproError
from repro.explore.space import DesignQuery
from repro.lang.loader import lang_kernel, lang_spec, source_digest
from repro.workloads import benchmark_by_name

SRC = """kernel tiny {
  output u8 out[4];
  u8 a;
  for (i = 0; i < 4; i++) {
    a = 0;
    #pragma kernel
    for (j = 0; j < 3; j++) { a = a + 1; }
    out[i] = a;
  }
}
"""


@pytest.fixture
def tiny(tmp_path):
    p = tmp_path / "tiny.lang"
    p.write_text(SRC)
    return p


class TestSpec:
    def test_canonical_spec_pins_digest(self, tiny):
        spec = lang_spec(str(tiny))
        assert spec == f"lang:{tiny}#{source_digest(SRC)}"

    def test_resolution_forms(self, tiny):
        for name in (lang_spec(str(tiny)), f"lang:{tiny}", str(tiny)):
            bm = lang_kernel(name)
            prog = bm.build(**bm.eval_kwargs)
            assert prog.name == "tiny"

    def test_benchmark_by_name_delegates(self, tiny):
        bm = benchmark_by_name(lang_spec(str(tiny)))
        assert "tiny.lang" in bm.description
        assert bm.name.startswith("lang:") and "#" in bm.name

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            lang_kernel(str(tmp_path / "nope.lang"))

    def test_digest_mismatch_refuses(self, tiny):
        spec = lang_spec(str(tiny))
        tiny.write_text(SRC.replace("j < 3", "j < 5"))
        with pytest.raises(ReproError, match="has changed"):
            lang_kernel(spec)

    def test_relative_path_canonicalized(self, tiny, monkeypatch):
        monkeypatch.chdir(tiny.parent)
        assert lang_spec("tiny.lang") == lang_spec(str(tiny))
        bm = lang_kernel("tiny.lang")
        assert os.path.isabs(bm.name[len("lang:"):].split("#")[0])


class TestQueryHash:
    def test_hash_tracks_source_content(self, tiny):
        q1 = DesignQuery(lang_spec(str(tiny)), "squash", ds=2)
        tiny.write_text(SRC.replace("j < 3", "j < 5"))
        q2 = DesignQuery(lang_spec(str(tiny)), "squash", ds=2)
        assert q1.query_hash != q2.query_hash

    def test_hash_stable_for_same_content(self, tiny):
        q1 = DesignQuery(lang_spec(str(tiny)), "squash", ds=2)
        q2 = DesignQuery(lang_spec(str(tiny)), "squash", ds=2)
        assert q1.query_hash == q2.query_hash
