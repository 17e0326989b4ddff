"""Lang-vs-handbuilt parity: the committed ``.lang`` kernels compile to
the same programs as the IR builders, produce byte-identical Table 6.2
blocks, and give identical design points under every scheduler."""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.explore.space import DesignQuery
from repro import clear_caches
from repro.harness import format_table_6_2, run_table_6_2
from repro.lang import compile_file, programs_equivalent
from repro.lang.loader import lang_spec
from repro.nimble.compiler import compile_query
from repro.workloads import benchmark_by_name, simple

KERNEL_DIR = pathlib.Path(__file__).resolve().parents[2] \
    / "src" / "repro" / "lang" / "kernels"
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

#: committed source file -> the hand-built program it mirrors
PAIRS = {
    "simple-fg": lambda: simple.build_fg_nest(),
    "iir": lambda: _eval_build("iir"),
    "skipjack-mem": lambda: _eval_build("skipjack-mem"),
}


def _eval_build(name):
    bm = benchmark_by_name(name)
    return bm.build(**bm.eval_kwargs)


def _lang_path(stem):
    p = KERNEL_DIR / f"{stem}.lang"
    assert p.exists(), f"committed kernel {p} is missing"
    return p


class TestEquivalence:
    @pytest.mark.parametrize("stem", sorted(PAIRS), ids=sorted(PAIRS))
    def test_committed_source_matches_handbuilt(self, stem):
        prog, _text = compile_file(_lang_path(stem))
        assert programs_equivalent(prog, PAIRS[stem]())

    def test_same_functional_output(self):
        from repro.ir.interp import run_program
        prog, _ = compile_file(_lang_path("simple-fg"))
        hand = simple.build_fg_nest()
        a, b = run_program(prog), run_program(hand)
        for name in b.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])


class TestTableParity:
    @pytest.fixture(scope="class")
    def sweeps(self):
        clear_caches()
        hand = run_table_6_2(factors=(2,), jobs=2,
                             kernels=("iir", "skipjack-mem"))
        lang = run_table_6_2(
            factors=(2,), jobs=2,
            kernels=(lang_spec(_lang_path("iir")),
                     lang_spec(_lang_path("skipjack-mem"))))
        return hand, lang

    @pytest.mark.parametrize("name", ["iir", "skipjack-mem"])
    def test_blocks_byte_identical(self, sweeps, name):
        hand, lang = sweeps
        spec = lang_spec(_lang_path(name))
        # rekey under the handbuilt kernel name: the dict key is the
        # table's header column, everything else must match byte for byte
        assert format_table_6_2({name: lang[spec]}) \
            == format_table_6_2({name: hand[name]})

    @pytest.mark.parametrize("name", ["iir", "skipjack-mem"])
    def test_blocks_match_seed_golden(self, sweeps, name):
        _hand, lang = sweeps
        spec = lang_spec(_lang_path(name))
        block = format_table_6_2({name: lang[spec]}).split("\n", 1)[1]
        golden = (DATA / "golden_table_6_2_f2.txt").read_text()
        assert block.strip("\n") in golden


class TestSchedulerParity:
    @pytest.mark.parametrize("scheduler", ["modulo", "backtrack", "exact"])
    def test_design_points_identical(self, scheduler):
        spec = lang_spec(_lang_path("iir"))
        lang_pt = compile_query(DesignQuery(spec, "squash", ds=2,
                                            scheduler=scheduler))
        hand_pt = compile_query(DesignQuery("iir", "squash", ds=2,
                                            scheduler=scheduler))
        assert dataclasses.replace(lang_pt, kernel=hand_pt.kernel) == hand_pt
