"""Golden-output guard: the staged pipeline must reproduce the seed
compiler's Table 6.2/6.3 text byte for byte under the default scheduler.

The acev fixtures under ``tests/data/`` were captured from the
pre-pipeline compiler (five hand-rolled ``compile_*`` bodies, no shared
analysis) at ``--factors 2``.  The vliw4 pair pins the register-file
backend over the full factor range (2, 4, 8, 16): II, area, registers,
the MaxLive row, and which designs the register-pressure walk rejects.
Any drift here means a change moved a design point, not just the code
shape.
"""

import pathlib

from repro import clear_caches
from repro.harness import (
    format_table_6_2, format_table_6_3, run_table_6_2, run_table_6_3,
)

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def test_table_6_2_byte_identical_to_seed():
    clear_caches()
    sweep = run_table_6_2(factors=(2,))
    golden = (DATA / "golden_table_6_2_f2.txt").read_text()
    assert format_table_6_2(sweep) == golden


def test_table_6_3_byte_identical_to_seed():
    sweep = run_table_6_2(factors=(2,))
    norm = run_table_6_3(sweep)
    golden = (DATA / "golden_table_6_3_f2.txt").read_text()
    assert format_table_6_3(norm) == golden


def test_vliw4_table_6_2_byte_identical_to_golden():
    sweep = run_table_6_2((2, 4, 8, 16), "vliw4")
    golden = (DATA / "golden_table_6_2_vliw4.txt").read_text()
    assert format_table_6_2(sweep) == golden


def test_vliw4_table_6_3_byte_identical_to_golden():
    sweep = run_table_6_2((2, 4, 8, 16), "vliw4")
    golden = (DATA / "golden_table_6_3_vliw4.txt").read_text()
    assert format_table_6_3(run_table_6_3(sweep)) == golden


def test_backtrack_sweep_is_separate_memo_entry():
    default = run_table_6_2(factors=(2,))
    bt = run_table_6_2(factors=(2,), scheduler="backtrack")
    assert bt is not default
    for kernel, vs in bt.items():
        # same baseline, pipelined II never worse under backtracking
        assert vs.original.ii == default[kernel].original.ii
        assert vs.pipelined.ii <= default[kernel].pipelined.ii
