"""The thesis's shape claims, asserted on the reproduced artifacts.

Each test regenerates one table, figure or ablation and checks the
*shape* the thesis states: who wins, what grows, what saturates.  The
absolute numbers are the cost model's; the golden tables pin those.
``python -m repro tables <id>`` prints the artifacts themselves.
"""

import pytest

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.harness import figure_series, run_fig_2_4, run_table_6_2, \
    run_table_6_3
from repro.hw import normalize
from repro.ir import For, walk_stmts
from repro.ir.interp import run_program
from repro.nimble import compile_jam, compile_jam_squash, compile_original, \
    compile_squash
from repro.workloads.simple import build_fg_nest, fg_reference

FACTORS = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def sweep():
    return run_table_6_2(FACTORS)


@pytest.fixture(scope="module")
def norm(sweep):
    return run_table_6_3(sweep)


def _figure(fig, norm):
    _, labels, series = figure_series(fig, norm)
    return {lab: k for k, lab in enumerate(labels)}, series


# ---------------------------------------------------------------------------
# Chapter 2: the motivating f/g nest
# ---------------------------------------------------------------------------

def test_fig_2_1_2_3_motivating_example():
    """Original II=2 and 2*M*N cycles; jam(2) halves the time with twice
    the operators; squash(2) reaches the same time with the original
    operators, and its code has Fig. 2.3's prolog / (2N-1)-tick steady
    loop / epilog shape."""
    m, n = 16, 8
    prog = build_fg_nest(m=m, n=n)
    nest = find_kernel_nests(prog)[0]
    original = compile_original(prog, nest)
    jam2 = compile_jam(prog, nest, 2, base_ii=original.ii)
    squash2 = compile_squash(prog, nest, 2, base_ii=original.ii)

    assert original.ii == 2                       # min II of the f->g cycle
    assert jam2.ii == 2                           # jam leaves the cycle alone
    assert squash2.ii == 1                        # squash splits it
    assert jam2.op_rows == 2 * original.op_rows   # doubled operators
    assert squash2.op_rows == original.op_rows    # same operators
    assert squash2.registers >= original.registers  # + pipeline registers
    assert normalize(original, jam2).speedup == pytest.approx(2.0, rel=0.01)
    assert normalize(original, squash2).speedup == pytest.approx(2.0,
                                                                 rel=0.1)

    res = unroll_and_squash(prog, nest, 2)
    assert any(isinstance(s, For) and s.annotations.get("squash_ds")
               for s in walk_stmts(res.program.body))
    assert res.emission.steady_ticks == 2 * n - 1
    out = run_program(res.program).arrays["data_out"]
    assert list(out) == list(fg_reference(prog.arrays["data_in"].init, n))


def test_fig_2_4_operator_occupancy():
    """jam(2) runs 4 operators at 50% occupancy (II=2); squash(2) runs
    the original 2 at 100% (II=1)."""
    data = run_fig_2_4(2)
    jam_sched, jam_tl = data["jam"]
    sq_sched, sq_tl = data["squash"]
    assert sq_sched.ii == 1 and jam_sched.ii == 2
    assert len(jam_tl) == 2 * len(sq_tl)   # jam duplicated the operators

    def occupancy(tl):
        cells = [c for row in tl.values() for c in row[4:20]]  # steady state
        return sum(1 for c in cells if c >= 0) / len(cells)

    assert occupancy(sq_tl) == 1.0          # squash fills every idle slot
    assert occupancy(jam_tl) <= 0.55        # jam idles half the time


def test_combined_jam_squash():
    """Ch. 2: jam by the available operators, then squash — jam(2)+
    squash(2) quadruples throughput for twice the operators, beating
    squash(4) alone and matching jam(4) at half its operator area."""
    prog = build_fg_nest(m=32, n=8)
    nest = find_kernel_nests(prog)[0]
    base = compile_original(prog, nest)
    combo = compile_jam_squash(prog, nest, 2, 2, base_ii=base.ii)
    squash4 = compile_squash(prog, nest, 4, base_ii=base.ii)
    jam4 = compile_jam(prog, nest, 4, base_ii=base.ii)

    n_combo = normalize(base, combo)
    n_jam4 = normalize(base, jam4)
    assert n_combo.speedup == pytest.approx(4.0, rel=0.1)
    assert combo.op_rows == 2 * base.op_rows
    # squash(2) already hit the II floor of 1: more stages cannot help,
    # more operators can
    assert n_combo.speedup > normalize(base, squash4).speedup
    assert n_combo.speedup == pytest.approx(n_jam4.speedup, rel=0.1)
    assert combo.op_rows == jam4.op_rows // 2
    assert n_combo.efficiency > n_jam4.efficiency


# ---------------------------------------------------------------------------
# Chapter 6: the synthesis sweep
# ---------------------------------------------------------------------------

def test_table_6_2_shape(sweep):
    """Squash II non-increasing and jam II non-decreasing in DS; squash
    keeps the operator rows, jam scales them; squash registers grow
    with DS; the memory bus congests jam on the -mem kernels only."""
    for kernel, vs in sweep.items():
        sq = [vs.squash[k] for k in FACTORS]
        jm = [vs.jam[k] for k in FACTORS]
        assert all(a.ii >= b.ii for a, b in zip(sq, sq[1:])), kernel
        assert all(a.ii <= b.ii for a, b in zip(jm, jm[1:])), kernel
        assert vs.pipelined.ii <= vs.original.ii, kernel
        assert all(p.op_rows == vs.original.op_rows for p in sq), kernel
        assert jm[-1].op_rows > 8 * vs.original.op_rows, kernel
        assert all(a.registers < b.registers for a, b in zip(sq, sq[1:])), \
            kernel
    for kernel in ("skipjack-mem", "des-mem"):
        assert sweep[kernel].jam[16].ii > sweep[kernel].pipelined.ii, kernel
    # port-free kernels keep jam II flat at the recurrence bound
    for kernel in ("skipjack-hw", "des-hw"):
        vs = sweep[kernel]
        assert vs.jam[16].ii == vs.jam[2].ii == vs.pipelined.ii, kernel


def test_table_6_3_shape(norm):
    """Squash beats plain pipelining; squash(16) needs at least 2x less
    area than jam(16); jam is ~linear on port-free kernels and saturates
    under memory congestion, where squash keeps improving."""
    by_label = {kernel: {n.point.label: n for n in pts}
                for kernel, pts in norm.items()}
    for kernel, pts in by_label.items():
        assert pts["squash(4)"].speedup > pts["pipelined"].speedup, kernel
        ratio = (pts["jam(16)"].point.area_rows
                 / pts["squash(16)"].point.area_rows)
        assert ratio >= 2.0, (kernel, ratio)
    hw = by_label["skipjack-hw"]
    assert hw["jam(16)"].speedup == pytest.approx(16.0, rel=0.15)
    mem = by_label["skipjack-mem"]
    assert mem["jam(16)"].speedup < 10.0
    assert mem["squash(16)"].speedup >= mem["squash(4)"].speedup


def test_fig_6_1_speedup(norm):
    """Squash speedup grows with DS everywhere; jam stays proportional to
    its factor on port-free kernels and loses that on memory-bound ones."""
    idx, series = _figure("6.1", norm)
    for kernel, vals in series.items():
        assert vals[idx["original"]] == pytest.approx(1.0)
        sq = [vals[idx[f"squash({k})"]] for k in FACTORS]
        assert all(a <= b + 1e-9 for a, b in zip(sq, sq[1:])), kernel
    hw = series["des-hw"]
    assert hw[idx["jam(16)"]] / hw[idx["jam(2)"]] == pytest.approx(8,
                                                                   rel=0.1)
    mem = series["des-mem"]
    assert mem[idx["jam(16)"]] / mem[idx["jam(2)"]] < 4


def test_fig_6_2_area(norm):
    """Jam area scales ~linearly with the factor, squash area far slower;
    IIR shows the starkest contrast (paper: 2.4 vs 18.5 at 16)."""
    idx, series = _figure("6.2", norm)
    for kernel, vals in series.items():
        for k in FACTORS:
            assert vals[idx[f"squash({k})"]] < vals[idx[f"jam({k})"]], \
                (kernel, k)
        assert vals[idx["jam(16)"]] == pytest.approx(
            8 * vals[idx["jam(2)"]], rel=0.35), kernel
    iir = series["iir"]
    assert iir[idx["squash(16)"]] < 2.5
    assert iir[idx["jam(16)"]] > 10


def test_fig_6_3_efficiency(norm):
    """Squash(4) beats jam(4) everywhere; jam efficiency falls with the
    factor on -mem kernels and stays flat on -hw ones; IIR's squash
    efficiency grows with the factor."""
    idx, series = _figure("6.3", norm)
    for kernel, vals in series.items():
        assert vals[idx["squash(4)"]] > vals[idx["jam(4)"]], kernel
    for kernel in ("skipjack-mem", "des-mem"):
        vals = series[kernel]
        assert vals[idx["jam(16)"]] < vals[idx["jam(2)"]], kernel
    for kernel in ("skipjack-hw", "des-hw"):
        vals = series[kernel]
        assert vals[idx["jam(16)"]] == pytest.approx(
            vals[idx["jam(2)"]], rel=0.15), kernel
    iir = series["iir"]
    sq = [iir[idx[f"squash({k})"]] for k in FACTORS]
    assert sq == sorted(sq)


def test_fig_6_4_operator_share(norm):
    """The operator share of area stays flat across jam factors but falls
    sharply for squash, whose growth is registers only (§6.3)."""
    idx, series = _figure("6.4", norm)
    for kernel, vals in series.items():
        assert vals[idx["squash(16)"]] < vals[idx["squash(2)"]] * 0.8, kernel
        assert vals[idx["jam(16)"]] == pytest.approx(
            vals[idx["jam(2)"]], rel=0.25), kernel
        assert vals[idx["squash(16)"]] < 75.0, kernel


# ---------------------------------------------------------------------------
# Ablations of the §6.1 target
# ---------------------------------------------------------------------------

def test_mem_ports_ablation(sweep):
    """More memory ports shrink jam(8)'s II on the -mem kernels, squash's
    II floor follows ceil(mem/ports), and the port-free kernels do not
    care (§6.1's two references per cycle)."""
    ports = (1, 2, 4)
    sweeps = {1: run_table_6_2(FACTORS, "acev::ports=1"), 2: sweep,
              4: run_table_6_2(FACTORS, "acev::ports=4")}
    for kernel in ("skipjack-mem", "des-mem"):
        jam_ii = [sweeps[p][kernel].jam[8].ii for p in ports]
        assert jam_ii[0] > jam_ii[1] >= jam_ii[2], kernel
        sq_ii = [sweeps[p][kernel].squash[16].ii for p in ports]
        assert sq_ii[0] >= sq_ii[1] >= sq_ii[2], kernel
    hw_ii = [sweeps[p]["skipjack-hw"].jam[8].ii for p in ports]
    assert hw_ii[0] == hw_ii[1] == hw_ii[2]


def test_register_packing_ablation(norm):
    """Shift-register packing (§4.4/§6.3): at a quarter row per register
    squash(16)'s efficiency rises by over 25%, while jam(16)'s,
    operator-dominated, rises by less."""
    packed = run_table_6_3(run_table_6_2(FACTORS, "acev::reg_rows=0.25"))
    for kernel, pts in norm.items():
        full = {n.point.label: n.efficiency for n in pts}
        quarter = {n.point.label: n.efficiency for n in packed[kernel]}
        assert quarter["squash(16)"] > full["squash(16)"] * 1.25, kernel
        assert quarter["jam(16)"] < full["jam(16)"] * 1.25, kernel
