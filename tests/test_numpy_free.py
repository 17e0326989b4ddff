"""The design-space path runs without NumPy.

Compiling a design stores and compares plain Python data only, so the
CLI, the ``.lang`` front end, the Table 6.1 builders, analysis, the
scheduler, the re-verifier, the engine and the reports never import
NumPy; value-level code (the IR interpreter, the VLIW replay, the
workloads' reference models) imports it where it runs programs.

Each command below runs under a bootstrap that makes ``import numpy``
fail (``sys.modules["numpy"] = None``, which the forked pool workers
inherit) and must print exactly what an unblocked run prints.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: ``python -c`` bootstrap: every ``import numpy`` raises ImportError.
BLOCKED = ("import sys; sys.modules['numpy'] = None; import repro.cli; "
           "sys.exit(repro.cli.main(sys.argv[1:]))")

COMMANDS = {
    "suite": ["explore", "--kernel", "iir", "--kernel", "des-mem",
              "--variants", "original", "pipelined", "squash", "jam",
              "jam+squash", "--factors", "2", "4",
              "--scheduler", "modulo", "--scheduler", "backtrack",
              "--jobs", "2"],
    "source": ["explore", "--source", "examples/clamp.lang",
               "--factors", "2", "4"],
    "tables": ["tables", "6.2", "--factors", "2"],
}


def _spawn(argv: "list[str]", cache_dir: pathlib.Path) -> subprocess.Popen:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_prints_the_same_without_numpy(name, tmp_path):
    args = COMMANDS[name]
    blocked = _spawn(["-c", BLOCKED, *args], tmp_path / "blocked")
    plain = _spawn(["-m", "repro", *args], tmp_path / "plain")
    b_out, b_err = blocked.communicate(timeout=240)
    p_out, p_err = plain.communicate(timeout=240)
    assert plain.returncode == 0, p_err
    assert blocked.returncode == 0, b_err
    assert b_out == p_out
    assert b_out.strip()


def test_imports_load_no_numpy(tmp_path):
    # nor the exact scheduler, which only ``--scheduler exact`` runs
    code = ("import sys, repro.cli, repro.explore, repro.lang, "
            "repro.workloads, repro.vliw.pressure\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('numpy.') "
            "or m == 'repro.hw.exact'))")
    proc = _spawn(["-c", code], tmp_path)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.strip() == "[]"


def test_functional_check_imports_numpy_on_demand(tmp_path):
    """``repro compile`` runs the original and squashed programs through
    the interpreter, which imports NumPy where it builds array storage."""
    proc = _spawn(["-m", "repro", "compile", "examples/clamp.lang",
                   "--ds", "2"], tmp_path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "squash(2) verified" in out
