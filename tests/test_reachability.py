"""Every definition under ``src/`` is reached from ``src/`` or ``examples/``.

An AST scan collects each module-level function and class and each
method, and every name and attribute that ``src/`` and ``examples/``
mention.  A definition whose name none of them mentions is code that no
command runs; it fails the scan unless :data:`ALLOWLIST` names it with
the reason it stays.  Imports and ``__all__`` strings are not
references, so a package re-export alone does not keep a definition
alive.  Dunders (called by the interpreter) and ``@register_cache``
functions (called through the cache registry) count as reached.

Run alone: ``python -m pytest -q tests/test_reachability.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Qualified name -> why it stays although nothing in src/ or examples/
#: references it.
ALLOWLIST = {
    "repro.hw.simulate.simulate_modulo":
        "perfbench/traced.py wraps it by name; removing it waits for a "
        "benchmark change",
    "repro.hw.simulate.simulate_sequential":
        "perfbench/traced.py wraps it by name; removing it waits for a "
        "benchmark change",
    "repro.ir.randgen.random_program":
        "test generator in a module the lang-resume pool imports through "
        "repro.lang.fuzz",
    "repro.ir.randgen.random_squashable_nest":
        "test generator in a module the lang-resume pool imports through "
        "repro.lang.fuzz",
    "repro.lang.fuzz.differential_check":
        "the source-level differential oracle the fuzz tests run, in the "
        "module perfbench's lang-resume pool imports",
    "repro.workloads.adpcm.decode":
        "reference model the ADPCM tests compare against",
    "repro.workloads.epic.decode_reference":
        "reference model the EPIC decoder test compares against",
    "repro.workloads.wavelet.haar2d":
        "reference model the wavelet tests compare against",
    "repro.workloads.wavelet.quantize":
        "reference model the wavelet tests compare against",
    "repro.analysis.usedef.live_before":
        "the seam through which the liveness tests probe _live_stmt",
    "repro.caches.clear_caches":
        "public hook (repro.clear_caches) that tests call for isolation",
    "repro.obs.metrics.reset_metrics":
        "test-isolation hook for the metrics registry",
    "repro.obs.trace.reset_trace":
        "test-isolation hook for the tracer",
}


def _definitions(body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            yield qual, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, qual)


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _reached_by_protocol(node):
    name = node.name
    return (name.startswith("__") and name.endswith("__")) or any(
        _decorator_name(d) == "register_cache" for d in node.decorator_list)


def unreached(src, roots, allowlist):
    """Problems found by the scan, one line each (empty when clean).

    Definitions come from the ``*.py`` files under ``src`` (module names
    relative to it); references from those files and the ones under each
    of ``roots``.  Reported: a definition nothing references and
    ``allowlist`` does not name, an allowlist entry that is referenced
    after all, and one that is no longer defined.
    """
    src = Path(src)
    referenced = set()
    for root in (src, *roots):
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    problems, defined = [], set()
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        for qual, node in _definitions(tree.body, module):
            defined.add(qual)
            if _reached_by_protocol(node):
                continue
            reached = node.name in referenced
            if qual in allowlist and reached:
                problems.append(f"{qual}: referenced, so its allowlist "
                                f"entry can go")
            elif qual not in allowlist and not reached:
                where = f"{path.relative_to(src.parent)}:{node.lineno}"
                problems.append(f"{qual}: nothing in src/ or examples/ "
                                f"references it ({where})")
    problems += [f"{qual}: allowlisted but no longer defined"
                 for qual in sorted(set(allowlist) - defined)]
    return problems


def test_every_src_definition_is_reached():
    problems = unreached(ROOT / "src", [ROOT / "examples"], ALLOWLIST)
    assert not problems, "\n".join(problems)
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_scan_on_a_small_tree(tmp_path):
    """Flags an unreferenced function and method and both kinds of stale
    allowlist entry; a function reached only as an attribute, a
    ``@register_cache`` function and a dunder pass, and neither the
    package re-export nor ``__all__`` keeps ``unused`` alive."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from pkg.mod import unused\n__all__ = ['unused']\n")
    (pkg / "caches.py").write_text("def register_cache(fn): return fn\n")
    (pkg / "mod.py").write_text(
        "from pkg.caches import register_cache\n"
        "def unused(): pass\n"
        "def by_attribute(): pass\n"
        "@register_cache\n"
        "def clear(): pass\n"
        "def listed(): pass\n"
        "def listed_but_used(): pass\n"
        "listed_but_used()\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def spare(self): pass\n")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "import pkg.mod\npkg.mod.by_attribute()\npkg.mod.Box()\n")
    allow = {"pkg.mod.listed": "kept", "pkg.mod.listed_but_used": "kept",
             "pkg.mod.gone": "kept"}
    problems = unreached(tmp_path / "src", [examples], allow)
    assert [p.split(":")[0] for p in problems] == [
        "pkg.mod.unused", "pkg.mod.listed_but_used", "pkg.mod.Box.spare",
        "pkg.mod.gone"]
    assert "(src/pkg/mod.py:2)" in problems[0]
