"""Source-level fuzzing: random ``.lang`` programs, differentially
validated through the whole stack.

:func:`random_source_nest` emits *source text* for a squashable
inner/outer nest with the same shape guarantees as
:func:`repro.ir.randgen.random_squashable_nest` (disjoint outer array
slots, single-basic-block kernel inner loop, scalar recurrences, optional
ROM lookups) and draws values from the same shared
:class:`~repro.ir.randgen.ValueDomain`, so findings transfer between the
IR-level and source-level generators.

:func:`differential_check` pushes one generated program through
``parse → sema → lower`` and then holds the result to the exact property
the IR-level fuzzer enforces (`tests/vliw/test_randgen_property.py`):

* the printed program re-parses to a structurally equivalent one;
* the scheduler's result passes the independent schedule re-verifier
  (:func:`repro.verify.schedule.reverify_modulo`: dependences, resource
  rows within their slot limits, the claimed table, the makespan);
* cycle-accurate replay (:func:`repro.vliw.simulate.vliw_replay`)
  computes exactly the IR interpreter's values.

It returns a list of failure descriptions (empty = pass) so bounded
fuzz drivers can aggregate across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ir.randgen import ValueDomain

__all__ = ["SourceNestSpec", "random_source_nest", "differential_check"]

_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
              "xor": "^"}


@dataclass(frozen=True)
class SourceNestSpec:
    """Shape knobs for :func:`random_source_nest` (source-level mirror of
    :class:`~repro.ir.randgen.SquashNestSpec`)."""

    m: int = 12                  # outer trip count
    n: int = 5                   # inner trip count
    n_state: int = 3             # scalar recurrence chain width
    n_ops: int = 6               # extra ops in the inner body
    use_rom: bool = True
    use_inner_iv: bool = True
    use_outer_iv: bool = True
    seed_arrays: int = 2

    @staticmethod
    def sample(rng: random.Random) -> "SourceNestSpec":
        """A random shape within the sizes the fast differential tier
        can afford."""
        return SourceNestSpec(
            m=rng.randrange(4, 14),
            n=rng.randrange(2, 8),
            n_state=rng.randrange(2, 5),
            n_ops=rng.randrange(3, 9),
            use_rom=rng.random() < 0.6,
            use_inner_iv=rng.random() < 0.8,
            use_outer_iv=rng.random() < 0.8,
            seed_arrays=rng.randrange(1, 3),
        )


def _init_text(values: list[int]) -> str:
    lines, cur = [], ""
    for v in values:
        piece = f"{v}, "
        if cur and len(cur) + len(piece) > 68:
            lines.append(cur.rstrip())
            cur = ""
        cur += piece
    lines.append(cur.rstrip().rstrip(","))
    return "{\n    " + "\n    ".join(lines) + "\n  }"


def random_source_nest(rng: random.Random,
                       spec: SourceNestSpec | None = None,
                       domain: ValueDomain | None = None) -> str:
    """Emit ``.lang`` source for a random squashable nest."""
    spec = spec or SourceNestSpec()
    dom = domain or ValueDomain()
    r = rng
    m, n = spec.m, spec.n

    lines = [f'kernel "fuzz_{r.randrange(1 << 30)}" {{']
    for k in range(spec.seed_arrays):
        ty = dom.pick_in_type(r)
        init = dom.sample_init(r, ty, m)
        lines.append(f"  {ty} in{k}[{m}] = {_init_text(init)};")
    lines.append(f"  output u32 out[{m}];")
    if spec.use_rom:
        rom = dom.sample_rom(r)
        lines.append(f"  rom u8 lut[{dom.rom_size}] = {_init_text(rom)};")
    state = [f"x{k}" for k in range(spec.n_state)]
    temps = [f"t{t}" for t in range(spec.n_ops)]
    for name in state + temps:
        lines.append(f"  u32 {name};")
    lines.append("")

    lines.append(f"  for (i = 0; i < {m}; i++) {{")
    for k, v in enumerate(state):
        lines.append(f"    {v} = in{k % spec.seed_arrays}[i] + {k};")
    lines.append("    #pragma kernel")
    lines.append(f"    for (j = 0; j < {n}; j++) {{")

    atoms = list(state)
    if spec.use_inner_iv:
        atoms.append("j")
    if spec.use_outer_iv:
        atoms.append("i")
    for t, tmp in enumerate(temps):
        op = _OP_SYMBOL[dom.pick_op(r)]
        a = r.choice(atoms)
        bb = r.choice(atoms + [str(dom.sample_const(r))])
        e = f"({a} {op} {bb})"
        if spec.use_rom and r.random() < 0.35:
            e = f"(lut[({e} & 255)] + {e})"
        lines.append(f"      {tmp} = {e};")
        atoms.append(tmp)
    # rotate the recurrence chain so every state var is live-in & live-out
    for k, v in enumerate(state):
        feed = atoms[-(k % len(atoms)) - 1]
        lines.append(f"      {v} = {state[(k + 1) % len(state)]} + {feed};")
    lines.append("    }")

    acc = " ^ ".join(state)
    lines.append(f"    out[i] = {acc};")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def differential_check(seed: int, target_spec: str = "acev",
                       scheduler: str = "modulo",
                       spec: SourceNestSpec | None = None,
                       domain: ValueDomain | None = None) -> list[str]:
    """Generate from ``seed``, compile, schedule, and cross-check.

    Returns failure descriptions; an empty list means the seed passed
    every property.
    """
    import numpy as np

    from repro.analysis.loops import find_kernel_nests, trip_count
    from repro.core.squash import analyze_nest
    from repro.hw.schedulers import scheduler_by_name
    from repro.ir.printer import program_to_str
    from repro.lang import compile_source, programs_equivalent
    from repro.nimble.target import decode_target
    from repro.verify.schedule import reverify_modulo
    from repro.vliw.simulate import (
        interpreter_reference, random_live_ins, vliw_replay,
    )

    rng = random.Random(seed)
    if spec is None:
        spec = SourceNestSpec.sample(rng)
    text = random_source_nest(rng, spec, domain)
    where = f"seed {seed} on {target_spec}/{scheduler}"
    problems: list[str] = []
    try:
        prog = compile_source(text, filename=f"<fuzz:{seed}>")
    except Exception as exc:  # any front-end crash is a finding
        return [f"{where}: compile failed: {type(exc).__name__}: {exc}"]

    if not programs_equivalent(prog, compile_source(program_to_str(prog))):
        problems.append(f"{where}: print → reparse is not equivalent")

    nest = find_kernel_nests(prog)[0]
    target = decode_target(target_spec)
    work, w_nest, ssa, dfg, _, check = analyze_nest(
        prog, nest, 1, delay_fn=target.library.delay)
    sched = scheduler_by_name(scheduler).schedule(dfg, target.library)

    findings = reverify_modulo(dfg, target.library, sched)
    if findings:
        problems.append(f"{where}: schedule findings "
                        f"{[str(f) for f in findings[:3]]}")

    init = random_live_ins(work, w_nest, ssa, random.Random(seed + 1))
    iters = trip_count(w_nest.inner)
    rep = vliw_replay(dfg, ssa, target.library, sched, work, iters,
                      init_regs=init, iv_step=w_nest.inner.step)
    if not rep.ok:
        problems.append(f"{where}: replay violations {rep.violations[:3]}")
    ref = interpreter_reference(work, w_nest.inner, init)
    for name in work.arrays:
        if not np.array_equal(rep.arrays[name], ref.arrays[name]):
            problems.append(f"{where}: array {name!r} diverged")
    carried = {x for x in check.liveness.carried if x in ssa.entry}
    for name in carried:
        if rep.scalars[name] != ref.scalars[name]:
            problems.append(f"{where}: carried {name!r} diverged")
    return problems

