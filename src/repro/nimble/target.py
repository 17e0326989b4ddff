"""Target platform descriptions (thesis §5.1).

The Nimble Compiler is retargettable through an Architecture Description;
we model the properties the evaluation depends on — the operator cost
library with its shared-resource description, plus a nominal clock for
pretty-printing.  ``ACEV`` is the evaluation target of Chapter 6
(Xilinx Virtex on a TSI Telsys ACE card, 2 memory references/cycle);
``VLIW4`` is the issue-slot backend of :mod:`repro.vliw` (4-issue,
2 ALU + 1 MUL + 2 MEM + 1 BR, 64 rotating registers).

Target *specs* are strings — a base name plus ``::key=value`` modifiers
— decoded by :func:`decode_target`.  Every modifier re-encodes into the
resulting :class:`Target`'s name, so a derived target is recognizably
labeled in reports and error provenance.  Unknown names and modifiers
raise :class:`~repro.errors.ReproError` naming the known set with a
did-you-mean suggestion (consistent with :mod:`repro.env` validation).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from repro.caches import register_cache
from repro.errors import ReproError
from repro.hw.ops import ACEV_LIBRARY, GARP_LIBRARY, OperatorLibrary
from repro.vliw.machine import VLIW4_LIBRARY

__all__ = ["Target", "VLIWTarget", "ACEV", "GARP", "VLIW4", "decode_target",
           "target_by_name"]


def _suggest(name: str, known) -> str:
    close = difflib.get_close_matches(name, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


@dataclass
class Target:
    """One hardware platform the compiler can be pointed at."""

    name: str
    library: OperatorLibrary
    clock_mhz: float = 40.0
    description: str = ""
    #: default scheduling strategy for pipelined variants ("" = the
    #: registry default, :data:`repro.hw.schedulers.DEFAULT_SCHEDULER`)
    scheduler: str = ""

    @property
    def mem_ports(self) -> int:
        return self.library.mem_ports

    def _derive(self, suffix: str, library: OperatorLibrary) -> "Target":
        """A renamed copy with a new library (subclass-preserving)."""
        return replace(self, name=f"{self.name}{suffix}", library=library)

    def with_mem_ports(self, ports: int) -> "Target":
        return self._derive(f"-p{ports}", self.library.with_ports(ports))

    def with_packed_registers(self, rows_per_register: float) -> "Target":
        return self._derive(
            "-packed", self.library.with_packed_registers(rows_per_register))

    def with_clock(self, clock_mhz: float) -> "Target":
        return replace(self, name=f"{self.name}-c{clock_mhz:g}",
                       clock_mhz=clock_mhz)

    def with_op_delay(self, op: str, delay: int) -> "Target":
        return self._derive(f"-{op}{delay}",
                            self.library.with_op_delay(op, delay))

    def with_scheduler(self, scheduler: str) -> "Target":
        from repro.hw.schedulers import scheduler_by_name
        scheduler_by_name(scheduler)  # fail fast on unknown strategies
        return replace(self, scheduler=scheduler)

    # -- spec-modifier extension point ------------------------------------

    def modifier_names(self) -> tuple[str, ...]:
        """Target-specific ``decode_target`` modifier keys (none here)."""
        return ()

    def modify(self, key: str, val: str) -> "Optional[Target]":
        """Apply one target-specific modifier; ``None`` = unknown key."""
        return None


@dataclass
class VLIWTarget(Target):
    """An issue-slot machine; adds the VLIW machine-description modifiers.

    ``vliw4::issue=8,alu=4,mul=2,mem=2,br=1,regs=128,rotating=0`` — each
    key replaces one :class:`~repro.vliw.machine.VLIWOperatorLibrary`
    field (``mem`` is an alias of the generic ``ports``) and re-encodes
    into the target name.
    """

    def _machine(self, suffix: str, **changes) -> "VLIWTarget":
        lib = self.library
        if not hasattr(lib, "with_machine"):
            raise ReproError(
                f"target {self.name!r} carries a "
                f"{type(lib).__name__} that supports no machine "
                "modifiers; use a VLIW operator library")
        return self._derive(suffix, lib.with_machine(**changes))

    def modifier_names(self) -> tuple[str, ...]:
        return ("issue", "alu", "mul", "mem", "br", "regs", "rotating")

    def modify(self, key: str, val: str) -> "Optional[Target]":
        if key == "issue":
            return self._machine(f"-i{int(val)}", issue_width=int(val))
        if key == "alu":
            return self._machine(f"-alu{int(val)}", alu_slots=int(val))
        if key == "mul":
            return self._machine(f"-mul{int(val)}", mul_slots=int(val))
        if key == "mem":
            return self.with_mem_ports(int(val))
        if key == "br":
            return self._machine(f"-br{int(val)}", br_slots=int(val))
        if key == "regs":
            return self._machine(f"-r{int(val)}", register_file=int(val))
        if key == "rotating":
            rot = bool(int(val))
            return self._machine(f"-rot{int(rot)}", rotating=rot)
        return None


ACEV = Target(
    "acev", ACEV_LIBRARY, clock_mhz=40.0,
    description="TSI Telsys ACE card + Xilinx Virtex XCV1000 "
                "(two memory references per clock cycle)")

GARP = Target(
    "garp", GARP_LIBRARY, clock_mhz=133.0,
    description="Berkeley GARP-like: MIPS core + reconfigurable array, "
                "single memory bus")

VLIW4 = VLIWTarget(
    "vliw4", VLIW4_LIBRARY, clock_mhz=200.0,
    description=VLIW4_LIBRARY.describe())

_TARGETS = {t.name: t for t in (ACEV, GARP, VLIW4)}


def target_by_name(name: str) -> Target:
    try:
        return _TARGETS[name]
    except KeyError:
        raise ReproError(
            f"unknown target {name!r}; known targets are "
            f"{sorted(_TARGETS)}{_suggest(name, _TARGETS)}") from None


#: Modifier keys every target accepts.
_GENERIC_MODIFIERS = ("ports", "reg_rows", "clock", "scheduler", "delay.<op>")


@lru_cache(maxsize=256)
def decode_target(spec: str) -> Target:
    """Decode a target spec string into a :class:`Target`.

    A spec is a base target name optionally followed by ``::`` and
    comma-separated modifiers::

        acev
        acev::ports=1
        acev::reg_rows=0.25,clock=66
        garp::delay.mul=4,ports=2
        acev::scheduler=backtrack
        vliw4::mul=2,regs=128
        vliw4::issue=8,alu=4,rotating=0

    Generic modifiers: ``ports`` (memory references/cycle), ``reg_rows``
    (rows per register, the packing ablation), ``clock`` (MHz),
    ``delay.<op>`` (operator latency override in cycles), and
    ``scheduler`` (default strategy for pipelined variants; see
    :func:`repro.hw.schedulers.available_schedulers`).  VLIW targets add
    the machine-description keys ``issue``/``alu``/``mul``/``mem``/
    ``br``/``regs``/``rotating`` (see :class:`VLIWTarget`).
    """
    name, _, mods = spec.partition("::")
    target = target_by_name(name)
    for mod in filter(None, mods.split(",")):
        key, _, val = mod.partition("=")
        try:
            if key == "ports":
                target = target.with_mem_ports(int(val))
            elif key == "reg_rows":
                target = target.with_packed_registers(float(val))
            elif key == "clock":
                target = target.with_clock(float(val))
            elif key == "scheduler":
                target = target.with_scheduler(val)
            elif key.startswith("delay."):
                op = key[len("delay."):]
                try:
                    target = target.with_op_delay(op, int(val))
                except KeyError:
                    raise ReproError(
                        f"unknown operator {op!r} in target modifier "
                        f"{key!r}; known operators are "
                        f"{sorted(target.library.table)}"
                        f"{_suggest(op, target.library.table)}") from None
            else:
                modified = target.modify(key, val)
                if modified is None:
                    known = _GENERIC_MODIFIERS + target.modifier_names()
                    raise ReproError(
                        f"unknown modifier {key!r} for target {name!r}; "
                        f"known modifiers are {sorted(known)}"
                        f"{_suggest(key, known)}")
                target = modified
        except ValueError:
            raise ReproError(
                f"invalid value {val!r} for target modifier {key!r} in "
                f"spec {spec!r}; expected a number") from None
    return target


# Specs are pure descriptions and Targets are treated as immutable, so
# every query sharing one spec can share one decoded Target (stable
# library identity in turn keeps the per-process memos small).
register_cache(decode_target.cache_clear)
