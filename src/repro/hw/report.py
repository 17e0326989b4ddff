"""Design points and Table 6.2/6.3 arithmetic.

A :class:`DesignPoint` is one cell group of Table 6.2 — a (kernel,
variant) pair with its initiation interval, area, and registers — plus
the trip counts needed to derive total execution time.  The total-time
formulas follow §2/§4.4:

* original / pipelined: ``II * M * N``;
* squash(DS):  ``II * (M/DS) * (DS*N - (DS-1))`` for the tiled part,
  peeled remainder iterations at the original II;
* jam(DS): ``II * (M/DS) * N`` plus the peeled remainder.

:func:`normalize` derives the Table 6.3 rows: speedup, area factor,
register factor, and efficiency (speedup/area, Fig. 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DesignPoint", "NormalizedPoint", "normalize", "variant_label"]


def variant_label(variant: str, ds: int = 1, jam: int = 1) -> str:
    """Human-readable design label, e.g. ``jam(2)+squash(4)``.

    The one formatter behind :attr:`DesignPoint.label`,
    :attr:`repro.explore.space.DesignQuery.label`, and pipeline error
    provenance, so reported rows and error messages always correlate.
    """
    if variant in ("original", "pipelined"):
        return variant
    if variant == "jam+squash":
        return f"jam({jam})+squash({ds})"
    return f"{variant}({ds})"


@dataclass
class DesignPoint:
    """Raw synthesis result for one variant of one kernel."""

    kernel: str
    variant: str                  # original | pipelined | squash | jam
    factor: int                   # DS (1 for original/pipelined)
    ii: int
    op_rows: int
    registers: int
    reg_rows: float
    rec_mii: int
    res_mii: int
    outer_trip: int
    inner_trip: int
    #: II of the original design, for costing peeled remainder iterations
    base_ii: Optional[int] = None
    schedule_length: int = 0
    #: for the combined jam+squash variant: the squash part of ``factor``
    squash_ds: Optional[int] = None
    #: certified-optimal II for this design, when known: stamped by the
    #: ``exact`` scheduler, or propagated across the scheduler axis by
    #: :meth:`repro.explore.engine.ExploreResult.attach_exact_ii`
    exact_ii: Optional[int] = None
    #: register-file targets only (:mod:`repro.vliw`): peak simultaneously
    #: live values per kernel cycle under modulo execution, after any
    #: register-pressure II bumps
    max_live: Optional[int] = None
    #: architected register-file capacity of the target (None = spatial
    #: datapath, registers are synthesized rather than allocated)
    reg_capacity: Optional[int] = None

    @property
    def label(self) -> str:
        if self.variant == "jam+squash":
            if not self.squash_ds:  # pragma: no cover - legacy records
                return f"{self.variant}({self.factor})"
            return variant_label(self.variant, self.squash_ds,
                                 self.factor // self.squash_ds)
        return variant_label(self.variant, self.factor)

    @property
    def area_rows(self) -> float:
        """Total rows: operators plus registers (§6.3 register model)."""
        return self.op_rows + self.registers * self.reg_rows

    @property
    def min_ii(self) -> int:
        """``max(RecMII, ResMII)`` — the scheduler-independent lower
        bound (0 for list-scheduled designs, which carry no MII)."""
        return max(self.rec_mii, self.res_mii)

    @property
    def optimality_gap(self) -> Optional[int]:
        """``ii - exact_ii`` when the optimum is known, else None.

        A design at its MII lower bound is optimal by construction, so
        the gap is 0 even without an exact-scheduler run.  Heuristic
        designs whose group was never exactly scheduled report None
        ("unknown"), never a guess.
        """
        if self.exact_ii is not None:
            return self.ii - self.exact_ii
        if 0 < self.min_ii == self.ii:
            return 0
        return None

    @property
    def total_cycles(self) -> float:
        m, n, ds = self.outer_trip, self.inner_trip, self.factor
        base = self.base_ii or self.ii
        if self.variant in ("original", "pipelined"):
            return self.ii * m * n
        tiles = m // ds
        peeled = m - tiles * ds
        peel_cost = peeled * n * base
        if self.variant == "squash":
            return self.ii * tiles * (ds * n - (ds - 1)) + peel_cost
        if self.variant == "jam":
            return self.ii * tiles * n + peel_cost
        if self.variant == "jam+squash":
            sq = self.squash_ds or 1
            return self.ii * tiles * (sq * n - (sq - 1)) + peel_cost
        raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class NormalizedPoint:
    """One column of Table 6.3 (base = the original design)."""

    point: DesignPoint
    speedup: float
    area_factor: float
    register_factor: float

    @property
    def efficiency(self) -> float:
        """Speedup per unit area (Fig. 6.3; higher is better)."""
        return self.speedup / self.area_factor if self.area_factor else 0.0

    @property
    def operator_fraction(self) -> float:
        """Operators as % of area (Fig. 6.4)."""
        area = self.point.area_rows
        return self.point.op_rows / area if area else 1.0


def normalize(base: DesignPoint, point: DesignPoint) -> NormalizedPoint:
    """Express ``point`` relative to the original design ``base``."""
    return NormalizedPoint(
        point=point,
        speedup=base.total_cycles / point.total_cycles,
        area_factor=point.area_rows / base.area_rows if base.area_rows else 1.0,
        register_factor=(point.registers / base.registers
                         if base.registers else 1.0),
    )
