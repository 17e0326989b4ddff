"""The program-level transforms unroll-and-squash builds on (thesis §3.4,
§4.2).

* :func:`repro.transforms.ifconvert.if_convert` — the §4.2
  if-conversion that turns a conditional inner loop into a single basic
  block; the ``.lang`` front end applies it inside every
  ``#pragma kernel`` loop (:func:`repro.lang.lower.compile_unit`); it
  is not re-exported here, since a suite sweep never calls it;
* :func:`unroll_and_jam` — the baseline squash competes with, and the
  first half of the combined jam+squash variant.

Both are pure ``Program -> Program`` functions.  Three-address lowering
of straight-line blocks lives in :mod:`repro.transforms.three_address`.
"""

from repro.transforms.unroll_and_jam import (
    jam_privatized_names, unroll_and_jam,
)

__all__ = ["unroll_and_jam", "jam_privatized_names"]
