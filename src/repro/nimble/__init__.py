"""Nimble-Compiler-style driver: profiling, kernel selection, variant
compilation onto a parametric reconfigurable target (thesis Ch. 5).

Profiling (:mod:`repro.nimble.profile`) and kernel selection
(:mod:`repro.nimble.kernel`) run programs through the interpreter; they
are not re-exported here, so compiling designs does not load them.
"""

from repro.nimble.target import (  # noqa: F401
    ACEV, GARP, VLIW4, Target, VLIWTarget, decode_target, target_by_name,
)
from repro.nimble.compiler import (  # noqa: F401
    VariantSet, compile_jam, compile_jam_squash, compile_original,
    compile_query, compile_squash, compile_variants,
)
