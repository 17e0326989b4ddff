"""Hardware synthesis substrate: operator costs, scheduling, area, timing.

The Nimble back-end equivalent (thesis §5.1/§6.1): a parametric datapath
cost model (rows + memory ports), RecMII/ResMII bounds, a modulo
scheduler, a non-pipelined list scheduler, register/area estimation, and
cycle accounting of scheduled datapaths (:mod:`repro.hw.simulate`, not
re-exported: design compilation never runs it).
"""

from repro.hw.ops import ACEV_LIBRARY, GARP_LIBRARY, OperatorLibrary, OpSpec  # noqa: F401
from repro.hw.mii import (  # noqa: F401
    min_ii, rec_mii, res_mii, squash_distances,
)
from repro.hw.modulo import ModuloSchedule, modulo_schedule  # noqa: F401
from repro.hw.listsched import ListSchedule, list_schedule  # noqa: F401
from repro.hw.schedulers import (  # noqa: F401
    DEFAULT_SCHEDULER, BacktrackingModuloScheduler, ExactModuloScheduler,
    IterativeModuloScheduler, ListScheduler, Scheduler,
    available_schedulers, backtracking_modulo_schedule, register_scheduler,
    scheduler_by_name,
)
from repro.hw.area import (  # noqa: F401
    operator_rows, registers_original, registers_pipelined,
)
from repro.hw.report import DesignPoint, NormalizedPoint, normalize  # noqa: F401
