"""Design-space exploration: declarative spaces, a parallel evaluation
engine with a persistent result cache, and Pareto/ranking reports.

Quick tour::

    from repro.explore import DesignSpace, ResultCache, evaluate

    space = DesignSpace(kernels=("iir",), factors=(2, 4, 8))
    result = evaluate(space.enumerate(), jobs=4, cache=ResultCache())
    from repro.explore import format_pareto
    print(format_pareto(result))
"""

from repro.explore.space import (  # noqa: F401
    VARIANTS, DesignQuery, DesignSpace, FailRecord, SkipRecord,
    table_sweep_space,
)
from repro.explore.cache import (  # noqa: F401
    CacheStats, NullCache, ResultCache, code_version, default_cache_dir,
)
from repro.explore.engine import (  # noqa: F401
    ExploreResult, default_jobs, evaluate,
)
from repro.explore.supervise import SweepInterrupted  # noqa: F401
from repro.explore.pareto import (  # noqa: F401
    OBJECTIVES, best_designs, dominates, pareto_front, pareto_queries,
)
from repro.explore.report import (  # noqa: F401
    format_best, format_cache_stats, format_fails, format_pareto,
    format_skips, format_summary,
)
