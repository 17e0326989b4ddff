"""Staged variant compilation: typed artifacts, declarative plans, shared
analysis.

The extension surface of the compiler: every design variant flows
``build -> analyze -> schedule -> validate -> report`` through
:class:`CompilationPipeline`, with every variant's analysis (squash and
jam included) derived from the built nest in :mod:`repro.pipeline.
analysis`, scheduling strategies resolved by name from
:mod:`repro.hw.schedulers`, every schedule checked by the independent
re-verifier (:mod:`repro.verify.schedule`) in the validate stage, and
the DS-independent front-end analysis shared across variants via
:class:`AnalysisCache`.
"""

from repro.pipeline.artifacts import (  # noqa: F401
    AnalyzedDFG, BuiltKernel, ScheduledDesign,
)
from repro.pipeline.analysis import (  # noqa: F401
    AnalysisCache, BaseAnalysis, analysis_cache, base_analyzed_dfg,
    squash_analyzed_dfg,
)
from repro.pipeline.pipeline import (  # noqa: F401
    VARIANT_PLANS, CompilationPipeline, PipelineRun, VariantPlan,
    variant_label,
)
