"""Optimization passes: generic cleanups plus the accfg-specific rewrites
from the paper (state tracing, configuration deduplication, configuration
overlap)."""

from .canonicalize import CanonicalizePass
from .cleanup import CleanupPass
from .cse import CSEPass, cse_root
from .dce import DCEPass
from .dedup import (
    DedupPass,
    eliminate_redundant_fields,
    hoist_invariant_setup_fields,
    hoist_setups_into_branches,
    merge_consecutive_setups,
    remove_empty_setups,
)
from .inline import InlinePass
from .licm import LICMPass
from .lint import LintPass
from .lower_linalg import ConvertLinalgToAccfgPass, LoweringError
from .overlap import OverlapPass, overlap_straight_line, pipeline_loop
from .pass_manager import (
    PASS_REGISTRY,
    ModulePass,
    PassManager,
    PassStatistics,
    register_pass,
    report_scopes,
)
from .pipeline import (
    PIPELINES,
    baseline_pipeline,
    none_pipeline,
    volatile_baseline_pipeline,
    licm_pipeline,
    unroll_pipeline,
    dedup_pipeline,
    full_pipeline,
    overlap_pipeline,
    unroll_full_pipeline,
    pipeline_by_name,
)
from .unroll import UnrollPass
from .trace_states import StateTracer, TraceStatesPass

__all__ = [
    "CanonicalizePass",
    "CleanupPass",
    "CSEPass",
    "cse_root",
    "DCEPass",
    "DedupPass",
    "eliminate_redundant_fields",
    "hoist_invariant_setup_fields",
    "hoist_setups_into_branches",
    "merge_consecutive_setups",
    "remove_empty_setups",
    "LICMPass",
    "LintPass",
    "InlinePass",
    "ConvertLinalgToAccfgPass",
    "LoweringError",
    "OverlapPass",
    "overlap_straight_line",
    "pipeline_loop",
    "PASS_REGISTRY",
    "ModulePass",
    "PassManager",
    "PassStatistics",
    "register_pass",
    "report_scopes",
    "PIPELINES",
    "baseline_pipeline",
    "none_pipeline",
    "volatile_baseline_pipeline",
    "licm_pipeline",
    "unroll_pipeline",
    "dedup_pipeline",
    "full_pipeline",
    "overlap_pipeline",
    "unroll_full_pipeline",
    "pipeline_by_name",
    "StateTracer",
    "TraceStatesPass",
    "UnrollPass",
]
