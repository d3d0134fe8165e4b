"""Guaranteed-bounds analysis: the Model facade, the GuBPI engine and its analysers.

The recommended entry point is :class:`Model` (see
:mod:`repro.analysis.model`), which caches the symbolic phase per
execution-limits configuration and serves bounds, posterior queries and
histograms from it.  Path-analysis strategies are pluggable through the
registry in :mod:`repro.analysis.registry`; ``"linear"`` and ``"box"`` ship
built in.
"""

from .box_analyzer import BoxPathAnalyzer, analyze_path_boxes, analyze_table_boxes, split_domain
from .config import (
    EXECUTOR_KINDS,
    REFINE_KINDS,
    TRANSPORT_KINDS,
    AnalysisOptions,
)
from .engine import (
    AnalysisReport,
    DenotationBounds,
    PathContribution,
    QueryBounds,
    analyze_execution,
    analyze_path_stream,
    histogram_buckets,
    normalised_query,
    reduce_contributions,
)
from .histogram import BucketBound, HistogramBounds, ValidationReport
from .linear_analyzer import (
    LinearPathAnalyzer,
    analyze_path_linear,
    analyze_table_linear,
    linear_analysis_applicable,
)
from .model import CompiledProgram, Model
from .refine import RefinementScheduler, level_options, refine_execution
from .parallel import (
    ParallelAnalysisExecutor,
    close_shared_executors,
    partition_paths,
    shared_executor,
)
from .transport import (
    ArenaSegment,
    TableJob,
    create_arena_segment,
    shared_memory_available,
)
from .registry import (
    AnalyzerSpec,
    PathAnalyzer,
    UnknownAnalyzerError,
    analyzer_specs,
    available_analyzers,
    ensure_analyzers_registered,
    get_analyzer,
    register_analyzer,
    resolve_analyzers,
    unregister_analyzer,
)

__all__ = [
    "Model",
    "CompiledProgram",
    "AnalysisOptions",
    "EXECUTOR_KINDS",
    "REFINE_KINDS",
    "TRANSPORT_KINDS",
    "RefinementScheduler",
    "refine_execution",
    "level_options",
    "ArenaSegment",
    "TableJob",
    "create_arena_segment",
    "shared_memory_available",
    "AnalysisReport",
    "DenotationBounds",
    "QueryBounds",
    "PathContribution",
    "ParallelAnalysisExecutor",
    "partition_paths",
    "shared_executor",
    "close_shared_executors",
    "analyze_execution",
    "analyze_path_stream",
    "reduce_contributions",
    "normalised_query",
    "histogram_buckets",
    "BucketBound",
    "HistogramBounds",
    "ValidationReport",
    "PathAnalyzer",
    "UnknownAnalyzerError",
    "AnalyzerSpec",
    "analyzer_specs",
    "ensure_analyzers_registered",
    "register_analyzer",
    "unregister_analyzer",
    "get_analyzer",
    "available_analyzers",
    "resolve_analyzers",
    "BoxPathAnalyzer",
    "LinearPathAnalyzer",
    "analyze_path_boxes",
    "analyze_path_linear",
    "analyze_table_boxes",
    "analyze_table_linear",
    "linear_analysis_applicable",
    "split_domain",
]
