"""Symbolic execution: symbolic values, linear forms, paths and the executor."""

from .execute import (
    ExecutionLimits,
    PathExplosionError,
    PathStream,
    StreamStats,
    SymbolicExecutionResult,
    SymbolicExecutor,
    stream_symbolic_paths,
    symbolic_paths,
)
from .arena import (
    ArenaFormatError,
    PathArena,
    PathTable,
    PathTableBuilder,
    encode_paths,
    estimate_arena_bytes,
)
from .intern import (
    fingerprint_term,
    intern_constraint,
    intern_expr,
    intern_path,
)
from .linear import LinearForm, ScoreDecomposition, decompose_score, extract_linear
from .paths import Relation, SymConstraint, SymbolicPath
from .value import (
    SAtom,
    SConst,
    SPrim,
    SVar,
    SymExpr,
    evaluate,
    evaluate_interval,
    evaluate_with_atoms,
    sample_variables,
    uses_variables_at_most_once,
)

__all__ = [
    "SymExpr",
    "SVar",
    "SConst",
    "SAtom",
    "SPrim",
    "evaluate",
    "evaluate_interval",
    "evaluate_with_atoms",
    "sample_variables",
    "uses_variables_at_most_once",
    "LinearForm",
    "extract_linear",
    "ScoreDecomposition",
    "decompose_score",
    "Relation",
    "SymConstraint",
    "SymbolicPath",
    "ExecutionLimits",
    "PathExplosionError",
    "PathStream",
    "StreamStats",
    "SymbolicExecutor",
    "SymbolicExecutionResult",
    "stream_symbolic_paths",
    "symbolic_paths",
    "fingerprint_term",
    "intern_constraint",
    "intern_expr",
    "intern_path",
    "ArenaFormatError",
    "PathArena",
    "PathTable",
    "PathTableBuilder",
    "encode_paths",
    "estimate_arena_bytes",
]
