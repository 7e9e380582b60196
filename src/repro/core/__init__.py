"""The paper's primary contribution: the NUMA-optimized hybrid BFS.

Public surface:

* :class:`BFSConfig` / :func:`paper_variants` — the optimization stack;
* :class:`BFSEngine` / :class:`BFSResult` — one BFS run;
* :func:`run_graph500` — the Graph500 evaluation protocol;
* :class:`Bitmap` / :class:`SummaryBitmap` — the frontier structures;
* :func:`validate_parent_tree` — the five Graph500 checks;
* :class:`PreparedGraph` / :class:`PreparedGraphCache` — immutable
  partition state shared across queries (the session API's substrate);
* :class:`MultiSourceEngine` / :func:`run_bfs_batch` — batched
  multi-source BFS (up to 64 sources per traversal pass).
"""

from repro.core.api import ConfigComparison, compare_configs, optimization_stack, run_bfs
from repro.core.bitmap import Bitmap, SummaryBitmap, summary_words_for
from repro.core.config import (
    BFSConfig,
    CommConfig,
    SharingVariant,
    TraversalMode,
    paper_variants,
)
from repro.core.counts import Direction, LevelCounts, RunCounts
from repro.core.engine import BFSEngine, BFSResult
from repro.core.hybrid import DirectionPolicy, FrontierStats
from repro.core.multisource import MultiSourceEngine, run_bfs_batch
from repro.core.prepared import (
    PreparedGraph,
    PreparedGraphCache,
    default_prepared_cache,
    graph_digest,
    reset_default_prepared_cache,
)
from repro.core.kernels import (
    ActiveSetBackend,
    KernelBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.teps import Graph500Result, run_graph500
from repro.core.timing import (
    BfsTiming,
    CostConstants,
    PhaseBreakdown,
    StructureSizes,
    assemble,
)
from repro.core.trace import gantt, to_csv, to_json, trace_rows
from repro.core.validate import compute_levels, validate_parent_tree

__all__ = [
    "ConfigComparison",
    "compare_configs",
    "optimization_stack",
    "run_bfs",
    "Bitmap",
    "SummaryBitmap",
    "summary_words_for",
    "BFSConfig",
    "CommConfig",
    "SharingVariant",
    "TraversalMode",
    "paper_variants",
    "Direction",
    "LevelCounts",
    "RunCounts",
    "BFSEngine",
    "BFSResult",
    "MultiSourceEngine",
    "run_bfs_batch",
    "PreparedGraph",
    "PreparedGraphCache",
    "graph_digest",
    "default_prepared_cache",
    "reset_default_prepared_cache",
    "DirectionPolicy",
    "FrontierStats",
    "ActiveSetBackend",
    "KernelBackend",
    "ReferenceBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "Graph500Result",
    "run_graph500",
    "BfsTiming",
    "CostConstants",
    "PhaseBreakdown",
    "StructureSizes",
    "assemble",
    "compute_levels",
    "validate_parent_tree",
    "gantt",
    "to_csv",
    "to_json",
    "trace_rows",
]
