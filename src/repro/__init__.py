"""D-Tucker: fast and memory-efficient Tucker decomposition for dense tensors.

A from-scratch Python reproduction of Jang & Kang, *D-Tucker* (ICDE 2020):
the three-phase solver (:class:`DTucker`), its reusable compressed slice
representation (:class:`SliceSVD`), a streaming extension
(:class:`StreamingDTucker`), six baseline Tucker solvers, dataset
simulators, and the full experiment harness regenerating the paper's
evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import DTucker
>>> x = np.random.default_rng(0).standard_normal((60, 50, 40))
>>> model = DTucker(ranks=(5, 5, 5), seed=0).fit(x)
>>> model.result_.ranks
(5, 5, 5)

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from .baselines import (
    BaselineFit,
    hosvd,
    mach_tucker,
    rtd,
    st_hosvd,
    tucker_als,
    tucker_ts,
    tucker_ttmts,
)
from .core import (
    BlockSource,
    DenseSource,
    DTucker,
    DTuckerConfig,
    FitLike,
    FitPipeline,
    NpySource,
    PipelineFit,
    SliceSource,
    SliceSVD,
    SparseSource,
    StreamingDTucker,
    TuckerResult,
    als_sweeps,
    compress,
    compress_source,
    decompose,
    estimate_error,
    initialize,
    suggest_ranks,
)
from .engine import (
    ExecutionBackend,
    PhaseTrace,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    format_traces,
)
from .analysis import (
    AnomalyReport,
    detect_anomalies,
    factor_cosine_similarity,
    nearest_neighbors,
    residual_scores,
)
from .core.sparse_dtucker import compress_sparse, sparse_dtucker
from .diagnostics import TuckerDiagnostics, check_tucker
from .distributed import ShardCoordinator, ShardedSource, distributed_als_sweeps
from .sparse import SparseTensor
from .store import ModelStore, RangeIndex, ServedModel, ServingStats
from .exceptions import (
    BackendError,
    ConvergenceError,
    DatasetError,
    NotFittedError,
    RankError,
    ReproError,
    ShapeError,
    StoreError,
    StoreFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "BaselineFit",
    "hosvd",
    "mach_tucker",
    "rtd",
    "st_hosvd",
    "tucker_als",
    "tucker_ts",
    "tucker_ttmts",
    "DTucker",
    "DTuckerConfig",
    "FitLike",
    "ExecutionBackend",
    "PhaseTrace",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "format_traces",
    "SliceSVD",
    "SliceSource",
    "DenseSource",
    "NpySource",
    "SparseSource",
    "BlockSource",
    "ShardedSource",
    "ShardCoordinator",
    "distributed_als_sweeps",
    "FitPipeline",
    "PipelineFit",
    "StreamingDTucker",
    "TuckerResult",
    "als_sweeps",
    "compress",
    "compress_source",
    "decompose",
    "estimate_error",
    "initialize",
    "suggest_ranks",
    "ModelStore",
    "RangeIndex",
    "ServedModel",
    "ServingStats",
    "SparseTensor",
    "compress_sparse",
    "sparse_dtucker",
    "AnomalyReport",
    "detect_anomalies",
    "factor_cosine_similarity",
    "nearest_neighbors",
    "residual_scores",
    "TuckerDiagnostics",
    "check_tucker",
    "BackendError",
    "ConvergenceError",
    "DatasetError",
    "NotFittedError",
    "RankError",
    "ReproError",
    "ShapeError",
    "StoreError",
    "StoreFormatError",
    "__version__",
]
