"""D-Tucker core: the paper's primary contribution.

Public surface:

* :class:`DTucker` / :func:`decompose` — the three-phase solver,
* :class:`DTuckerConfig` — its hyper-parameters,
* :class:`TuckerResult` — the decomposition value object,
* :class:`SliceSVD` / :func:`compress` — the reusable compressed
  representation produced by the approximation phase,
* :class:`SliceSource` and its adapters (:class:`DenseSource`,
  :class:`NpySource`, :class:`SparseSource`, :class:`BlockSource`) with
  :func:`compress_source` — the pluggable data-source layer every entry
  point reads through,
* :class:`FitPipeline` — the single compress → initialize → iterate
  pipeline behind every fit path,
* :func:`initialize` / :func:`als_sweeps` — the individual phases, exposed
  for ablations and research use,
* :class:`StreamingDTucker` — the incremental (temporal-mode) extension,
* :class:`FitLike` — the protocol shared by :class:`TuckerResult` and
  :class:`~repro.baselines.BaselineFit`.
"""

from .config import DTuckerConfig
from .dtucker import DTucker, decompose
from .fit_pipeline import FitPipeline, PipelineFit
from .initialization import initialize, random_initialize
from .iteration import IterationResult, als_sweeps
from .protocol import FitLike
from .rank_selection import estimate_error, mode_spectra, suggest_ranks
from .result import TuckerResult
from .slice_svd import SliceSVD, compress
from .sources import (
    BlockSource,
    DenseSource,
    NpySource,
    SliceSource,
    SparseSource,
    compress_source,
)
from .streaming import StreamingDTucker

__all__ = [
    "DTuckerConfig",
    "FitLike",
    "DTucker",
    "decompose",
    "initialize",
    "random_initialize",
    "IterationResult",
    "als_sweeps",
    "estimate_error",
    "mode_spectra",
    "suggest_ranks",
    "TuckerResult",
    "SliceSVD",
    "compress",
    "SliceSource",
    "DenseSource",
    "NpySource",
    "SparseSource",
    "BlockSource",
    "compress_source",
    "FitPipeline",
    "PipelineFit",
    "StreamingDTucker",
]
