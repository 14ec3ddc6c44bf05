"""Citation-network ranking toolkit.

Computes raw citation counts, Impact Factors, and iteratively weighted
influence scores over journal citation networks, and compares the
resulting rankings: Spearman and log-Pearson correlations, top-k
concentration shares, consecutive-rank gaps, and bivariate density
ellipses for plot-ready output.
"""

__version__ = "0.1.0"

from .compare import (
    ComparisonReport,
    EllipseParams,
    RankTable,
    compare_metrics,
    concentration,
    rank,
    rank_gaps,
    spearman,
)
from .corpus import (
    CitationWindow,
    Corpus,
    load_corpus,
    write_corpus,
)
from .eigenrank import (
    CrossCitationMatrix,
    EigenSettings,
    build_matrix,
    eigen_scores,
)
from .errors import (
    CiteRankError,
    ComparisonError,
    ConvergenceError,
    CorpusError,
    MatrixBuildError,
    MetricError,
)
from .metrics import MetricVector, impact_factor, total_citations
from .syngen import GenSettings, generate

__all__ = [
    "CitationWindow",
    "CiteRankError",
    "ComparisonError",
    "ComparisonReport",
    "ConvergenceError",
    "Corpus",
    "CorpusError",
    "CrossCitationMatrix",
    "EigenSettings",
    "EllipseParams",
    "GenSettings",
    "MatrixBuildError",
    "MetricError",
    "MetricVector",
    "RankTable",
    "build_matrix",
    "compare_metrics",
    "concentration",
    "eigen_scores",
    "generate",
    "impact_factor",
    "load_corpus",
    "rank",
    "rank_gaps",
    "spearman",
    "total_citations",
    "write_corpus",
]
