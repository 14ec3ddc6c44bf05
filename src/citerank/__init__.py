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
    density_ellipse,
    pearson_log,
    rank,
    rank_gaps,
    spearman,
)
from .corpus import (
    CitationWindow,
    Corpus,
    Journal,
    filter_to_scored,
    load_corpus,
    parse_corpus,
    write_corpus,
)
from .eigenrank import (
    ArticleVector,
    CrossCitationMatrix,
    EigenSettings,
    build_matrix,
    dense_oracle_scores,
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
    "ArticleVector",
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
    "Journal",
    "MatrixBuildError",
    "MetricError",
    "MetricVector",
    "RankTable",
    "build_matrix",
    "compare_metrics",
    "concentration",
    "dense_oracle_scores",
    "density_ellipse",
    "eigen_scores",
    "filter_to_scored",
    "generate",
    "impact_factor",
    "load_corpus",
    "parse_corpus",
    "pearson_log",
    "rank",
    "rank_gaps",
    "spearman",
    "total_citations",
    "write_corpus",
]
