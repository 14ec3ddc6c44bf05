"""Iteratively weighted journal influence via damped power iteration.

The cross-citation matrix H has entry (i, j) = share of citing journal j's
citations that go to cited journal i (columns sum to 1; a journal that
cites nothing in the window is a dangling column and stays all-zero).
The influence vector p solves the damped fixed point

    p = alpha * (H p + (dangling mass of p) * a) + (1 - alpha) * a

where `a` is the article-share vector (each journal's fraction of articles
published in the window).  Dangling mass and teleportation are both
distributed by article share, so a big journal absorbs more of the
redistributed weight.  Final scores are percentages of weighted citation
flow received, with the teleportation term excluded from the last pass:

    score = 100 * (H p + (dangling mass) * a) / sum(...)

A dense brute-force oracle (`dense_oracle_scores`) materializes the full
damped transition matrix and runs a fixed 10,000 multiplications; it exists
to cross-check the sparse path on desk-scale instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import CitationWindow, Corpus
from .errors import ConvergenceError, MatrixBuildError
from .metrics import MetricVector

DENSE_ORACLE_MAX_ORDER = 64
DENSE_ORACLE_MULTIPLICATIONS = 10_000


@dataclass(frozen=True)
class EigenSettings:
    """Damping, convergence, and self-citation policy for the iteration."""

    alpha: float = 0.85
    tolerance: float = 1e-12
    max_iterations: int = 1000
    exclude_self: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ArticleVector:
    """Each journal's share of the articles published in the window; sums to 1."""

    weights: dict[str, float]

    def __post_init__(self):
        total = float(np.sum(np.fromiter(self.weights.values(), dtype=float, count=len(self.weights))))
        if self.weights and abs(total - 1.0) > 1e-12:
            raise MatrixBuildError(f"article shares must sum to 1, got {total!r}")
        for jid, w in self.weights.items():
            if not 0.0 <= w <= 1.0:
                raise MatrixBuildError(f"article share for {jid!r} out of [0, 1]: {w!r}")

    def aligned(self, ids: tuple[str, ...]) -> np.ndarray:
        if set(ids) != set(self.weights):
            raise MatrixBuildError("article vector and matrix index journals differ")
        return np.array([self.weights[jid] for jid in ids], dtype=float)


@dataclass(frozen=True, eq=False)
class CrossCitationMatrix:
    """Column-normalized sparse citation matrix plus its journal index."""

    journal_ids: tuple[str, ...]
    matrix: sp.csc_matrix
    dangling: np.ndarray
    exclude_self: bool
    window_label: str = ""

    @property
    def order(self) -> int:
        return len(self.journal_ids)


def build_matrix(
    corpus: Corpus,
    window: CitationWindow | None = None,
    exclude_self: bool = True,
) -> tuple[CrossCitationMatrix, ArticleVector]:
    """Form the normalized cross-citation matrix and article-share vector.

    Raw weight (i, j) sums counts from citing journal j to cited journal i
    over the window; each column with any weight is scaled to sum to 1,
    zero columns are recorded as dangling.  Article shares come from the
    window's publication years and must not be all zero.
    """
    if window is None:
        window = CitationWindow.all_years()
    if corpus.n_journals < 1:
        raise MatrixBuildError("corpus has no journals")
    ids = corpus.ids
    n = len(ids)

    citing, cited, counts = corpus.select(window, include_self=not exclude_self)

    matrix = sp.coo_matrix(
        (counts.astype(float), (cited, citing)), shape=(n, n)
    ).tocsc()  # duplicate (i, j) entries are summed by the conversion
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    dangling = column_sums == 0.0
    if matrix.nnz:
        nnz_col = np.repeat(np.arange(n), np.diff(matrix.indptr))
        matrix.data /= column_sums[nnz_col]

    years = window.publication_years(corpus)
    raw = np.array([corpus.journals[jid].articles_in(years) for jid in ids], dtype=float)
    total_articles = raw.sum()
    if total_articles <= 0:
        raise MatrixBuildError(
            "no journal has a positive article count in the window; "
            "cannot form the article-share vector"
        )
    shares = raw / total_articles
    articles = ArticleVector({jid: float(shares[i]) for i, jid in enumerate(ids)})

    xcite = CrossCitationMatrix(
        journal_ids=ids,
        matrix=matrix,
        dangling=dangling,
        exclude_self=exclude_self,
        window_label=window.describe(),
    )
    return xcite, articles


def _normalized_flow(
    matrix: CrossCitationMatrix, p: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Final scoring pass: weighted in-citation share, teleportation excluded."""
    flow = matrix.matrix @ p + p[matrix.dangling].sum() * a
    return 100.0 * flow / flow.sum()


def eigen_scores(
    matrix: CrossCitationMatrix,
    articles: ArticleVector,
    settings: EigenSettings = EigenSettings(),
) -> MetricVector:
    """Damped power iteration from the article vector until the L1 residual
    drops below tolerance; deterministic for fixed inputs.

    Raises ConvergenceError (with the final residual) if max_iterations
    pass without convergence.
    """
    a = articles.aligned(matrix.journal_ids)
    H = matrix.matrix
    dangling = matrix.dangling
    alpha = settings.alpha
    p = a.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        p_next = alpha * (H @ p + p[dangling].sum() * a) + (1.0 - alpha) * a
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < settings.tolerance:
            break
    else:
        raise ConvergenceError(settings.max_iterations, residual, settings.tolerance)

    scores = _normalized_flow(matrix, p, a)
    provenance = (
        f"eigenfactor alpha={settings.alpha} tolerance={settings.tolerance} "
        f"iterations={iterations} exclude_self={matrix.exclude_self} "
        f"window=[{matrix.window_label}]"
    )
    return MetricVector(
        "eigenfactor",
        {jid: float(scores[i]) for i, jid in enumerate(matrix.journal_ids)},
        provenance,
    )


def dense_oracle_scores(
    matrix: CrossCitationMatrix,
    articles: ArticleVector,
    settings: EigenSettings = EigenSettings(),
) -> MetricVector:
    """Brute-force reference: explicit dense damped matrix, 10,000
    multiplications from the uniform vector, then the same scoring pass.

    Only for desk-scale checks (order <= 64); no sparse shortcuts.
    """
    n = matrix.order
    if n > DENSE_ORACLE_MAX_ORDER:
        raise MatrixBuildError(
            f"dense oracle limited to order <= {DENSE_ORACLE_MAX_ORDER}, got {n}"
        )
    a = articles.aligned(matrix.journal_ids)
    H = matrix.matrix.toarray()
    H[:, matrix.dangling] = a[:, None]
    P = settings.alpha * H + (1.0 - settings.alpha) * np.outer(a, np.ones(n))
    p = np.full(n, 1.0 / n)
    for _ in range(DENSE_ORACLE_MULTIPLICATIONS):
        p = P @ p
    flow = H @ p  # H already carries the dangling replacement
    scores = 100.0 * flow / flow.sum()
    provenance = (
        f"eigenfactor alpha={settings.alpha} dense reference "
        f"({DENSE_ORACLE_MULTIPLICATIONS} multiplications) "
        f"exclude_self={matrix.exclude_self} window=[{matrix.window_label}]"
    )
    return MetricVector(
        "eigenfactor",
        {jid: float(scores[i]) for i, jid in enumerate(matrix.journal_ids)},
        provenance,
    )
