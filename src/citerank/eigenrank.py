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

H is kept as three aligned arrays, `rows` (cited), `columns` (citing) and
`weights`, in column-major order: by column, then by row, the order in which
`Corpus` sorts its records.  The product H p is one `np.bincount` over
`rows`, which adds into each entry of the result in that order.  That is the
order of a compressed-sparse-column product, so every product, and every
score, is the same to the last bit as one taken with `scipy.sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CitationWindow, Corpus
from .errors import ConvergenceError, MatrixBuildError
from .metrics import MetricVector


@dataclass(frozen=True)
class EigenSettings:
    """Damping and convergence settings for the iteration."""

    alpha: float = 0.85
    tolerance: float = 1e-12
    max_iterations: int = 1000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class CrossCitationMatrix:
    """Column-normalized sparse citation matrix plus its journal index.

    Entry k is H[rows[k], columns[k]] = weights[k]; the entries are sorted by
    (column, row) and no (row, column) pair repeats.
    """

    journal_ids: tuple[str, ...]
    rows: np.ndarray
    columns: np.ndarray
    weights: np.ndarray
    dangling: np.ndarray
    window: CitationWindow

    @property
    def order(self) -> int:
        return len(self.journal_ids)

    def times(self, p: np.ndarray) -> np.ndarray:
        """H @ p, summed into each entry in column order."""
        return np.bincount(self.rows, weights=self.weights * p[self.columns], minlength=self.order)


def build_matrix(
    corpus: Corpus, window: CitationWindow = CitationWindow(include_self=False)
) -> tuple[CrossCitationMatrix, np.ndarray]:
    """Form the normalized cross-citation matrix and the article-share vector,
    each journal's fraction of the window's articles in `journal_ids` order.

    Raw weight (i, j) sums counts from citing journal j to cited journal i
    over the window; each column with any weight is scaled to sum to 1,
    zero columns are recorded as dangling.  Article shares come from the
    window's publication years and must not be all zero.  The default window
    counts every record but self-citations.
    """
    if corpus.n_journals < 1:
        raise MatrixBuildError("corpus has no journals")
    ids = corpus.ids
    n = len(ids)

    # The records come sorted by (citing, cited, ...), so each (cited, citing)
    # entry's per-year counts are one run; integer sums stay exact below 2**53.
    citing, cited, counts = corpus.select(window)
    starts = np.flatnonzero(np.diff(citing, prepend=-1) | np.diff(cited, prepend=-1))
    columns, rows = citing[starts], cited[starts]
    weights = np.add.reduceat(counts, starts).astype(float)
    column_sums = np.bincount(columns, weights=weights, minlength=n)
    dangling = column_sums == 0.0
    weights /= column_sums[columns]

    raw = corpus.articles_in(window)
    total_articles = raw.sum()
    if total_articles <= 0:
        raise MatrixBuildError(
            "no journal has a positive article count in the window; "
            "cannot form the article-share vector"
        )
    xcite = CrossCitationMatrix(
        journal_ids=ids,
        rows=rows,
        columns=columns,
        weights=weights,
        dangling=dangling,
        window=window,
    )
    return xcite, raw / total_articles


def eigen_scores(
    matrix: CrossCitationMatrix,
    articles: np.ndarray,
    settings: EigenSettings = EigenSettings(),
) -> MetricVector:
    """Damped power iteration from the article vector until the L1 residual
    drops below tolerance; deterministic for fixed inputs.

    Raises ConvergenceError (with the final residual) if max_iterations
    pass without convergence.
    """
    a = articles
    dangling = matrix.dangling
    alpha = settings.alpha
    p = a.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        p_next = alpha * (matrix.times(p) + p[dangling].sum() * a) + (1.0 - alpha) * a
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < settings.tolerance:
            break
    else:
        raise ConvergenceError(settings.max_iterations, residual, settings.tolerance)

    # Final scoring pass: weighted in-citation share, teleportation excluded.
    flow = matrix.times(p) + p[dangling].sum() * a
    scores = 100.0 * flow / flow.sum()
    provenance = (
        f"eigenfactor alpha={settings.alpha} tolerance={settings.tolerance} "
        f"iterations={iterations} exclude_self={not matrix.window.include_self} "
        f"window=[{matrix.window.describe()}]"
    )
    return MetricVector("eigenfactor", matrix.journal_ids, scores, provenance)
