"""Unweighted journal scores: total citation counts and the Impact Factor."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CitationWindow, Corpus
from .errors import MetricError

METRIC_NAMES = ("total_citations", "impact_factor", "eigenfactor", "custom")


@dataclass(frozen=True)
class MetricVector:
    """A named non-negative score per journal id.

    `provenance` records the window and parameters the scores came from,
    plus any journals omitted during computation.
    """

    metric_name: str
    scores: dict[str, float]
    provenance: str = ""

    def __post_init__(self):
        if self.metric_name not in METRIC_NAMES:
            raise MetricError(
                f"metric_name must be one of {METRIC_NAMES}, got {self.metric_name!r}"
            )
        for jid, value in self.scores.items():
            if not math.isfinite(value) or value < 0:
                raise MetricError(
                    f"score for {jid!r} must be finite and >= 0, got {value!r}"
                )

    def __len__(self) -> int:
        return len(self.scores)


def total_citations(
    corpus: Corpus,
    window: CitationWindow | None = None,
    include_self: bool = True,
) -> MetricVector:
    """Sum of citation counts received by each journal within the window.

    Defaults to the all-years window (every record counts).  Journals with
    no in-edges score 0.  Self-citations are included unless
    `include_self` is False, matching JCR's total-cites convention.
    """
    if window is None:
        window = CitationWindow.all_years()
    _, cited, counts = corpus.select(window, include_self)
    totals = np.bincount(cited, weights=counts, minlength=corpus.n_journals)
    scores = {jid: float(totals[i]) for i, jid in enumerate(corpus.ids)}
    provenance = f"total_citations window=[{window.describe()}] include_self={include_self}"
    return MetricVector("total_citations", scores, provenance)


def impact_factor(corpus: Corpus, census_year: int) -> MetricVector:
    """Citations in `census_year` to the two preceding publication years,
    divided by the articles published in those two years.

    Journals whose two-year article count is zero are omitted from the
    vector and listed in the provenance string; a zero numerator over a
    positive denominator scores 0.0.
    """
    span = corpus.year_range()
    if span is None:
        raise MetricError("corpus carries no year data; cannot place a census year")
    lo, hi = span
    if not lo <= census_year <= hi:
        raise MetricError(
            f"census year {census_year} outside the corpus year range {lo}..{hi}"
        )
    _, cited, counts = corpus.select(CitationWindow.cited(census_year, span=2), include_self=True)
    numerators = np.bincount(cited, weights=counts, minlength=corpus.n_journals)
    scores: dict[str, float] = {}
    omitted: list[str] = []
    for i, jid in enumerate(corpus.ids):
        journal = corpus.journals[jid]
        denominator = journal.articles_by_year.get(
            census_year - 1, 0
        ) + journal.articles_by_year.get(census_year - 2, 0)
        if denominator == 0:
            omitted.append(jid)
        else:
            scores[jid] = float(numerators[i]) / denominator
    provenance = (
        f"impact_factor census_year={census_year} "
        f"cited_years={census_year - 2}..{census_year - 1} "
        f"omitted_zero_denominator=[{','.join(omitted)}]"
    )
    return MetricVector("impact_factor", scores, provenance)
