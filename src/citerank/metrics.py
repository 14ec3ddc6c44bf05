"""Unweighted journal scores: total citation counts and the Impact Factor."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .corpus import _CHUNK_BYTES, CitationWindow, Corpus, strictly_ascending
from .errors import MetricError

METRIC_NAMES = ("total_citations", "impact_factor", "eigenfactor", "custom")
# What ends a field or a row of the TSV outputs, which hold one id per row.
_TSV_BREAKS = re.compile("[\t\r\n]")


@dataclass(frozen=True, eq=False)
class MetricVector:
    """A named non-negative score per journal id.

    `ids` is sorted and unique, with no TAB, CR or LF in any id, and
    `values` is the read-only float64 array of their scores.  `provenance`
    records the window and parameters the scores came from, plus any
    journals omitted during computation.
    """

    metric_name: str
    ids: tuple[str, ...]
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if self.metric_name not in METRIC_NAMES:
            raise MetricError(
                f"metric_name must be one of {METRIC_NAMES}, got {self.metric_name!r}"
            )
        ids = tuple(self.ids)
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (len(ids),):
            raise MetricError(f"{len(ids)} ids need as many scores, got shape {values.shape}")
        if not strictly_ascending(ids):
            raise MetricError("ids must be sorted and unique")
        if _TSV_BREAKS.search("".join(ids)):
            bad = next(i for i in ids if _TSV_BREAKS.search(i))
            raise MetricError(f"id {bad!r} holds a TAB, CR or LF, which would split its TSV row")
        bad = ~(np.isfinite(values) & (values >= 0.0))
        if bad.any():
            i = int(bad.argmax())
            raise MetricError(
                f"score for {ids[i]!r} must be finite and >= 0, got {values[i].item()!r}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_scores(
        cls, metric_name: str, scores: Mapping[str, float], provenance: str = ""
    ) -> "MetricVector":
        """The vector of an {id: score} mapping."""
        ids, values = zip(*sorted(scores.items())) if scores else ((), ())
        return cls(metric_name, ids, values, provenance)

    @cached_property
    def scores(self) -> Mapping[str, float]:
        """Read-only {id: score} view, in id order."""
        return MappingProxyType(dict(zip(self.ids, self.values.tolist())))

    def __len__(self) -> int:
        return len(self.ids)


def _received(cited: np.ndarray, counts: np.ndarray, n_journals: int) -> np.ndarray:
    """Each journal's sum of the counts of the records citing it, as float64.

    The sum is taken a block of records at a time, so the intp and float64
    copies `np.bincount` makes of its input take `_CHUNK_BYTES`, not 16
    bytes per record.  Every partial sum is an integer of at most 2**53, so
    each is exact, and the totals do not depend on the blocks.
    """
    totals = np.zeros(n_journals)
    step = _CHUNK_BYTES // 16
    for start in range(0, len(cited), step):
        totals += np.bincount(cited[start:start + step], weights=counts[start:start + step],
                              minlength=n_journals)
    return totals


def total_citations(corpus: Corpus, window: CitationWindow = CitationWindow()) -> MetricVector:
    """Sum of citation counts received by each journal within the window.

    The default window counts every record, self-citations included, as
    JCR's total cites do.  Journals with no in-edges score 0.
    """
    _, cited, counts = corpus.select(window)
    totals = _received(cited, counts, corpus.n_journals)
    provenance = (f"total_citations window=[{window.describe()}] "
                  f"include_self={window.include_self}")
    return MetricVector("total_citations", corpus.ids, totals, provenance)


def impact_factor(corpus: Corpus, census_year: int) -> MetricVector:
    """Citations in `census_year` to the two preceding publication years,
    divided by the articles published in those two years.

    Journals whose two-year article count is zero are omitted from the
    vector and listed in the provenance string; a zero numerator over a
    positive denominator scores 0.0.
    """
    if census_year is None:
        raise MetricError("impact factor needs a census year, got None")
    span = corpus.year_range()
    if span is None:
        raise MetricError("corpus carries no year data; cannot place a census year")
    lo, hi = span
    if not lo <= census_year <= hi:
        raise MetricError(
            f"census year {census_year} outside the corpus year range {lo}..{hi}"
        )
    window = CitationWindow(census_year, span=2)
    _, cited, counts = corpus.select(window)
    numerators = _received(cited, counts, corpus.n_journals)
    denominators = corpus.articles_in(window)
    first, last = window.cited_years
    scored = denominators > 0
    ids = np.array(corpus.ids, dtype=object)
    provenance = (
        f"impact_factor census_year={census_year} "
        f"cited_years={first}..{last} "
        f"omitted_zero_denominator=[{','.join(ids[~scored].tolist())}]"
    )
    return MetricVector(
        "impact_factor", ids[scored].tolist(), numerators[scored] / denominators[scored], provenance
    )
