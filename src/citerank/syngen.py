"""Seeded synthetic corpora with heavy-tailed citation attractiveness.

Generation is deterministic per seed and stable across platforms: all
randomness comes from numpy's PCG64 generator (np.random.default_rng)
with a fixed draw order (attractiveness, articles, out-event counts,
cited choices, citing years, cited years).  Journal attractiveness is
u ** (-skew_exponent) for u ~ Uniform(0, 1) -- a Pareto tail whose
heaviness grows with the exponent -- and cited journals are sampled
proportional to it, so a small set of journals can absorb most citations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Journal

# Mean article count per (journal, year); counts are 1 + Poisson(mean - 1),
# so every journal publishes in every year.
_ARTICLE_MEAN = 30.0


@dataclass(frozen=True)
class GenSettings:
    n_journals: int
    years: tuple[int, int]  # inclusive (first, last)
    skew_exponent: float = 1.0
    mean_out_citations: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n_journals < 1:
            raise ValueError(f"n_journals must be >= 1, got {self.n_journals}")
        first, last = self.years
        if last < first:
            raise ValueError(f"empty year range {self.years}")
        if not self.skew_exponent > 0:
            raise ValueError(f"skew_exponent must be > 0, got {self.skew_exponent}")
        if not self.mean_out_citations > 0:
            raise ValueError(
                f"mean_out_citations must be > 0, got {self.mean_out_citations}"
            )


def generate(settings: GenSettings) -> Corpus:
    """Build a corpus whose citation distribution skews by `skew_exponent`.

    Each journal emits Poisson(mean_out_citations) citation events; each
    event picks a cited journal proportional to attractiveness, a citing
    year uniform over the range, and a cited publication year uniform in
    [first_year, citing_year].  Events sharing a (citing, cited, year,
    year) key merge into one record.
    """
    n = settings.n_journals
    first, last = settings.years
    n_years = last - first + 1
    rng = np.random.default_rng(settings.seed)

    attractiveness = rng.random(n) ** (-settings.skew_exponent)
    articles = 1 + rng.poisson(_ARTICLE_MEAN - 1.0, size=(n, n_years))
    out_events = rng.poisson(settings.mean_out_citations, size=n)

    total = int(out_events.sum())
    citing_idx = np.repeat(np.arange(n), out_events)
    cited_idx = rng.choice(n, size=total, p=attractiveness / attractiveness.sum())
    citing_year = rng.integers(first, last + 1, size=total)
    cited_year = rng.integers(first, citing_year + 1)

    ids = [f"J{i:06d}" for i in range(n)]
    journals = {
        ids[i]: Journal(
            id=ids[i],
            name=f"Journal {i:06d}",
            articles_by_year={first + k: int(articles[i, k]) for k in range(n_years)},
        )
        for i in range(n)
    }
    # Journal i sits at its id's place in sorted order; past J999999 the
    # wider ids sort out of index order.
    position = np.empty(n, dtype=np.int64)
    position[np.argsort(ids, kind="stable")] = np.arange(n)

    # One event per row; the Corpus merges events that share a key.
    return Corpus(
        journals,
        position[citing_idx],
        position[cited_idx],
        citing_year,
        cited_year,
        np.ones(total, dtype=np.int64),
    )
