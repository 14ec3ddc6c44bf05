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

import math
from dataclasses import dataclass

import numpy as np

from .corpus import _YEARS, Corpus, _handed_over

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
            raise ValueError(f"years must not end before they start, got {self.years}")
        for name in ("skew_exponent", "mean_out_citations"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        # Size caps: the tables hold one article count per journal and year,
        # and about mean_out_citations citation events per journal.
        n = self.n_journals
        for what, size, cap in (("n_journals", n, 10**6),
                                ("n_journals times the years", n * (last - first + 1), 10**7),
                                ("n_journals times mean_out_citations",
                                 n * self.mean_out_citations, 10**7)):
            if size > cap:
                raise ValueError(f"{what} must be <= {cap}, got {size}")
        if first < _YEARS.min or last > _YEARS.max:
            raise ValueError(f"years must be within the int32 range, got {self.years}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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

    # A large exponent, or a u of 0, takes u ** -skew or the sum past the float range.
    with np.errstate(over="ignore", divide="ignore"):
        attractiveness = rng.random(n) ** (-settings.skew_exponent)
        weight = attractiveness.sum()
    if not np.isfinite(weight):
        raise ValueError(
            f"skew_exponent {settings.skew_exponent} overflows the journals' attractiveness"
        )
    articles = 1 + rng.poisson(_ARTICLE_MEAN - 1.0, size=(n, n_years))
    out_events = rng.poisson(settings.mean_out_citations, size=n)

    total = int(out_events.sum())
    # Every draw is int64, whose stream an int32 draw would change; positions
    # and years are then cast to the Corpus's int32, each once.
    citing_idx = np.repeat(np.arange(n, dtype=np.int32), out_events)
    cited_idx = rng.choice(n, size=total, p=attractiveness / weight).astype(np.int32)
    citing_year = rng.integers(first, last + 1, size=total)
    cited_year = rng.integers(first, citing_year + 1).astype(np.int32)
    citing_year = citing_year.astype(np.int32)

    # One article row per (journal, year) and one event per record row; the
    # Corpus sorts the article rows and merges events that share a key.
    # Journal i's id, J000000 to J999999, sorts at index i.  Nothing else holds
    # these arrays, so they are handed over to the Corpus, not copied.
    return _handed_over(
        tuple(f"J{i:06d}" for i in range(n)),
        tuple(f"Journal {i:06d}" for i in range(n)),
        np.repeat(np.arange(n, dtype=np.int32), n_years),
        np.tile(np.arange(first, last + 1, dtype=np.int32), n),
        articles.ravel(),
        citing_idx,
        cited_idx,
        citing_year,
        cited_year,
        np.ones(total, dtype=np.int64),
    )
