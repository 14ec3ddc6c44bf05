"""Shared fixtures: bundled data files, the toy corpus, and corpus builders."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from citerank.cli import load_metric_file
from citerank.corpus import Corpus, Journal, journal_positions, load_corpus

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TOY_DIR = DATA_DIR / "toy"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def toy_paths() -> tuple[Path, Path]:
    return TOY_DIR / "journals.csv", TOY_DIR / "citations.csv"


@pytest.fixture(scope="session")
def toy_corpus() -> Corpus:
    return load_corpus(TOY_DIR / "journals.csv", TOY_DIR / "citations.csv")


@pytest.fixture(scope="session")
def top20_eigen():
    return load_metric_file(DATA_DIR / "top20_medicine2006_eigenfactor.json")


@pytest.fixture(scope="session")
def top20_citations():
    return load_metric_file(DATA_DIR / "top20_medicine2006_citations.json")


@pytest.fixture(scope="session")
def top20_impact():
    return load_metric_file(DATA_DIR / "top20_medicine2006_impact_factor.json")


@pytest.fixture(scope="session")
def published_ranks() -> dict[str, dict[str, int]]:
    with open(DATA_DIR / "top20_medicine2006_ranks.json", encoding="utf-8") as f:
        return json.load(f)["ranks"]


def citation_dict(corpus: Corpus) -> dict[tuple[str, str, int, int], int]:
    """The corpus's merged records as {(citing, cited, citing_year, cited_year): count}."""
    ids = corpus.ids
    return {
        (ids[citing], ids[cited], citing_year, cited_year): count
        for citing, cited, citing_year, cited_year, count in zip(
            corpus.citing.tolist(),
            corpus.cited.tolist(),
            corpus.citing_year.tolist(),
            corpus.cited_year.tolist(),
            corpus.count.tolist(),
        )
    }


def citation_rows(corpus: Corpus) -> list[tuple[str, str, int, int, int]]:
    """The corpus's merged records as (citing, cited, citing_year, cited_year, count) rows."""
    return [key + (count,) for key, count in citation_dict(corpus).items()]


def corpus_from(journals, rows) -> Corpus:
    """Corpus from Journal objects and (citing, cited, citing_year, cited_year,
    count) rows keyed by journal id; rows with equal keys merge."""
    by_id = {journal.id: journal for journal in journals}
    ids = np.array(sorted(by_id), dtype=str)
    citing, cited, citing_year, cited_year, count = list(zip(*rows)) or [()] * 5
    return Corpus(
        by_id,
        journal_positions(ids, np.array(citing, dtype=str)),
        journal_positions(ids, np.array(cited, dtype=str)),
        citing_year,
        cited_year,
        count,
    )


def build_corpus(article_rows, citation_rows) -> Corpus:
    """Compact corpus builder for tests.

    article_rows: (id, {year: articles}) pairs; citation_rows:
    (citing, cited, citing_year, cited_year, count) tuples.
    """
    journals = [
        Journal(id=jid, name=f"Journal {jid}", articles_by_year=dict(years))
        for jid, years in article_rows
    ]
    return corpus_from(journals, citation_rows)


def seeded_corpus(seed: int, n: int | None = None, min_articles: int = 1) -> Corpus:
    """Random valid corpus from one numpy seed; used by the oracle sweeps.

    Sizes 2..10 unless `n` is given.  Covers years 2004..2006; article
    counts start at `min_articles` per year (keep it >= 1 wherever an
    article-share vector must exist).
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 11))
    article_rows = []
    for i in range(n):
        years = {int(y): int(rng.integers(min_articles, 40)) for y in (2004, 2005, 2006)}
        article_rows.append((f"J{i}", years))
    citation_rows = []
    for _ in range(int(rng.integers(n, 4 * n + 1))):
        citing = f"J{int(rng.integers(n))}"
        cited = f"J{int(rng.integers(n))}"
        citing_year = int(rng.integers(2004, 2007))
        cited_year = int(rng.integers(2004, citing_year + 1))
        count = int(rng.integers(1, 50))
        citation_rows.append((citing, cited, citing_year, cited_year, count))
    return build_corpus(article_rows, citation_rows)
