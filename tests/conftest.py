"""Shared fixtures: bundled data files, the toy corpus, and corpus builders."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from citerank.cli import load_metric_file
from citerank.compare import RankTable
from citerank.corpus import ARTICLE_COLUMNS, COLUMNS, Corpus, journal_positions, load_corpus

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TOY_DIR = DATA_DIR / "toy"
SCRIPTS_DIR = DATA_DIR.parent / "scripts"


def load_script(name: str):
    """The module of a script in scripts/, loaded from its file."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def corpus_fields(corpus: Corpus) -> tuple:
    """The corpus's ids, names and columns, the columns as lists."""
    columns = (getattr(corpus, name).tolist() for name in ARTICLE_COLUMNS + COLUMNS)
    return corpus.ids, corpus.names, *columns


def same_corpus(a: Corpus, b: Corpus) -> bool:
    """Whether the two corpora hold the same journals, article rows and records."""
    return corpus_fields(a) == corpus_fields(b)


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


class JournalRow(NamedTuple):
    """One journal as the tests build and inspect it."""

    id: str
    name: str
    articles_by_year: dict[int, int] = {}


def journal_dict(corpus: Corpus) -> dict[str, JournalRow]:
    """The corpus's journals as {id: JournalRow}, in id order."""
    journals = {jid: JournalRow(jid, name, {}) for jid, name in zip(corpus.ids, corpus.names)}
    for journal, year, count in zip(
        corpus.article_journal.tolist(), corpus.article_year.tolist(), corpus.article_count.tolist()
    ):
        journals[corpus.ids[journal]].articles_by_year[year] = count
    return journals


def corpus_from(journals, rows) -> Corpus:
    """Corpus from (id, name, {year: articles}) journals and (citing, cited,
    citing_year, cited_year, count) rows keyed by journal id; rows with equal
    keys merge."""
    journals = sorted(JournalRow(*journal) for journal in journals)
    ids = np.array([journal.id for journal in journals], dtype=str)
    articles = [
        (i, year, count)
        for i, journal in enumerate(journals)
        for year, count in journal.articles_by_year.items()
    ]
    citing, cited, citing_year, cited_year, count = list(zip(*rows)) or [()] * 5
    return Corpus(
        tuple(ids.tolist()),
        tuple(journal.name for journal in journals),
        *(list(column) for column in zip(*articles)) if articles else ([], [], []),
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
    journals = [JournalRow(jid, f"Journal {jid}", dict(years)) for jid, years in article_rows]
    return corpus_from(journals, citation_rows)


class RankRow(NamedTuple):
    journal: str
    score: float
    rank: int | float


def rank_rows(table: RankTable) -> tuple[RankRow, ...]:
    """The table's rows in rank order."""
    return tuple(map(RankRow, table.journals, table.scores.tolist(), table.ranks.tolist()))


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
