"""Seeded synthetic corpus generation and its skew behavior."""

import io

import pytest

from citerank.compare import concentration
from citerank.corpus import dump_citations, dump_journals
from citerank.metrics import total_citations
from citerank.syngen import GenSettings, generate

from conftest import citation_dict


def serialized(corpus):
    jbuf, cbuf = io.StringIO(), io.StringIO()
    dump_journals(corpus, jbuf)
    dump_citations(corpus, cbuf)
    return jbuf.getvalue() + cbuf.getvalue()


def top_decile_share(corpus):
    counts = total_citations(corpus)
    k = max(1, corpus.n_journals // 10)
    return concentration(counts, [k])[0][1]


# ---------------------------------------------------------------------------
# determinism and validity


def test_same_seed_is_byte_identical():
    settings = GenSettings(n_journals=40, years=(2003, 2006), seed=123)
    assert serialized(generate(settings)) == serialized(generate(settings))


def test_different_seeds_differ():
    a = GenSettings(n_journals=40, years=(2003, 2006), seed=1)
    b = GenSettings(n_journals=40, years=(2003, 2006), seed=2)
    assert serialized(generate(a)) != serialized(generate(b))


def test_single_journal_cites_only_itself():
    corpus = generate(GenSettings(n_journals=1, years=(2005, 2006), seed=4))
    assert corpus.n_journals == 1
    (jid,) = corpus.journals
    for citing, cited, _, _ in citation_dict(corpus):
        assert citing == jid and cited == jid


def test_generated_corpus_is_valid():
    corpus = generate(GenSettings(n_journals=60, years=(2002, 2006), seed=8))
    first, last = 2002, 2006
    for journal in corpus.journals.values():
        assert sorted(journal.articles_by_year) == list(range(first, last + 1))
        assert all(n >= 1 for n in journal.articles_by_year.values())
    for (citing, cited, citing_year, cited_year), count in citation_dict(corpus).items():
        assert citing in corpus.journals and cited in corpus.journals
        assert first <= citing_year <= last
        assert first <= cited_year <= citing_year
        assert count >= 1


def test_single_year_range():
    corpus = generate(GenSettings(n_journals=5, years=(2006, 2006), seed=0))
    for (_, _, citing_year, cited_year) in citation_dict(corpus):
        assert citing_year == cited_year == 2006


def test_journal_count_scales():
    corpus = generate(GenSettings(n_journals=250, years=(2004, 2006), seed=9))
    assert corpus.n_journals == 250
    assert len(citation_dict(corpus)) > 0


# ---------------------------------------------------------------------------
# settings validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_journals": 0, "years": (2004, 2006)},
        {"n_journals": 5, "years": (2006, 2004)},
        {"n_journals": 5, "years": (2004, 2006), "skew_exponent": 0.0},
        {"n_journals": 5, "years": (2004, 2006), "skew_exponent": -1.0},
        {"n_journals": 5, "years": (2004, 2006), "mean_out_citations": 0.0},
    ],
)
def test_settings_validation(kwargs):
    with pytest.raises(ValueError):
        GenSettings(**kwargs)


# ---------------------------------------------------------------------------
# skew behavior


def test_strong_skew_concentrates_citations():
    settings = GenSettings(
        n_journals=200, years=(2002, 2006), skew_exponent=2.0,
        mean_out_citations=40.0, seed=7,
    )
    assert top_decile_share(generate(settings)) > 0.5


def test_top_decile_share_monotone_in_skew():
    """Mean share over a fixed seed panel never drops as the tail thickens."""
    exponents = [0.25, 0.5, 1.0, 2.0, 4.0]
    seeds = range(20)
    means = []
    for exponent in exponents:
        shares = [
            top_decile_share(
                generate(
                    GenSettings(
                        n_journals=100, years=(2002, 2006), skew_exponent=exponent,
                        mean_out_citations=30.0, seed=seed,
                    )
                )
            )
            for seed in seeds
        ]
        means.append(sum(shares) / len(shares))
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert means[0] < 0.35 < 0.5 < means[-1]
