"""Total citation counts and Impact Factor quotients."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank import metrics
from citerank.corpus import CitationWindow
from citerank.errors import MetricError
from citerank.metrics import MetricVector, impact_factor, total_citations
from citerank.syngen import GenSettings, generate

from conftest import build_corpus, citation_dict, corpus_from, journal_dict, seeded_corpus


# ---------------------------------------------------------------------------
# MetricVector contract


def test_metric_vector_rejects_unknown_name():
    with pytest.raises(MetricError):
        MetricVector.from_scores("h-index", {"a": 1.0})


@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
def test_metric_vector_rejects_non_finite_or_negative(bad):
    with pytest.raises(MetricError):
        MetricVector.from_scores("custom", {"a": bad})


@pytest.mark.parametrize("ids", [("a\tx",), ("a", "b\t"), ("a\nb",), ("a", "b\r")])
def test_metric_vector_rejects_an_id_holding_a_tab_cr_or_lf(ids):
    """Its row of a ranks or scatter TSV would have four fields, or be split
    over two lines."""
    with pytest.raises(MetricError, match=re.escape(f"id {ids[-1]!r} holds a TAB")):
        MetricVector("custom", ids, [1.0] * len(ids))


def test_metric_vector_len():
    assert len(MetricVector.from_scores("custom", {"a": 1.0, "b": 2.0})) == 2


def test_metric_vector_holds_sorted_ids_and_read_only_scores():
    vector = MetricVector.from_scores("custom", {"b": 2.0, "a": 1.0})
    assert vector.ids == ("a", "b")
    assert vector.values.tolist() == [1.0, 2.0]
    assert dict(vector.scores) == {"a": 1.0, "b": 2.0}
    with pytest.raises(ValueError):
        vector.values[0] = 5.0
    with pytest.raises(TypeError):
        vector.scores["a"] = 5.0


@pytest.mark.parametrize("ids, values", [(("b", "a"), [1.0, 2.0]), (("a", "a"), [1.0, 2.0]),
                                         (("a", "b"), [1.0])])
def test_metric_vector_rejects_unsorted_or_misaligned_ids(ids, values):
    with pytest.raises(MetricError):
        MetricVector("custom", ids, values)


# ---------------------------------------------------------------------------
# total_citations


def test_total_citations_single_record():
    corpus = build_corpus(
        [("A", {2006: 1}), ("B", {2006: 1})],
        [("A", "B", 2006, 2005, 5)],
    )
    vector = total_citations(corpus)
    assert vector.scores == {"A": 0.0, "B": 5.0}
    assert vector.metric_name == "total_citations"


def test_total_citations_self_loop_excluded():
    corpus = build_corpus([("A", {2006: 1})], [("A", "A", 2006, 2005, 7)])
    assert total_citations(corpus, CitationWindow(include_self=False)).scores == {"A": 0.0}
    assert total_citations(corpus, CitationWindow(include_self=True)).scores == {"A": 7.0}


def test_total_citations_window_filters_by_census_and_span():
    corpus = build_corpus(
        [("A", {2006: 1}), ("B", {2006: 1})],
        [
            ("A", "B", 2006, 2005, 5),   # in a 2006 window of span >= 1
            ("A", "B", 2006, 2003, 2),   # needs span >= 3
            ("A", "B", 2005, 2004, 11),  # wrong census year
            ("A", "B", 2006, 2006, 13),  # same-year, never in a cited window
        ],
    )
    assert total_citations(corpus, CitationWindow(2006, span=1)).scores["B"] == 5.0
    assert total_citations(corpus, CitationWindow(2006, span=3)).scores["B"] == 7.0
    assert total_citations(corpus).scores["B"] == 31.0


def test_total_citations_sums_in_blocks_to_what_one_bincount_sums():
    """The blocks' partial sums are integers of at most 2**53, so each float64
    addition is exact: the totals are those of one bincount over every
    record, to the bit, up to a total of 2**53."""
    corpus = build_corpus(
        [("A", {2006: 1}), ("B", {2006: 1}), ("C", {2006: 1})],
        [("A", "B", 2006, 2005, 2**52), ("B", "C", 2006, 2005, 3), ("C", "B", 2006, 2005, 2**52 - 5),
         ("A", "B", 2006, 2004, 1), ("A", "C", 2006, 2004, 1)],
    )
    with mock.patch.object(metrics, "_CHUNK_BYTES", 2 * 16):  # blocks of two records
        assert total_citations(corpus).scores == {"A": 0.0, "B": 2.0**53 - 4, "C": 4.0}
    corpus = generate(GenSettings(300, (2002, 2006), skew_exponent=0.6, seed=3))
    whole = np.bincount(corpus.cited, weights=corpus.count, minlength=corpus.n_journals)
    for records in (1, 7, 1000):
        with mock.patch.object(metrics, "_CHUNK_BYTES", records * 16):
            assert np.array_equal(total_citations(corpus).values, whole)


def test_total_citations_copies_one_block_of_records_at_a_time():
    """bincount's intp and float64 copies of every record, 16 bytes each, are
    not made at once."""
    corpus = generate(GenSettings(1000, (2002, 2006), skew_exponent=0.6, mean_out_citations=100,
                                  seed=5))
    with mock.patch.object(metrics, "_CHUNK_BYTES", 2**14):
        tracemalloc.start()
        try:
            total_citations(corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * corpus.n_records / 8


def test_total_citations_provenance_names_window():
    corpus = build_corpus([("A", {2006: 1})], [])
    vector = total_citations(corpus, CitationWindow(2006, span=5, include_self=False))
    assert "census_year=2006" in vector.provenance
    assert "include_self=False" in vector.provenance


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_total_citations_all_years_additive_over_census_years(seed):
    """All-years totals equal the sum of one-census-year windows.

    The partition only covers records with cited_year < citing_year, since
    a cited window never includes same-year citations; the generator here
    therefore avoids them.
    """
    corpus = seeded_corpus(seed)
    strict = {
        key: count
        for key, count in citation_dict(corpus).items()
        if key[3] < key[2]
    }
    corpus = corpus_from(journal_dict(corpus).values(), [key + (count,) for key, count in strict.items()])
    full = total_citations(corpus).scores
    by_year = [
        total_citations(corpus, CitationWindow(year, span=10)).scores
        for year in (2004, 2005, 2006)
    ]
    for jid in corpus.ids:
        assert sum(v[jid] for v in by_year) == full[jid]


# ---------------------------------------------------------------------------
# impact_factor


def test_impact_factor_direct_quotient():
    corpus = build_corpus(
        [("A", {2004: 2, 2005: 3}), ("B", {2005: 1})],
        [
            ("B", "A", 2006, 2005, 6),
            ("B", "A", 2006, 2004, 4),
            ("B", "A", 2006, 2003, 9),  # outside the two-year window
            ("B", "A", 2005, 2004, 9),  # wrong census year
        ],
    )
    vector = impact_factor(corpus, 2006)
    assert vector.scores["A"] == 2.0  # 10 qualifying citations over 5 articles


def test_impact_factor_zero_numerator():
    corpus = build_corpus(
        [("A", {2004: 5, 2005: 3}), ("B", {2005: 4})],
        [("A", "B", 2006, 2005, 1)],
    )
    assert impact_factor(corpus, 2006).scores["A"] == 0.0


def test_impact_factor_scale_invariance_exact():
    base = build_corpus(
        [("A", {2004: 2, 2005: 3}), ("B", {2004: 7, 2005: 1})],
        [("B", "A", 2006, 2005, 6), ("A", "B", 2006, 2004, 5)],
    )
    doubled = build_corpus(
        [("A", {2004: 4, 2005: 6}), ("B", {2004: 14, 2005: 2})],
        [("B", "A", 2006, 2005, 12), ("A", "B", 2006, 2004, 10)],
    )
    assert impact_factor(base, 2006).scores == impact_factor(doubled, 2006).scores


def test_impact_factor_omits_zero_denominator_journals(toy_corpus):
    vector = impact_factor(toy_corpus, 2006)
    # delta has articles but omega published only in the census year itself
    assert "omega" not in vector.scores
    assert "delta" in vector.scores
    assert "omitted_zero_denominator=[omega]" in vector.provenance


def test_impact_factor_toy_values(toy_corpus):
    vector = impact_factor(toy_corpus, 2006)
    # alpha: citations 2006 -> {2004, 2005}, self-citation included:
    # 12+30+40+15+25 = 122 over 100+110 articles
    assert vector.scores["alpha"] == 122.0 / 210.0
    # beta: 20+8+10 = 38 over 50+55
    assert vector.scores["beta"] == 38.0 / 105.0
    # gamma: 10+5 = 15 over 30+30
    assert vector.scores["gamma"] == 0.25


def test_impact_factor_census_year_must_be_in_range(toy_corpus):
    with pytest.raises(MetricError, match="outside the corpus year range"):
        impact_factor(toy_corpus, 2015)


def test_impact_factor_needs_a_census_year(toy_corpus):
    with pytest.raises(MetricError, match="impact factor needs a census year"):
        impact_factor(toy_corpus, None)


def test_impact_factor_requires_year_data():
    corpus = build_corpus([("A", {})], [])
    with pytest.raises(MetricError, match="no year data"):
        impact_factor(corpus, 2006)


@given(st.integers(0, 10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_impact_factor_omission_property(seed, data):
    """Exactly the journals with a zero two-year article count are omitted,
    and every reported score is the literal quotient."""
    base = seeded_corpus(seed)
    census = 2006
    # knock out the denominator years for a random subset of journals
    gutted = data.draw(
        st.sets(st.sampled_from(list(base.ids)), max_size=base.n_journals)
    )
    corpus = build_corpus(
        [
            (
                jid,
                {2006: journal.articles_by_year[2006]}
                if jid in gutted
                else journal.articles_by_year,
            )
            for jid, journal in journal_dict(base).items()
        ],
        [key + (count,) for key, count in citation_dict(base).items()],
    )
    vector = impact_factor(corpus, census)
    for jid, journal in journal_dict(corpus).items():
        denominator = journal.articles_by_year.get(census - 1, 0) + \
            journal.articles_by_year.get(census - 2, 0)
        if denominator == 0:
            assert jid not in vector.scores
            assert jid in vector.provenance
        else:
            numerator = sum(
                count
                for (citing, cited, citing_year, cited_year), count in citation_dict(corpus).items()
                if cited == jid
                and citing_year == census
                and cited_year in (census - 1, census - 2)
            )
            assert vector.scores[jid] == numerator / denominator


@given(st.integers(0, 10_000), st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_impact_factor_integer_scale_property(seed, factor):
    corpus = seeded_corpus(seed)
    scaled = build_corpus(
        [
            (jid, {y: factor * n for y, n in journal.articles_by_year.items()})
            for jid, journal in journal_dict(corpus).items()
        ],
        [
            (citing, cited, citing_year, cited_year, factor * count)
            for (citing, cited, citing_year, cited_year), count in citation_dict(corpus).items()
        ],
    )
    assert impact_factor(corpus, 2006).scores == impact_factor(scaled, 2006).scores


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_metric_scores_always_finite_non_negative(seed):
    corpus = seeded_corpus(seed)
    for vector in (total_citations(corpus), impact_factor(corpus, 2006)):
        for value in vector.scores.values():
            assert math.isfinite(value) and value >= 0.0
