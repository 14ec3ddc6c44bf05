"""Corpus model, CSV parsing, serialization round-trips, and filtering."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank.corpus import (
    CitationWindow,
    Corpus,
    Journal,
    _first_problem,
    _loadtxt_columns,
    _row_columns,
    dump_citations,
    dump_journals,
    filter_to_scored,
    parse_corpus,
)
from citerank.errors import CorpusError
from citerank.metrics import MetricVector
from citerank.syngen import GenSettings, generate

from conftest import build_corpus, citation_dict, citation_rows, corpus_from


def parse_strings(journals_text, citations_text):
    return parse_corpus(io.StringIO(journals_text), io.StringIO(citations_text))


def serialize(corpus):
    jbuf, cbuf = io.StringIO(), io.StringIO()
    dump_journals(corpus, jbuf)
    dump_citations(corpus, cbuf)
    return jbuf.getvalue(), cbuf.getvalue()


JOURNALS_3 = (
    "id,name,year,articles\n"
    "a,Alpha,2005,10\n"
    "a,Alpha,2006,12\n"
    "b,Beta,2006,5\n"
    "c,Gamma,2006,7\n"
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_empty_citations_file():
    corpus = parse_strings(JOURNALS_3, "citing,cited,citing_year,cited_year,count\n")
    assert corpus.n_journals == 3
    assert citation_dict(corpus) == {}
    assert corpus.journals["a"].articles_by_year == {2005: 10, 2006: 12}


def test_parse_zero_byte_files_yield_empty_corpus():
    corpus = parse_strings("", "")
    assert corpus.n_journals == 0
    assert citation_dict(corpus) == {}


def test_parse_merges_duplicate_rows_by_summing():
    citations = (
        "citing,cited,citing_year,cited_year,count\n"
        "a,b,2006,2005,2\n"
        "a,b,2006,2005,2\n"
    )
    corpus = parse_strings(JOURNALS_3, citations)
    assert citation_dict(corpus) == {("a", "b", 2006, 2005): 4}


def test_parse_keeps_distinct_year_keys_separate():
    citations = (
        "citing,cited,citing_year,cited_year,count\n"
        "a,b,2006,2005,2\n"
        "a,b,2006,2004,3\n"
    )
    corpus = parse_strings(JOURNALS_3, citations)
    assert citation_dict(corpus) == {
        ("a", "b", 2006, 2005): 2,
        ("a", "b", 2006, 2004): 3,
    }


def test_parse_journal_row_with_empty_year_declares_journal():
    corpus = parse_strings("id,name,year,articles\nx,No Data,,\n", "")
    assert corpus.journals["x"].articles_by_year == {}


def test_parse_quoted_name_with_comma(toy_corpus):
    assert toy_corpus.journals["gamma"].name == "Gamma, Applied"


def test_parse_skips_blank_lines():
    corpus = parse_strings(
        "id,name,year,articles\n\na,Alpha,2006,1\n\n",
        "citing,cited,citing_year,cited_year,count\n\na,a,2006,2006,1\n",
    )
    assert corpus.n_journals == 1
    assert corpus.total_count() == 1


# ---------------------------------------------------------------------------
# accepted citation grammar

CITATIONS_HEADER = "citing,cited,citing_year,cited_year,count\n"


@pytest.mark.parametrize(
    "citations_text, expected",
    [
        pytest.param(CITATIONS_HEADER + "a,b, 2006 ,2005,1\n",
                     {("a", "b", 2006, 2005): 1}, id="padded"),
        pytest.param(CITATIONS_HEADER + "a,b,2006,2005,+5\n",
                     {("a", "b", 2006, 2005): 5}, id="plus-sign"),
        pytest.param(CITATIONS_HEADER + "a,b,2006,2005,007\n",
                     {("a", "b", 2006, 2005): 7}, id="leading-zeros"),
        pytest.param(CITATIONS_HEADER + '"a","b",2006,2005,"3"\n',
                     {("a", "b", 2006, 2005): 3}, id="quoted"),
        pytest.param(CITATIONS_HEADER + "#h,b,2006,2005,2\n",
                     {("#h", "b", 2006, 2005): 2}, id="hash-id"),
        pytest.param(CITATIONS_HEADER + "\na,b,2006,2005,1\n\n",
                     {("a", "b", 2006, 2005): 1}, id="blank-lines"),
        pytest.param(CITATIONS_HEADER.replace("\n", "\r\n") + "a,b,2006,2005,1\r\n",
                     {("a", "b", 2006, 2005): 1}, id="crlf"),
        pytest.param(CITATIONS_HEADER + "\u00e9,b,2006,2005,2\n",
                     {("\u00e9", "b", 2006, 2005): 2}, id="non-ascii-id"),
        pytest.param(CITATIONS_HEADER + '"q""x",b,2006,2005,2\n',
                     {('q"x', "b", 2006, 2005): 2}, id="quote-in-id"),
        pytest.param(CITATIONS_HEADER + "a,b,2006,2005,1\ra,b,2006,2004,1\r",
                     {("a", "b", 2006, 2005): 1, ("a", "b", 2006, 2004): 1}, id="cr-endings"),
        pytest.param(CITATIONS_HEADER.replace("\n", "\r") + "a,b,2006,2005,1\ra,b,2006,2005,2\r",
                     {("a", "b", 2006, 2005): 3}, id="cr-endings-with-header"),
        pytest.param(CITATIONS_HEADER, {}, id="header-only"),
        pytest.param("", {}, id="empty-file"),
    ],
)
def test_parse_citation_grammar(citations_text, expected):
    # Only the ids a case uses are declared, so ASCII cases take the loadtxt path.
    extra = sorted({jid for key in expected for jid in key[:2]} - {"a", "b", "c"})
    declared = io.StringIO()
    csv.writer(declared, lineterminator="\n").writerows((jid, "Extra", 2006, 1) for jid in extra)
    assert citation_dict(parse_strings(JOURNALS_3 + declared.getvalue(), citations_text)) == expected


FIELD_TEXTS = st.sampled_from([
    "a", "b", "zz", "", " a", '"a"', '"a"x', 'a"', '"a,b"', "1", "2005", "2006", " 7 ",
    "+3", "-1", "0", "007", "1_0", "1.0", "0x1", "\t2\x0c", '"5"', "5\n", "9" * 19,
])
ROW_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", ",\n", "\n\n", " \n"])


@given(st.sampled_from(["\n", "\r\n", "\r"]),
       st.lists(st.tuples(st.lists(FIELD_TEXTS, min_size=4, max_size=6), ROW_ENDINGS),
                max_size=4),
       st.text(alphabet='ab,"\r\n 12', max_size=30))
@settings(max_examples=300, deadline=None)
def test_loadtxt_and_row_loop_agree(header_ending, rows, tail):
    """Whatever numpy's parser reads, the csv row loop reads identically."""
    text = "citing,cited,citing_year,cited_year,count" + header_ending + "".join(
        ",".join(fields) + ending for fields, ending in rows
    ) + tail
    raw, ids = text.encode("ascii"), ["a", "a,b", "b"]
    try:
        fast = _loadtxt_columns(raw, ids)
    except (ValueError, csv.Error, CorpusError):
        return  # rejected files always go to the row loop
    if _first_problem(len(ids), *fast) is not None:
        with pytest.raises(CorpusError):
            _row_columns(raw, ids)
    else:
        assert [c.tolist() for c in _row_columns(raw, ids)] == [c.tolist() for c in fast]


# ---------------------------------------------------------------------------
# parse errors carry line numbers


@pytest.mark.parametrize(
    "journals_text, line, fragment",
    [
        ("id,name,year\n", 1, "header"),
        ("id,name,year,articles\na,Alpha,2006\n", 2, "4 fields"),
        ("id,name,year,articles\n,Anon,2006,1\n", 2, "empty journal id"),
        ("id,name,year,articles\na,Alpha,2006,1\na,Alias,2005,2\n", 3, "conflicting names"),
        ("id,name,year,articles\na,Alpha,2006,1\na,Alpha,2006,2\n", 3, "duplicate journal id"),
        ("id,name,year,articles\na,Alpha,two-thousand,1\n", 2, "malformed"),
        ("id,name,year,articles\na,Alpha,2006,-1\n", 2, "negative article count"),
        ("id,name,year,articles\na,Alpha,2006,9007199254740993\n", 2, "above 2**53"),
    ],
)
def test_parse_journal_errors(journals_text, line, fragment):
    with pytest.raises(CorpusError) as exc:
        parse_strings(journals_text, "")
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "citations_text, line, fragment",
    [
        ("citing,cited,citing_year,count\n", 1, "header"),
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005\n", 2, "5 fields"),
        ("citing,cited,citing_year,cited_year,count\nzz,b,2006,2005,1\n", 2, "unknown journal id"),
        ("citing,cited,citing_year,cited_year,count\na,zz,2006,2005,1\n", 2, "unknown journal id"),
        ("citing,cited,citing_year,cited_year,count\naa,b,2006,2005,1\n", 2, "unknown journal id 'aa'"),
        ("citing,cited,citing_year,cited_year,count\na\x00,b,2006,2005,1\n", 2, "unknown journal id"),
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,0\n", 2, "count must be >= 1"),
        ("citing,cited,citing_year,cited_year,count\na,b,2005,2006,1\n", 2, "after citing_year"),
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,many\n", 2, "malformed"),
        (
            "citing,cited,citing_year,cited_year,count\na,b,2006,2005,1\n#alpha,b,2006,2005,1\n",
            3,
            "unknown journal id '#alpha'",
        ),
        (
            "citing,cited,citing_year,cited_year,count\n\na,b,2006,2005,1\n\na,b,2006,2005,x\n",
            5,
            "malformed",
        ),
        # int() accepts these; the grammar is ASCII digits only.
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,1_000\n", 2, "malformed"),
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,\u0661\u0662\n", 2, "malformed"),
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,\u01fe5\n", 2, "malformed"),
        # counts are bounded so that every total stays exact in a float64
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,9223372036854775808\n",
         2, "int64 range"),
        ("citing,cited,citing_year,cited_year,count\na,b,9223372036854775808,2005,1\n",
         2, "int64 range"),
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,9007199254740993\n",
         2, "<= 2**53"),
        (
            "citing,cited,citing_year,cited_year,count\n"
            "a,b,2006,2005,9007199254740000\na,c,2006,2005,992\na,b,2006,2005,1\n",
            4,
            "passes 2**53",
        ),
        # a bad record before a malformed row is the one reported
        ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,0\na,b,2006,2005,x\n",
         2, "count must be >= 1"),
    ],
)
def test_parse_citation_errors(citations_text, line, fragment):
    with pytest.raises(CorpusError) as exc:
        parse_strings(JOURNALS_3, citations_text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_parse_error_message_prefixes_line_number():
    with pytest.raises(CorpusError, match=r"^line 2: "):
        parse_strings("id,name,year,articles\na,Alpha,2006,-1\n", "")


# ---------------------------------------------------------------------------
# model validation


def test_journal_rejects_negative_articles():
    with pytest.raises(CorpusError):
        Journal(id="a", name="Alpha", articles_by_year={2006: -1})


def test_journal_rejects_empty_id():
    with pytest.raises(CorpusError):
        Journal(id="", name="Anon")


AB = [Journal("a", "Alpha"), Journal("b", "Beta")]


def test_record_rejects_zero_count():
    with pytest.raises(CorpusError):
        corpus_from(AB, [("a", "b", 2006, 2005, 0)])


def test_record_rejects_future_cited_year():
    with pytest.raises(CorpusError):
        corpus_from(AB, [("a", "b", 2005, 2006, 1)])


def test_corpus_rejects_journal_keyed_under_another_id():
    with pytest.raises(CorpusError, match="carries id"):
        Corpus({"a": Journal("a", "Alpha"), "b": Journal("a", "Alias")}, [], [], [], [], [])


@pytest.mark.parametrize("column", [[1.5], [True], np.array([2**63], dtype=np.uint64)])
def test_corpus_rejects_columns_that_are_not_int64(column):
    positions = np.zeros(len(column), dtype=np.int64)
    counts = np.ones(len(column), dtype=np.int64)
    with pytest.raises(CorpusError, match="integers"):
        Corpus({"a": Journal("a", "Alpha")}, positions, positions, counts + 2005, column, counts)
    with pytest.raises(CorpusError, match="integers"):
        Corpus({"a": Journal("a", "Alpha")}, positions, positions, counts + 2005, counts, column)


def test_corpus_rejects_citation_to_unknown_journal():
    with pytest.raises(CorpusError, match="unknown journal id"):
        corpus_from([Journal("a", "Alpha")], [("a", "b", 2006, 2005, 1)])


def test_build_merges_records():
    corpus = build_corpus(
        [("a", {2006: 1}), ("b", {2006: 1})],
        [("a", "b", 2006, 2005, 2), ("a", "b", 2006, 2005, 3)],
    )
    assert citation_dict(corpus) == {("a", "b", 2006, 2005): 5}


def test_total_count_and_year_range(toy_corpus):
    assert toy_corpus.total_count() == 188
    assert toy_corpus.year_range() == (2004, 2006)


def test_year_range_none_when_no_years():
    assert corpus_from([Journal("a", "Alpha")], []).year_range() is None


def test_records_round_trip(toy_corpus):
    rebuilt = corpus_from(toy_corpus.journals.values(), citation_rows(toy_corpus))
    assert rebuilt == toy_corpus


# ---------------------------------------------------------------------------
# citation windows


def includes(window, citing_year, cited_year):
    mask = window.mask(np.array([citing_year]), np.array([cited_year]))
    return mask is None or bool(mask[0])


def test_window_all_years_includes_everything():
    window = CitationWindow.all_years()
    assert includes(window, 2006, 2006)
    assert includes(window, 1990, 1970)
    assert window.mask(None, None) is None


def test_window_cited_mode_bounds():
    window = CitationWindow.cited(2006, span=2)
    assert includes(window, 2006, 2005)
    assert includes(window, 2006, 2004)
    assert not includes(window, 2006, 2006)  # same-year citations never qualify
    assert not includes(window, 2006, 2003)
    assert not includes(window, 2005, 2004)  # wrong census year
    assert window.publication_years(corpus_from([], [])) == (2004, 2005)


def test_window_all_years_publication_years(toy_corpus):
    assert CitationWindow.all_years().publication_years(toy_corpus) == (2004, 2005, 2006)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "weekly"},
        {"mode": "cited-window"},
        {"mode": "cited-window", "census_year": 2006, "span": 0},
    ],
)
def test_window_validation(kwargs):
    with pytest.raises(ValueError):
        CitationWindow(**kwargs)


# ---------------------------------------------------------------------------
# serialization round-trips


def test_round_trip_toy(toy_corpus):
    jtext, ctext = serialize(toy_corpus)
    assert parse_strings(jtext, ctext) == toy_corpus


def test_round_trip_generated_50_journals():
    corpus = generate(GenSettings(n_journals=50, years=(2003, 2006), seed=11))
    jtext, ctext = serialize(corpus)
    assert parse_strings(jtext, ctext) == corpus


def test_round_trip_journal_without_article_data():
    corpus = corpus_from([Journal("x", "No Data")], [])
    jtext, ctext = serialize(corpus)
    assert "x,No Data,,\n" in jtext
    assert parse_strings(jtext, ctext) == corpus


def test_serialization_is_deterministic():
    corpus = generate(GenSettings(n_journals=20, years=(2004, 2006), seed=3))
    assert serialize(corpus) == serialize(corpus)


NAME_ALPHABET = st.characters(
    codec="utf-8", exclude_categories=("Cs", "Cc"), exclude_characters="\r\n"
)


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 8))
    ids = [f"J{i}" for i in range(n)]
    journals = []
    for jid in ids:
        name = draw(st.text(NAME_ALPHABET, min_size=1, max_size=12))
        years = draw(
            st.dictionaries(st.integers(2000, 2006), st.integers(0, 99), max_size=4)
        )
        journals.append(Journal(id=jid, name=name, articles_by_year=years))
    records = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.sampled_from(ids),
                st.integers(2000, 2006),
                st.integers(1995, 2006),
                st.integers(1, 30),
            ).map(lambda t: (t[0], t[1], t[2], min(t[3], t[2]), t[4])),
            max_size=20,
        )
    )
    return corpus_from(journals, records)


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(corpus):
    """parse(serialize(C)) == C, name quoting and all."""
    jtext, ctext = serialize(corpus)
    assert parse_strings(jtext, ctext) == corpus


@given(corpora(), st.randoms())
@settings(max_examples=40, deadline=None)
def test_merge_order_independent(corpus, rnd):
    records = citation_rows(corpus)
    rnd.shuffle(records)
    rebuilt = corpus_from(corpus.journals.values(), records)
    assert rebuilt == corpus
    assert rebuilt.total_count() == corpus.total_count()


# ---------------------------------------------------------------------------
# filtering to scored journals


def metric_over(ids):
    return MetricVector("custom", {jid: 1.0 for jid in ids}, "test stub")


def test_filter_identity(toy_corpus):
    filtered, removed = filter_to_scored(toy_corpus, metric_over(toy_corpus.journals))
    assert filtered == toy_corpus
    assert removed == ()


def test_filter_annihilation(toy_corpus):
    filtered, removed = filter_to_scored(toy_corpus, metric_over([]))
    assert filtered.n_journals == 0
    assert citation_dict(filtered) == {}
    assert removed == tuple(sorted(toy_corpus.journals))


def test_filter_drops_journals_and_their_citations(toy_corpus):
    keep = metric_over(["alpha", "beta", "gamma", "delta"])
    filtered, removed = filter_to_scored(toy_corpus, keep)
    assert removed == ("omega",)
    assert set(filtered.journals) == {"alpha", "beta", "gamma", "delta"}
    for citing, cited, _, _ in citation_dict(filtered):
        assert "omega" not in (citing, cited)
    # only the alpha->omega edge is lost
    assert filtered.total_count() == toy_corpus.total_count() - 3


def test_filter_is_idempotent(toy_corpus):
    keep = metric_over(["alpha", "beta"])
    once, removed_once = filter_to_scored(toy_corpus, keep)
    twice, removed_twice = filter_to_scored(once, keep)
    assert twice == once
    assert removed_once == ("delta", "gamma", "omega")
    assert removed_twice == ()


def test_filter_ignores_metric_ids_outside_corpus(toy_corpus):
    keep = metric_over(list(toy_corpus.journals) + ["elsewhere"])
    filtered, removed = filter_to_scored(toy_corpus, keep)
    assert filtered == toy_corpus
    assert removed == ()
