"""Corpus model, CSV parsing and serialization round-trips."""

import csv
import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csv_reference
from citerank import corpus as corpus_module
from citerank.corpus import (
    COLUMNS,
    CitationWindow,
    Corpus,
    _parse_citations,
    _parse_journals,
    dump_citations,
    dump_journals,
    load_corpus,
    write_corpus,
)
from citerank.errors import CorpusError
from citerank.syngen import GenSettings, generate

from conftest import (
    JournalRow,
    build_corpus,
    citation_dict,
    citation_rows,
    corpus_fields,
    corpus_from,
    journal_dict,
    same_corpus,
)


def parse_strings(journals_text, citations_text):
    journals = _parse_journals(io.BytesIO(journals_text.encode("utf-8")))
    return _parse_citations(journals, io.BytesIO(citations_text.encode("utf-8")))


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
    assert journal_dict(corpus)["a"].articles_by_year == {2005: 10, 2006: 12}


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
    assert journal_dict(corpus)["x"].articles_by_year == {}


def test_parse_quoted_name_with_comma(toy_corpus):
    assert journal_dict(toy_corpus)["gamma"].name == "Gamma, Applied"


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
    # The ids a case uses beyond a, b and c are declared in journals.csv.
    extra = sorted({jid for key in expected for jid in key[:2]} - {"a", "b", "c"})
    declared = io.StringIO()
    csv.writer(declared, lineterminator="\n").writerows((jid, "Extra", 2006, 1) for jid in extra)
    assert citation_dict(parse_strings(JOURNALS_3 + declared.getvalue(), citations_text)) == expected


@pytest.mark.parametrize("year, articles", [
    (" 2005 ", "10"), ("2005", "+10"), ("02005", "010"),
    # \x1c is whitespace to the grammar and to loadtxt, though not to int()
    ("\x1c2005", "10\x1f"),
])
def test_parse_journal_grammar(year, articles):
    corpus = parse_strings(f"id,name,year,articles\na,Alpha,{year},{articles}\n", "")
    assert journal_dict(corpus)["a"].articles_by_year == {2005: 10}


def outcome(parse):
    """What a parse returns, with arrays as lists, or its error's line and message."""
    try:
        result = parse()
    except CorpusError as exc:
        return "error", exc.line, str(exc)
    return [c if isinstance(c, tuple) else np.asarray(c).tolist() for c in result]


def csv_file(header, fields):
    """A UTF-8 file of the header and rows of `fields`, each row one field
    short, as drawn, or with one or two extra fields."""
    row = st.tuples(fields, st.sampled_from(20 * [0] + [-1, 1, 2])).map(
        lambda drawn: drawn[0][:len(drawn[0]) + min(drawn[1], 0)] + ("7",) * max(drawn[1], 0)
    )
    ending = st.sampled_from(6 * ["\n", "\r\n", "\r"] + ["\n\n", "\r\n\r\n", "\n\r", " \n"])
    return st.builds(
        lambda bom, first, rows, tail: (
            bom + header + first + "".join(",".join(r) + end for r, end in rows) + tail
        ).encode("utf-8"),
        st.sampled_from(["", "\ufeff"]), ending,
        st.lists(st.tuples(row, ending), min_size=1, max_size=6),
        st.sampled_from(4 * [""] + ["\n", "\r", " ", '"']),
    )


# Field texts as written in the file.  Valid texts come five times over, so
# that most rows parse.
ID_TEXTS = st.sampled_from(5 * ["a", "b", "é", '"a,b"', '"q""x"', "日本"] + [
    "", " a", "zz", '"a"x', 'a"', '"x\ry"', '"x\ny"', "a\0", "ü" * 300, "J000000", "0028-0836",
])
NAME_TEXTS = st.sampled_from(5 * [None] + ["Alpha", '"Gamma, Applied"', "", '"Q ""x"""', "Ünï"])
NUMBER_TEXTS = st.sampled_from([
    "0", "-1", "", "1_0", "1.0", '"5"', '"5\n"', '"5\r"', "\x1c5\x1f", "\t2\x0c", "\v4", "+-1",
    "9" * 19, "9223372036854775807", "-9223372036854775808", " 5", "5\u0085", "٥",
    "²", "2 5",
])
NUMBER_TRIPLES = st.tuples(NUMBER_TEXTS, NUMBER_TEXTS, NUMBER_TEXTS)
CITATION_FIELDS = st.tuples(ID_TEXTS, ID_TEXTS, st.one_of(
    *3 * [st.sampled_from([("2006", "2005", "1"), (" 2006", "2006 ", "+3"),
                           ("2005", "2004", "007")])],
    NUMBER_TRIPLES,
)).map(lambda fields: fields[:2] + fields[2])
# Each id's usual name, so that most files name each journal consistently.
USUAL_NAMES = {'"a,b"': "Alpha", "é": '"É ""x"""', "日本": "名"}
JOURNAL_FIELDS = st.tuples(ID_TEXTS, NAME_TEXTS, st.one_of(
    *3 * [st.tuples(st.sampled_from(["2004", "2005", " 2006 ", "+2003"]),
                    st.sampled_from(["0", "7", "007", "\x1c5"]))],
    st.just(("", "")),
    st.tuples(NUMBER_TEXTS, NUMBER_TEXTS),
)).map(lambda fields: (fields[0], USUAL_NAMES.get(fields[0], "Beta") if fields[1] is None
                       else fields[1], *fields[2]))
# Journals for the citations files: the ids ID_TEXTS spells, with and
# without one so long that the id columns are sized from each part;
# with a 7-byte id, whose fixed width of 8 bytes is compared as a uint64; and
# with a 9-byte ISSN, whose width of 10 bytes is compared as bytes.
SHORT_IDS = ("a", "a,b", "b", 'q"x', "é", "日本")
LONG_IDS = tuple(sorted(SHORT_IDS + ("ü" * 300,)))
SEVEN_BYTE_IDS = tuple(sorted(SHORT_IDS + ("J000000",)))
ISSN_IDS = tuple(sorted(SHORT_IDS + ("0028-0836",)))
JOURNAL_SETS = [(ids, ids, [], [], []) for ids in (SHORT_IDS, LONG_IDS, SEVEN_BYTE_IDS, ISSN_IDS)]


@given(csv_file("id,name,year,articles", JOURNAL_FIELDS),
       csv_file("citing,cited,citing_year,cited_year,count", CITATION_FIELDS),
       st.sampled_from(JOURNAL_SETS))
@example(  # a name that conflicts is reported before the same row's malformed number
    b"id,name,year,articles\na,Alpha,2006,1\na,Alias,x,1\n", b"", JOURNAL_SETS[0])
@example(  # a sixth field is an error on both id column paths
    b"id,name,year,articles\na,Alpha,2006,1,9\n",
    b"citing,cited,citing_year,cited_year,count\na,b,2006,2005,1,9\n", JOURNAL_SETS[0])
@example(  # a quoted CR is not taken for the LF that bare CR endings become
    b'id,name,year,articles\r"x\ry",Alpha,2006,1\r',
    b'citing,cited,citing_year,cited_year,count\r"x\ry",b,2006,2005,1\ra,b,2006,2005,1\r',
    JOURNAL_SETS[1])
@example(  # every field quoted, as csv.QUOTE_ALL writes it, with CRLF endings
    b'"id","name","year","articles"\r\n"a","Alpha","2006","1"\r\n"a,b","Beta","2006","2"\r\n',
    b'"citing","cited","citing_year","cited_year","count"\r\n"a","a,b","2006","2005","1"\r\n'
    b'"q""x","\xc3\xa9","2006","2006","3"\r\n"a,b","a","2005","2004","2"\r\n', JOURNAL_SETS[0])
@example(  # a quoted LF in the count field of a last row with no final newline
    b"", b'citing,cited,citing_year,cited_year,count\na,b,2006,2005,1\nb,a,2006,2005,"2\n"',
    JOURNAL_SETS[0])
@example(  # a quoted field that spans a blank line
    b"", b'citing,cited,citing_year,cited_year,count\na,b,2006,2005,1\n"a\n\nb",b,2006,2005,1\n',
    JOURNAL_SETS[0])
@example(  # a quoted LF in the count field of a last row that the file ends inside
    b"", b'citing,cited,citing_year,cited_year,count\na,b,2006,2005,1\nb,a,2006,2005,"2\n',
    JOURNAL_SETS[0])
@example(  # an id one byte longer than the longest, which is not cut onto it
    b"", b"citing,cited,citing_year,cited_year,count\n0028-08361,a,2006,2005,1\n", JOURNAL_SETS[3])
@settings(max_examples=500, deadline=None)
def test_parser_matches_the_csv_reference(journals_raw, citations_raw, journals):
    """numpy's parser reads every valid file as the csv-module reference in
    tests/csv_reference.py does, and every invalid one ends in the same
    line-numbered error."""
    assert_reads_as_the_reference(journals_raw, citations_raw, journals)


def assert_reads_as_the_reference(journals_raw, citations_raw, journals):
    assert outcome(lambda: _parse_journals(io.BytesIO(journals_raw))) == outcome(
        lambda: csv_reference.journals(journals_raw))
    records = outcome(lambda: [csv_reference.citations(journals[0], citations_raw)])
    if records[0] != "error":
        records = [corpus_fields(Corpus(*journals, *(list(zip(*records[0])) or [[]] * 5)))]
    citations = io.BytesIO(citations_raw)
    assert outcome(lambda: [corpus_fields(_parse_citations(journals, citations))]) == records


HEADER_LF = b"citing,cited,citing_year,cited_year,count\n"


@given(csv_file("id,name,year,articles", JOURNAL_FIELDS),
       csv_file("citing,cited,citing_year,cited_year,count", CITATION_FIELDS),
       st.sampled_from(JOURNAL_SETS), st.integers(1, 64))
@example(  # the first chunk ends between the CR and LF of row 2, whose CRLF stays in one block
    b"", b"citing,cited,citing_year,cited_year,count\r\na,b,2006,2005,1\r\nb,zz,2006,2005,1\r\n",
    JOURNAL_SETS[0], 59)
@example(  # a byte order mark, with the header alone in the first block
    b"\xef\xbb\xbfid,name,year,articles\na,Alpha,2006,1\n",
    b"\xef\xbb\xbf" + HEADER_LF + b"a,b,2006,2005,1\nb,a,2006,2005,x\n", JOURNAL_SETS[0], 8)
@example(  # a quoted LF at a block's end
    b"", HEADER_LF + b'a,b,2006,2005,1\nb,a,2006,2005,"2\n"\na,b,2006,2005,1\n', JOURNAL_SETS[0], 4)
@example(  # an unknown id in a later block, before a malformed row
    b"", HEADER_LF + b"a,b,2006,2005,1\nb,a,2006,2005,1\nzz,a,2006,2005,1\na,b,2006,x,1\n",
    JOURNAL_SETS[0], 20)
@example(  # a row one field short in a later block
    b"", HEADER_LF + b"a,b,2006,2005,1\nb,a,2006,2005,1\na,b,2006,2005\n", JOURNAL_SETS[0], 20)
@example(  # a running total past 2**53 only across blocks, read to the end
    b"", HEADER_LF + b"a,b,2006,2005,9007199254740000\nb,a,2006,2005,992\na,b,2006,2005,1\n",
    JOURNAL_SETS[0], 8)
@example(  # the same, then a malformed row in a later block
    b"", HEADER_LF + b"a,b,2006,2005,9007199254740000\nb,a,2006,2005,992\na,b,2006,2005,1\n"
    b"a,b,x,2005,1\n", JOURNAL_SETS[0], 8)
@example(  # a running total past 2**53 in the block of a malformed row, from an earlier block's
    b"", HEADER_LF + b"a,b,2006,2005,9007199254740000\nb,a,2006,2005,993\na,b,2006,2005,x\n",
    JOURNAL_SETS[0], 18)
@example(  # ascending ids, with one journal's rows split by a block end
    b"id,name,year,articles\na,Alpha,2005,1\na,Alpha,2006,2\nb,Beta,2006,3\n",
    b"citing,cited,citing_year,cited_year,count\na,b,2006,2005,1\n", JOURNAL_SETS[0], 16)
@example(  # ascending ids, with a conflicting name first seen in a later block
    b"id,name,year,articles\na,Alpha,2005,1\nb,Beta,2006,3\nb,Bet,2005,3\n", b"",
    JOURNAL_SETS[0], 16)
@settings(max_examples=300, deadline=None)
def test_parser_matches_the_csv_reference_in_small_blocks(journals_raw, citations_raw, journals,
                                                          chunk_bytes):
    """Read in blocks of a few bytes, so that every drawn file spans many, the
    parser still reads each file as the reference does."""
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk_bytes):
        assert_reads_as_the_reference(journals_raw, citations_raw, journals)


def test_a_long_journal_id_does_not_multiply_the_parse_memory():
    """Fixed-width id columns sized by a 5,000-byte id would take 625 times the
    citations file; such a file's ids are as wide as each part's own."""
    journals = f"id,name,year,articles\na,A,2006,1\nb,B,2006,1\n{'x' * 5000},Long,2006,1\n"
    citations = "citing,cited,citing_year,cited_year,count\n" + 2_000 * (
        "a,b,2006,2005,1\nb,a,2006,2004,2\n"
    )
    tracemalloc.start()
    try:
        corpus = parse_strings(journals, citations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert citation_rows(corpus) == [("a", "b", 2006, 2005, 2_000), ("b", "a", 2006, 2004, 4_000)]
    assert peak < 32 * len(citations)


QUOTED_JOURNALS = "id,name,year,articles\na,A,2006,1\nb,B,2006,1\n"
QUOTED_CITATIONS = '"citing","cited","citing_year","cited_year","count"\n' + 2_000 * (
    '"a","b","2006","2005","1"\n"b","a","2006","2004","2"\n'
)


def test_an_all_quoted_citations_file_is_read_with_fixed_width_ids():
    """Quoted ids are read as fixed-width bytes, as unquoted ones are, so the
    parse peaks at a few times the file's size."""
    tracemalloc.start()
    try:
        corpus = parse_strings(QUOTED_JOURNALS, QUOTED_CITATIONS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert citation_rows(corpus) == [("a", "b", 2006, 2005, 2_000), ("b", "a", 2006, 2004, 4_000)]
    assert peak < 6 * len(QUOTED_CITATIONS)


def test_an_all_quoted_citations_file_on_disk_is_read_with_fixed_width_ids(tmp_path):
    """The same file read from disk: the census reads no more than the bytes
    left, where a buffered read of a whole block first allocates the block."""
    (tmp_path / "journals.csv").write_text(QUOTED_JOURNALS)
    (tmp_path / "citations.csv").write_text(QUOTED_CITATIONS)
    corpus, peak = traced_peak(lambda: load_corpus(tmp_path / "journals.csv",
                                                   tmp_path / "citations.csv"))
    assert citation_rows(corpus) == [("a", "b", 2006, 2005, 2_000), ("b", "a", 2006, 2004, 4_000)]
    assert peak < 6 * len(QUOTED_CITATIONS)


def traced_peak(read):
    """What `read()` returns, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return read(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def generated_files(tmp_path_factory):
    """A generated corpus of about 58k records, and its journals.csv and
    citations.csv, whose 1.6 MB span 25 blocks of 64 KiB."""
    corpus = generate(GenSettings(n_journals=1000, years=(2002, 2006), skew_exponent=0.6,
                                  mean_out_citations=100, seed=5))
    path = tmp_path_factory.mktemp("generated")
    write_corpus(corpus, path / "journals.csv", path / "citations.csv")
    return corpus, path


def test_a_citations_file_is_read_block_by_block_into_its_columns(generated_files):
    """A read holds the five int64 columns and a block: not the whole file, nor
    a table of all its rows."""
    corpus, path = generated_files
    journals = _parse_journals(io.BytesIO((path / "journals.csv").read_bytes()))
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", 2**16), \
            open(path / "citations.csv", "rb") as citations:
        loaded, peak = traced_peak(lambda: _parse_citations(journals, citations))
    assert same_corpus(loaded, corpus)
    assert peak < 1.5 * len(COLUMNS) * 8 * corpus.n_records


def test_a_bad_last_row_costs_less_than_twice_the_read(generated_files):
    """Only the block of a bad row is read again with the csv module."""
    corpus, path = generated_files
    journals = _parse_journals(io.BytesIO((path / "journals.csv").read_bytes()))
    good = (path / "citations.csv").read_bytes()
    bad = good + f"{corpus.ids[0]},{corpus.ids[1]},2006,2005,x\n".encode()
    peaks = []
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", 2**16):
        for raw in (good, bad):
            result, peak = traced_peak(lambda: outcome(lambda: [_parse_citations(
                journals, io.BytesIO(raw))]))
            peaks.append(peak)
    assert result[:2] == ("error", bad.count(b"\n"))
    assert "malformed" in result[2]
    assert peaks[1] < 2 * peaks[0]


def test_a_bad_last_journals_row_costs_less_than_twice_the_read(generated_files):
    """Only the block of a bad journals row is read again with the csv module,
    not the whole file."""
    _, path = generated_files
    good = (path / "journals.csv").read_bytes()
    bad = good + b"J000999,Journal 000999,2007,x\n"
    outcome(lambda: _parse_journals(io.BytesIO(bad)))  # imports the modules the re-read uses
    peaks = []
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", 2**14):
        for raw in (good, bad):
            result, peak = traced_peak(lambda: outcome(lambda: _parse_journals(io.BytesIO(raw))))
            peaks.append(peak)
    assert result[:2] == ("error", bad.count(b"\n"))
    assert "malformed" in result[2]
    assert peaks[1] < 2 * peaks[0]


def test_a_crlf_is_one_line_break_in_the_census(generated_files):
    """The census counts the line breaks of a CRLF file as those of its LF copy,
    so the columns allocated from it are not twice the rows."""
    _, path = generated_files
    lf = (path / "citations.csv").read_bytes()
    crlf = lf.replace(b"\n", b"\r\n")
    assert corpus_module._census(io.BytesIO(crlf))[-1][1] == lf.count(b"\n")
    assert corpus_module._census(io.BytesIO(lf))[-1][1] == lf.count(b"\n")


def test_a_journals_file_is_read_block_by_block(generated_files):
    """A read holds the three int64 article columns, each journal's id and
    name, and a block: not a table of the whole file's strings, which took
    5.4 times the file."""
    corpus, path = generated_files
    raw = (path / "journals.csv").read_bytes()
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", 2**14):  # about 10 blocks
        fields, peak = traced_peak(lambda: _parse_journals(io.BytesIO(raw)))
    assert fields[:2] == (corpus.ids, corpus.names)
    assert all(np.array_equal(got, want) for got, want in zip(fields[2:], (
        corpus.article_journal, corpus.article_year, corpus.article_count)))
    assert peak < 2.5 * len(raw)


def test_a_long_journal_name_does_not_multiply_the_journals_parse_memory():
    """Fixed-width name fields sized by a 5,000-byte name would take 240 times
    the journals file; such a block is split until its parts' fields fit."""
    raw = ("id,name,year,articles\n" + "".join(f"j{i:04d},J{i},2006,1\n" for i in range(2000))
           + f"x,{'L' * 5000},2006,1\n").encode()
    fields, peak = traced_peak(lambda: _parse_journals(io.BytesIO(raw)))
    assert fields[1][-2:] == ("J1999", "L" * 5000)
    assert peak < 16 * len(raw)


def test_a_shuffled_journals_file_reads_as_the_sorted_one(generated_files):
    """Rows whose ids do not ascend, so that a journal's rows form many runs,
    are grouped into the same fields as the file write_corpus wrote."""
    _, path = generated_files
    header, *rows = (path / "journals.csv").read_bytes().splitlines(keepends=True)
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled = header + b"".join(rows[i] for i in order)
    ids, names, journal, year, count = _parse_journals(io.BytesIO(shuffled))
    expected = _parse_journals(io.BytesIO(header + b"".join(rows)))
    assert (ids, names) == expected[:2]
    assert sorted(zip(journal.tolist(), year.tolist(), count.tolist())) == sorted(
        zip(*(column.tolist() for column in expected[2:])))


NO_NUL_IDS = st.binary(min_size=1, max_size=8).filter(lambda b: b"\0" not in b)


@given(st.sets(NO_NUL_IDS, min_size=1, max_size=12), st.lists(NO_NUL_IDS, max_size=6))
@example({b"a", b"ab", b"abc", b"a\x80", b"\xff"}, [b"abcd", b"\x80"])  # prefixes, high bytes
@example({b"J000000", b"J000001"}, [b"J000000x", b"J00000"])  # one byte past every id
@example({b"0028-083", b"\xf0\x9f\x98\x80" * 2, b"a"}, [b"0028-0836"[:8]])  # 8-byte ids
@settings(max_examples=200, deadline=None)
def test_journal_positions_agree_as_uint64_and_as_bytes(ids, others):
    """8-byte fields are looked up as uint64 values, and wider ones as bytes;
    both give the same positions, or name the same first unknown id."""
    keys = np.array(sorted(ids), dtype="S8")
    names = np.array(sorted(ids, reverse=True) + others, dtype="S8")
    results = []
    for dtype in ("S8", "S9"):
        with mock.patch.object(corpus_module, "_positions",
                               wraps=corpus_module._positions) as positions:
            results.append(outcome(lambda: [corpus_module.journal_positions(
                keys.astype(dtype), names.astype(dtype))]))
        assert positions.call_args.args[0].dtype == (np.uint64 if dtype == "S8" else dtype)
    assert results[0] == results[1]
    unknown = [name for name in others if name not in ids]
    expected = ("error", None, f"unknown journal id {np.bytes_(unknown[0])!r}") if unknown else [
        [sorted(ids).index(name) for name in names.tolist()]]
    assert results[0] == expected


def test_a_citations_file_that_cannot_seek_is_read():
    """A pipe is read whole before the reader's two passes."""
    journals = _parse_journals(io.BytesIO(JOURNALS_3.encode("utf-8")))
    read_end, write_end = os.pipe()
    os.write(write_end, b"\xef\xbb\xbfciting,cited,citing_year,cited_year,count\na,b,2006,2005,2\n")
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        assert citation_dict(_parse_citations(journals, pipe)) == {("a", "b", 2006, 2005): 2}


def test_journal_numbers_beside_a_bare_row_are_read_by_numpy():
    """A row with empty year and articles is cut from the text numpy's integer
    reader reads, which then reads every other row's numbers."""
    raw = b"id,name,year,articles\na,Alpha,2005,10\nx,No Data,,\n\nb,Beta, 2006 ,+5"
    with mock.patch.object(corpus_module, "_text_integers", side_effect=AssertionError):
        ids, names, journal, year, count = _parse_journals(io.BytesIO(raw))
    assert (ids, names) == (("a", "b", "x"), ("Alpha", "Beta", "No Data"))
    assert (journal.tolist(), year.tolist(), count.tolist()) == ([0, 1], [2005, 2006], [10, 5])


def test_quoted_journal_names_with_commas_are_read_as_fixed_width_bytes():
    """Only commas outside quotes split the fields whose widths the fixed-width
    read takes, so quoted names that hold commas or quotes are read whole."""
    raw = ('id,name,year,articles\n"a",Alpha,2005,1\na,"Alpha",2006,2\n'
           'b,"Beta, ""Applied""",2006,3\nc,"Gamma, Pure and Applied",2006,4\n'
           + "".join(f'j{i:02d},"J, {i}",2006,1\n' for i in range(20))).encode()
    ids, names, journal, year, count = _parse_journals(io.BytesIO(raw))
    assert (ids[:3], names[:3]) == (("a", "b", "c"),
                                    ("Alpha", 'Beta, "Applied"', "Gamma, Pure and Applied"))
    assert names[3:] == tuple(f"J, {i}" for i in range(20))
    assert (journal[:4].tolist(), year[:4].tolist(), count[:4].tolist()) == (
        [0, 0, 1, 2], [2005, 2006, 2006, 2006], [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# parse errors carry line numbers


JOURNAL_ERRORS = [
    ("id,name,year\n", 1, "header"),
    ("id,name,year,articles\na,Alpha,2006\n", 2, "4 fields"),
    ("id,name,year,articles\n,Anon,2006,1\n", 2, "empty journal id"),
    ("id,name,year,articles\na,Alpha,2006,1\na,Alias,2005,2\n", 3, "conflicting names"),
    ("id,name,year,articles\na,Alpha,2006,1\na,Alpha,2006,2\n", 3, "duplicate journal id"),
    ("id,name,year,articles\na,Alpha,two-thousand,1\n", 2, "malformed"),
    # journals.csv reads year and articles with the citations grammar
    ("id,name,year,articles\na,Alpha,2_005,1\n", 2, "malformed"),
    ("id,name,year,articles\na,Alpha,2005,1_0\n", 2, "malformed"),
    ("id,name,year,articles\na,Alpha,\u0662\u0660\u0660\u0665,1\n", 2, "malformed"),
    ("id,name,year,articles\na,Alpha,2005,1.0\n", 2, "malformed"),
    ("id,name,year,articles\na,Alpha,9223372036854775808,1\n", 2, "int64 range"),
    ("id,name,year,articles\na,Alpha,2006,-1\n", 2, "negative article count"),
    ("id,name,year,articles\na,Alpha,2006,9007199254740993\n", 2, "above 2**53"),
    # a row with a malformed number still has its name checked
    ("id,name,year,articles\na,Alpha,2006,1\na,Alias,x,2\n", 3, "conflicting names"),
    ("id,name,year,articles\na,Alpha,2006,1,7\n", 2, "4 fields, got 5"),
    ('id,name,year,articles\n"a\nb",Alpha,2006,1\n', 3, "NUL, CR or LF"),
    ("id,name,year,articles\na,Alpha,\u00a02006,1\n", 2, "malformed"),
    ("id,name,year,articles\na,Alpha,2006,1\u0085\n", 2, "malformed"),
    # a quoted quote in a number is not a number, beside a row without article data
    ('id,name,year,articles\na,A,2005,"""5"""\nx,No Data,,\n', 2, "malformed"),
    # problems across blocks: a conflicting name before a later malformed number,
    # and a (journal, year) repeated lines after its first row
    ("id,name,year,articles\na,Alpha,2004,1\nb,Beta,2004,1\na,Alias,2005,1\nc,Gamma,2005,1\n"
     "d,Delta,2006,x\n", 4, "conflicting names"),
    ("id,name,year,articles\na,Alpha,2004,1\nb,Beta,2004,1\nc,Gamma,2004,1\nd,Delta,2004,1\n"
     "a,Alpha,2004,2\n", 6, "duplicate journal id 'a' for year 2004"),
]


@pytest.mark.parametrize("journals_text, line, fragment", JOURNAL_ERRORS)
def test_parse_journal_errors(journals_text, line, fragment):
    with pytest.raises(CorpusError) as exc:
        parse_strings(journals_text, "")
    assert exc.value.line == line
    assert fragment in str(exc.value)


CITATION_ERRORS = [
    ("citing,cited,citing_year,count\n", 1, "header"),
    ("citing,cited,citing_year,cited_year,count\na,b,2006,2005\n", 2, "5 fields"),
    ("citing,cited,citing_year,cited_year,count\nzz,b,2006,2005,1\n", 2, "unknown journal id"),
    ("citing,cited,citing_year,cited_year,count\na,zz,2006,2005,1\n", 2, "unknown journal id"),
    ("citing,cited,citing_year,cited_year,count\naa,b,2006,2005,1\n", 2, "unknown journal id 'aa'"),
    # NUL, CR and LF are never part of a field
    ("citing,cited,citing_year,cited_year,count\na\x00,b,2006,2005,1\n", 2, "NUL, CR or LF"),
    # a row that spans lines is reported at the line it ends on
    ('citing,cited,citing_year,cited_year,count\na,b,2006,2005,1\n"x\ry",b,2006,2005,1\n',
     4, "NUL, CR or LF"),
    ('citing,cited,citing_year,cited_year,count\na,b,2006,"2005\n",1\n', 3, "NUL, CR or LF"),
    # the blanks around a number are ASCII, or \x1c to \x1f
    ("citing,cited,citing_year,cited_year,count\na,b,2006,2005,\u00a05\n", 2, "malformed"),
    ("citing,cited,citing_year,cited_year,count\na,b,2006,2005\u0085,1\n", 2, "malformed"),
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
]


@pytest.mark.parametrize("citations_text, line, fragment", CITATION_ERRORS)
def test_parse_citation_errors(citations_text, line, fragment):
    with pytest.raises(CorpusError) as exc:
        parse_strings(JOURNALS_3, citations_text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize("chunk_bytes", [1, 64])
@pytest.mark.parametrize("journals_text, line, fragment", JOURNAL_ERRORS)
def test_parse_journal_errors_in_small_blocks(journals_text, line, fragment, chunk_bytes):
    """journals.csv is read block by block, as citations.csv is, so a bad row
    is found, and its line named, in any block."""
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk_bytes):
        test_parse_journal_errors(journals_text, line, fragment)


@pytest.mark.parametrize("chunk_bytes", [1, 64])
@pytest.mark.parametrize("citations_text, line, fragment", CITATION_ERRORS)
def test_parse_citation_errors_in_small_blocks(citations_text, line, fragment, chunk_bytes):
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk_bytes):
        test_parse_citation_errors(citations_text, line, fragment)


def test_invalid_utf8_is_an_error_naming_its_line():
    journals = _parse_journals(io.BytesIO(JOURNALS_3.encode("utf-8")))
    with pytest.raises(CorpusError, match="^line 3: not valid UTF-8"):
        _parse_citations(journals, io.BytesIO(
            b"citing,cited,citing_year,cited_year,count\r\n\r\n\xff,b\n"))


@pytest.mark.parametrize("body, line", [
    (b"\r\na,b,2006,2005,1\r\n\xff,b\n", 4),
    # before any row is read: a malformed row in an earlier block is not the error
    (b"a,b,2006,2005,x\na,b,2006,2005,1\n\xe9\n", 4),
])
def test_invalid_utf8_in_a_later_block_names_its_line(body, line):
    journals = _parse_journals(io.BytesIO(JOURNALS_3.encode("utf-8")))
    citations = io.BytesIO(b"citing,cited,citing_year,cited_year,count\r\n" + body)
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", 4):
        with pytest.raises(CorpusError, match=f"^line {line}: not valid UTF-8"):
            _parse_citations(journals, citations)


def test_parse_error_message_prefixes_line_number():
    with pytest.raises(CorpusError, match=r"^line 2: "):
        parse_strings("id,name,year,articles\na,Alpha,2006,-1\n", "")


# ---------------------------------------------------------------------------
# model validation


def test_journal_rejects_negative_articles():
    with pytest.raises(CorpusError, match="negative article count"):
        corpus_from([JournalRow(id="a", name="Alpha", articles_by_year={2006: -1})], [])


def test_journal_rejects_empty_id():
    with pytest.raises(CorpusError, match="non-empty"):
        corpus_from([JournalRow(id="", name="Anon")], [])


AB = [JournalRow("a", "Alpha"), JournalRow("b", "Beta")]


def test_record_rejects_zero_count():
    with pytest.raises(CorpusError):
        corpus_from(AB, [("a", "b", 2006, 2005, 0)])


def test_record_rejects_future_cited_year():
    with pytest.raises(CorpusError):
        corpus_from(AB, [("a", "b", 2005, 2006, 1)])


@pytest.mark.parametrize("ids", [("b", "a"), ("a", "a")])
def test_corpus_rejects_unsorted_or_repeated_ids(ids):
    with pytest.raises(CorpusError, match="sorted and unique"):
        Corpus(ids, ("Alpha", "Alias"), [], [], [], [], [], [], [], [])


@pytest.mark.parametrize("column", [[1.5], [True], np.array([2**63], dtype=np.uint64)])
def test_corpus_rejects_columns_that_are_not_int64(column):
    positions = np.zeros(len(column), dtype=np.int64)
    counts = np.ones(len(column), dtype=np.int64)
    journal = (("a",), ("Alpha",))
    no_articles = ([], [], [])
    with pytest.raises(CorpusError, match="integers"):
        Corpus(*journal, *no_articles, positions, positions, counts + 2005, column, counts)
    with pytest.raises(CorpusError, match="integers"):
        Corpus(*journal, *no_articles, positions, positions, counts + 2005, counts, column)
    with pytest.raises(CorpusError, match="integers"):
        Corpus(*journal, positions, counts + 2005, column, *[[]] * 5)


def test_corpus_rejects_citation_to_unknown_journal():
    with pytest.raises(CorpusError, match="unknown journal id"):
        corpus_from([JournalRow("a", "Alpha")], [("a", "b", 2006, 2005, 1)])


def test_article_rows_in_order_are_not_sorted_again():
    """Article rows already in (journal, year) order, as the reader returns
    them, take no lexsort; rows out of order still come out sorted."""
    journals = (("a", "b"), ("Alpha", "Beta"))
    rows = [[0, 0, 1], [2005, 2006, 2006], [10, 12, 5]]
    records = [[]] * 5
    with mock.patch.object(corpus_module.np, "lexsort", wraps=np.lexsort) as lexsort:
        corpus = Corpus(*journals, *rows, *records)
    assert lexsort.call_count == 0
    shuffled = Corpus(*journals, *([column[k] for k in (2, 1, 0)] for column in rows), *records)
    assert corpus_fields(shuffled) == corpus_fields(corpus) == (
        *journals, *rows, *records)


ROWS_IN_ORDER = [[0, 0, 1], [2005, 2006, 2006], [10, 12, 5]]
RECORDS_IN_ORDER = [[0, 0, 1], [1, 1, 0], [2006, 2006, 2006], [2004, 2005, 2005], [3, 4, 6]]


@pytest.mark.parametrize("given", ["article rows in order", "records in order", "slices"])
def test_writes_to_the_callers_arrays_leave_the_corpus_unchanged(given):
    """The columns are the constructor's own copies, even of int64 arrays that
    need no sort, so writes to the arrays it was given do not reach them."""
    journals = (("a", "b"), ("Alpha", "Beta"))
    rows = [np.array(column) for column in ROWS_IN_ORDER]
    records = [np.array(column) for column in RECORDS_IN_ORDER]
    if given == "article rows in order":
        records = [column[::-1] for column in records]
    elif given == "records in order":
        rows = [column[::-1] for column in rows]
    arrays = rows + records
    if given == "slices":  # each column a slice of one larger array, all in order
        whole = np.array([[0] * 3, *ROWS_IN_ORDER, *RECORDS_IN_ORDER]).ravel()
        arrays = [whole[3 * k:3 * k + 3] for k in range(1, 9)]
    corpus = Corpus(*journals, *arrays)
    for array in arrays:
        array += 1
    assert corpus_fields(corpus) == (*journals, *ROWS_IN_ORDER, *RECORDS_IN_ORDER)


def test_build_merges_records():
    corpus = build_corpus(
        [("a", {2006: 1}), ("b", {2006: 1})],
        [("a", "b", 2006, 2005, 2), ("a", "b", 2006, 2005, 3)],
    )
    assert citation_dict(corpus) == {("a", "b", 2006, 2005): 5}


def test_articles_in_sums_each_journals_years(toy_corpus):
    assert toy_corpus.ids == ("alpha", "beta", "delta", "gamma", "omega")
    assert toy_corpus.articles_in(CitationWindow(2006, span=2)).tolist() == [
        210.0, 105.0, 40.0, 60.0, 0.0]
    assert toy_corpus.articles_in(CitationWindow(2004, span=2)).tolist() == [0.0] * 5


def test_total_count_and_year_range(toy_corpus):
    assert toy_corpus.total_count() == 188
    assert toy_corpus.year_range() == (2004, 2006)


def test_year_range_none_when_no_years():
    assert corpus_from([JournalRow("a", "Alpha")], []).year_range() is None


def test_records_round_trip(toy_corpus):
    rebuilt = corpus_from(journal_dict(toy_corpus).values(), citation_rows(toy_corpus))
    assert same_corpus(rebuilt, toy_corpus)


# ---------------------------------------------------------------------------
# citation windows


def includes(window, citing_year, cited_year):
    corpus = build_corpus([("A", {}), ("B", {})], [("A", "B", citing_year, cited_year, 1)])
    return len(corpus.select(window)[2]) == 1


def test_window_all_years_includes_everything(toy_corpus):
    window = CitationWindow()
    assert includes(window, 2006, 2006)
    assert includes(window, 1990, 1970)
    columns = (toy_corpus.citing, toy_corpus.cited, toy_corpus.count)
    assert all(a is b for a, b in zip(toy_corpus.select(window), columns))


def test_window_cited_mode_bounds(toy_corpus):
    window = CitationWindow(2006, span=2)
    assert includes(window, 2006, 2005)
    assert includes(window, 2006, 2004)
    assert not includes(window, 2006, 2006)  # same-year citations never qualify
    assert not includes(window, 2006, 2003)
    assert not includes(window, 2005, 2004)  # wrong census year
    # the corpus's articles inside the window, however long the span
    assert window.cited_years == (2004, 2005)
    assert corpus_from([], []).articles_in(window).tolist() == []
    two_years = toy_corpus.articles_in(window).tolist()
    assert toy_corpus.articles_in(CitationWindow(2006, span=10**12)).tolist() == two_years


def test_window_all_years_articles_in(toy_corpus):
    assert CitationWindow().cited_years is None
    every_year = [330.0, 165.0, 65.0, 90.0, 15.0]  # 2004..2006
    assert toy_corpus.articles_in(CitationWindow()).tolist() == every_year
    assert toy_corpus.articles_in(CitationWindow(2007, span=3)).tolist() == every_year


@pytest.mark.parametrize(
    "kwargs",
    [
        {"census_year": 2006, "span": 0},
    ],
)
def test_window_validation(kwargs):
    with pytest.raises(ValueError):
        CitationWindow(**kwargs)


# ---------------------------------------------------------------------------
# serialization round-trips


def test_round_trip_toy(toy_corpus):
    jtext, ctext = serialize(toy_corpus)
    assert same_corpus(parse_strings(jtext, ctext), toy_corpus)


def test_round_trip_generated_50_journals():
    corpus = generate(GenSettings(n_journals=50, years=(2003, 2006), seed=11))
    jtext, ctext = serialize(corpus)
    assert same_corpus(parse_strings(jtext, ctext), corpus)


def test_round_trip_journal_without_article_data():
    corpus = corpus_from([JournalRow("x", "No Data")], [])
    jtext, ctext = serialize(corpus)
    assert "x,No Data,,\n" in jtext
    assert same_corpus(parse_strings(jtext, ctext), corpus)


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
        journals.append(JournalRow(id=jid, name=name, articles_by_year=years))
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
    assert same_corpus(parse_strings(jtext, ctext), corpus)


@given(corpora(), st.randoms())
@settings(max_examples=40, deadline=None)
def test_merge_order_independent(corpus, rnd):
    records = citation_rows(corpus)
    rnd.shuffle(records)
    rebuilt = corpus_from(journal_dict(corpus).values(), records)
    assert same_corpus(rebuilt, corpus)
    assert rebuilt.total_count() == corpus.total_count()


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Text a field must quote, or keep blanks around, or encode in more than one byte.
FIELD_TEXT = st.text(st.sampled_from([",", '"', " ", "\t", "a", "Z", "é", "ü", "中", "😀"]),
                     max_size=6)
YEARS = st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]), st.integers(1990, 2010),
                  st.integers(INT64_MIN, INT64_MAX))


@st.composite
def writer_corpora(draw):
    """Corpora built directly, with ids and names csv must quote, journals
    without article rows, int64-extreme years and counts up to 2**53."""
    ids = sorted(draw(st.sets(FIELD_TEXT.filter(bool), min_size=1, max_size=6)))
    names = [draw(FIELD_TEXT) for _ in ids]
    articles = [(j, year, draw(st.integers(0, 2**53)))
                for j in range(len(ids))
                for year in draw(st.sets(YEARS, max_size=3))]
    records, budget = [], 2**53
    for _ in range(draw(st.integers(0, 12))):
        if not budget:
            break
        years = sorted((draw(YEARS), draw(YEARS)))
        count = draw(st.integers(1, budget))
        budget -= count
        records.append((draw(st.integers(0, len(ids) - 1)), draw(st.integers(0, len(ids) - 1)),
                        years[1], years[0], count))
    columns = [np.array(column, dtype=np.int64).reshape(-1) for column in zip(*articles)] or [
        np.empty(0, dtype=np.int64)] * 3
    records = [np.array(column, dtype=np.int64).reshape(-1) for column in zip(*records)] or [
        np.empty(0, dtype=np.int64)] * 5
    return Corpus(tuple(ids), tuple(names), *columns, *records)


@given(writer_corpora(), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_writers_match_the_csv_reference(corpus, chunk_bytes):
    """dump_journals and dump_citations write what csv.writer writes row by
    row, however the rows fall into chunks."""
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk_bytes):
        written = serialize(corpus)
    expected = io.StringIO(), io.StringIO()
    csv_reference.write_journals(corpus, expected[0])
    csv_reference.write_citations(corpus, expected[1])
    assert written == (expected[0].getvalue(), expected[1].getvalue())


def lexsort_merged(citing, cited, citing_year, cited_year, count):
    """The records sorted by a four-key lexsort, with the counts of equal keys summed."""
    order = np.lexsort((cited_year, citing_year, cited, citing))
    keys = np.stack((citing, cited, citing_year, cited_year), axis=1)[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return (*keys[starts].T, np.add.reduceat(count[order], starts))


SPANS = st.sampled_from([0, 4, 2**20, 2**29, 2**30, 2**62])


@given(st.integers(0, 2**32), st.integers(2, 300), st.integers(1, 8), SPANS, SPANS)
@example(0, 50, 2, 2**30, 2**29)  # 1 + 1 + 31 + 30 bits: packed, to the sign bit
@example(0, 50, 2, 2**30, 2**30)  # 64 bits: lexsort
@settings(max_examples=150, deadline=None)
def test_merged_matches_a_lexsort_reference(seed, n, n_journals, citing_span, cited_span):
    """Shuffled records with repeated keys merge as a four-key lexsort merges
    them; keys whose ranges need more than 63 bits together cannot be packed
    into one int64, so lexsort sorts them."""
    rng = np.random.default_rng(seed)
    spans = (n_journals - 1, n_journals - 1, citing_span, cited_span)
    lows = [0, 0, *(int(rng.integers(INT64_MIN, INT64_MAX - s, endpoint=True)) for s in spans[2:])]
    keys = np.stack([low + rng.integers(0, s, n, endpoint=True) for low, s in zip(lows, spans)],
                    axis=1)
    keys[0], keys[-1] = lows, [low + s for low, s in zip(lows, spans)]  # each column spans its span
    rows = keys[np.r_[0, n - 1, rng.integers(0, n, 2 * n)]]  # about half the keys repeat
    rows = rows[rng.permutation(len(rows))]
    records = (*rows.T, rng.integers(1, 1000, len(rows)))
    with mock.patch.object(corpus_module.np, "lexsort", wraps=np.lexsort) as lexsort:
        merged = corpus_module._merged(*map(np.ascontiguousarray, records))
    expected = lexsort_merged(*records)
    assert len(merged) == len(expected) == 5
    for got, want in zip(merged, expected):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    unpackable = sum(span.bit_length() for span in spans) > 63
    assert lexsort.called == (unpackable and not _ascending(records))


def _ascending(records) -> bool:
    keys = np.stack(records[:4], axis=1).tolist()
    return keys == sorted(keys)
