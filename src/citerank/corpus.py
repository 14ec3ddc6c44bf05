"""Citation-network data model and CSV ingestion.

A :class:`Corpus` holds the sorted journal ids and their names, per-year
article counts as long-form int64 rows, and aggregated citation records as
int64 columns.  Records are journal-pair-year counts, not per-article
events; records with identical (citing, cited, citing_year, cited_year)
keys are merged by summing counts, so merging is idempotent and
order-independent.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import CorpusError

JOURNALS_HEADER = ["id", "name", "year", "articles"]
CITATIONS_HEADER = ["citing", "cited", "citing_year", "cited_year", "count"]

# Every count, merged count and corpus total stays at or below 2**53, so
# float64 sums of counts are exact and int64 sums cannot wrap.
MAX_COUNT = 2**53
_INT64 = range(-(2**63), 2**63)
# The integer fields numpy's loadtxt reads: ASCII digits, an optional sign,
# surrounding whitespace.  int() gets the number alone: it does not take
# every character \s matches (\x1c to \x1f) as whitespace.
_INTEGER = re.compile(r"\s*([+-]?[0-9]+)\s*")
_NON_BLANK = re.compile(rb"[^\r\n]")
# The first line and its ending, which may be \n, \r\n or a bare \r.
_FIRST_LINE = re.compile(rb"[^\r\n]*(\r\n|\r|\n)?")


@dataclass(frozen=True)
class CitationWindow:
    """Which citations count, and which publication years supply article counts.

    mode "cited-window": citations made in `census_year` to items published
    in the `span` preceding years, i.e. cited_year in
    [census_year - span, census_year - 1].
    mode "all-years": every record counts, article counts come from every
    year present in the data.
    """

    mode: str
    census_year: int | None = None
    span: int = 5

    def __post_init__(self):
        if self.mode not in ("cited-window", "all-years"):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == "cited-window":
            if self.census_year is None:
                raise ValueError("cited-window mode requires a census year")
            if self.span < 1:
                raise ValueError(f"window span must be >= 1, got {self.span}")

    @classmethod
    def all_years(cls) -> "CitationWindow":
        return cls(mode="all-years")

    @classmethod
    def cited(cls, census_year: int, span: int = 5) -> "CitationWindow":
        return cls(mode="cited-window", census_year=census_year, span=span)

    def mask(self, citing_years: np.ndarray, cited_years: np.ndarray) -> np.ndarray | None:
        """Which records the window includes; None means every record is in."""
        if self.mode == "all-years":
            return None
        lo = self.census_year - self.span
        return (
            (citing_years == self.census_year)
            & (cited_years >= lo)
            & (cited_years <= self.census_year - 1)
        )

    def publication_years(self, corpus: "Corpus") -> tuple[int, ...]:
        if self.mode == "cited-window":
            return tuple(range(self.census_year - self.span, self.census_year))
        return tuple(np.unique(corpus.article_year).tolist())

    def describe(self) -> str:
        if self.mode == "all-years":
            return "all-years"
        return f"census_year={self.census_year} span={self.span}"


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable set of journals, their article counts, and merged citation records.

    `ids` is the sorted journal ids and `names` their display names.  Article
    row i says journal `ids[article_journal[i]]` published `article_count[i]`
    articles in `article_year[i]`; a journal may have no article rows.
    Record i says journal `ids[citing[i]]` cited items that `ids[cited[i]]`
    published in `cited_year[i]`, `count[i]` times, in `citing_year[i]`.
    Construction validates every row, sorts the article rows by (journal,
    year), sorts the records by (citing, cited, citing_year, cited_year) and
    sums duplicate record keys; the columns are read-only, and instances are
    safe to share across threads.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    article_journal: np.ndarray
    article_year: np.ndarray
    article_count: np.ndarray
    citing: np.ndarray
    cited: np.ndarray
    citing_year: np.ndarray
    cited_year: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        ids, names = tuple(self.ids), tuple(self.names)
        if len(names) != len(ids):
            raise CorpusError(f"{len(ids)} journal ids need as many names, got {len(names)}")
        if not strictly_ascending(ids):
            raise CorpusError("journal ids must be sorted and unique")
        if ids[:1] == ("",):
            raise CorpusError("journal id must be non-empty")
        articles = _int64_columns([getattr(self, name) for name in ARTICLE_COLUMNS], "article")
        problem = _article_problem(ids, *articles)
        if problem is not None:
            raise CorpusError(problem[1])
        order = np.lexsort((articles[1], articles[0]))  # by journal, then year
        records = _int64_columns([getattr(self, name) for name in COLUMNS], "citation")
        problem = _first_problem(len(ids), *records)
        if problem is not None:
            raise CorpusError(problem[1])
        columns = [column[order] for column in articles] + list(_merged(*records))
        for name, column in zip(ARTICLE_COLUMNS + COLUMNS, columns):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "names", names)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.ids, self.names) == (other.ids, other.names) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ARTICLE_COLUMNS + COLUMNS
        )

    @property
    def n_journals(self) -> int:
        return len(self.ids)

    @property
    def n_records(self) -> int:
        return len(self.count)

    def total_count(self) -> int:
        return int(self.count.sum())

    def articles_in(self, years: Iterable[int]) -> np.ndarray:
        """Each journal's articles published in `years`, in `ids` order.

        float64, exact while each journal's sum stays at or below 2**53.
        """
        rows = np.isin(self.article_year, np.fromiter(years, dtype=np.int64))
        return np.bincount(
            self.article_journal[rows], weights=self.article_count[rows], minlength=self.n_journals
        )

    def select(
        self, window: CitationWindow, include_self: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(citing, cited, count) of the records in `window`, self-citations
        dropped unless `include_self`."""
        mask = window.mask(self.citing_year, self.cited_year)
        if not include_self:
            non_self = self.citing != self.cited
            mask = non_self if mask is None else (mask & non_self)
        if mask is None:
            return self.citing, self.cited, self.count
        return self.citing[mask], self.cited[mask], self.count[mask]

    def year_range(self) -> tuple[int, int] | None:
        """(min, max) over article years and citation years; None if no years at all."""
        columns = [c for c in (self.article_year, self.citing_year, self.cited_year) if len(c)]
        if not columns:
            return None
        return min(int(c.min()) for c in columns), max(int(c.max()) for c in columns)


ARTICLE_COLUMNS = ("article_journal", "article_year", "article_count")
COLUMNS = ("citing", "cited", "citing_year", "cited_year", "count")


def strictly_ascending(ids: tuple[str, ...]) -> bool:
    """Whether the ids are sorted and unique, compared as Python strings."""
    keys = np.array(ids, dtype=object)
    return bool((keys[1:] > keys[:-1]).all())


def _int64_columns(columns: list, what: str) -> list[np.ndarray]:
    """The columns as int64 arrays; CorpusError unless they are one-dimensional,
    of equal length, and hold integers that fit in int64."""
    columns = [np.asarray(c) for c in columns]
    if any(c.size and (c.dtype.kind not in "iu" or not np.can_cast(c.dtype, np.int64))
           for c in columns):
        raise CorpusError(f"{what} columns must hold integers that fit in int64")
    columns = [np.ascontiguousarray(c, dtype=np.int64) for c in columns]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise CorpusError(f"{what} columns must be one-dimensional and of equal length")
    return columns


def _first_hit(checks) -> tuple[int, str] | None:
    """(row, reason) for the first row any (mask, reason) check flags.

    Of checks that flag the same row, the earlier in `checks` wins.
    """
    hits = [(int(bad.argmax()), reason) for bad, reason in checks if bad.any()]
    if not hits:
        return None
    row, reason = min(hits, key=lambda hit: hit[0])
    return row, reason(row)


def _article_problem(ids, journal, year, count) -> tuple[int, str] | None:
    """(row, reason) for the first article row that breaks an invariant; None if all hold.

    The invariants: the journal exists, 0 <= count <= 2**53, and no row
    repeats the (journal, year) of an earlier one.
    """
    order = np.lexsort((year, journal))  # stable, so a repeat sorts after its first row
    _, repeats = _key_order((journal[order], year[order]))
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[repeats]] = True
    return _first_hit((
        ((journal < 0) | (journal >= len(ids)),
         lambda i: f"article row references unknown journal position {journal[i]}"),
        (count < 0, lambda i: f"negative article count {count[i]}"),
        (count > MAX_COUNT, lambda i: f"article count {count[i]} is above 2**53"),
        (repeated, lambda i: f"duplicate journal id {ids[journal[i]]!r} for year {year[i]}"),
    ))


def _first_problem(n_journals, citing, cited, citing_year, cited_year, count):
    """(row, reason) for the first record that breaks an invariant; None if all hold.

    The invariants: both journals exist, 1 <= count <= 2**53, cited_year <=
    citing_year, and the running total of counts stays at or below 2**53
    (which bounds every merged count too).
    """
    # Clipping keeps the running sum from wrapping before it first passes the bound.
    running = np.cumsum(np.clip(count, 0, MAX_COUNT + 1))
    return _first_hit((
        ((citing < 0) | (citing >= n_journals) | (cited < 0) | (cited >= n_journals),
         lambda i: f"citation references unknown journal position {citing[i]} or {cited[i]}"),
        ((count < 1) | (count > MAX_COUNT),
         lambda i: f"citation count must be >= 1 and <= 2**53, got {count[i]}"),
        (cited_year > citing_year,
         lambda i: f"cited_year {cited_year[i]} is after citing_year {citing_year[i]}"),
        (running > MAX_COUNT, lambda i: "the running total of citation counts passes 2**53"),
    ))


def _merged(citing, cited, citing_year, cited_year, count) -> tuple[np.ndarray, ...]:
    """Sort the records by key and sum the counts of equal keys.

    Input already in key order, as `write_corpus` writes it, skips the sort.
    """
    keys = (citing, cited, citing_year, cited_year)
    ascending, repeats = _key_order(keys)
    if not ascending:
        order = np.lexsort(keys[::-1])
        keys = tuple(k[order] for k in keys)
        count = count[order]
        _, repeats = _key_order(keys)
    if repeats.any():
        starts = np.flatnonzero(~repeats)
        keys = tuple(k[starts] for k in keys)
        count = np.add.reduceat(count, starts)
    return (*keys, count)


def _key_order(keys: tuple[np.ndarray, ...]) -> tuple[bool, np.ndarray]:
    """Whether the rows are in ascending key order, and which rows repeat the previous key."""
    n = max(len(keys[0]) - 1, 0)
    later = np.zeros(n, dtype=bool)
    equal = np.ones(n, dtype=bool)
    for k in keys:
        later |= equal & (k[1:] > k[:-1])
        equal &= k[1:] == k[:-1]
    repeats = np.zeros(len(keys[0]), dtype=bool)
    repeats[1:] = equal
    return bool((later | equal).all()), repeats


def journal_positions(ids: np.ndarray, names: np.ndarray) -> np.ndarray:
    """Positions of `names` in the sorted array `ids`; CorpusError on an unknown name."""
    positions = np.searchsorted(ids, names)
    known = positions < len(ids)
    known[known] = ids[positions[known]] == names[known]
    if not known.all():
        raise CorpusError(f"unknown journal id {names[np.argmin(known)]!r}")
    return positions


def _check_header(row: list[str] | None, expected: list[str], what: str) -> None:
    if row != expected:
        raise CorpusError(
            f"{what} file must start with header {','.join(expected)!r}", line=1
        )


def _data_rows(source: IO[str], expected: list[str], what: str):
    """(line, row) for each non-blank row after the header, checking the
    header and each row's field count."""
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        return
    _check_header(header, expected, what)
    for row in reader:
        if not row:
            continue
        if len(row) != len(expected):
            raise CorpusError(
                f"{what} row needs {len(expected)} fields, got {len(row)}", line=reader.line_num
            )
        yield reader.line_num, row


def _integers(row: list[str], line: int) -> list[int]:
    """The row's fields from the third on as integers, under the grammar
    loadtxt reads and within int64."""
    matches = list(map(_INTEGER.fullmatch, row[2:]))
    if not all(matches):
        raise CorpusError(f"malformed numeric field in {row!r}", line=line)
    numbers = [int(match[1]) for match in matches]
    if not all(map(_INT64.__contains__, numbers)):
        raise CorpusError(f"numeric field outside the int64 range in {row!r}", line=line)
    return numbers


def _loadtxt_table(
    raw: bytes, expected: list[str], what: str, dtype, ndmin: int = 1, usecols=None
) -> np.ndarray:
    """The rows after the header, read by numpy's C parser.

    Raises ValueError, csv.Error or CorpusError for a file it cannot read.
    Only call it on ASCII input without NUL bytes: numpy's integer parser
    reads some non-ASCII characters as digits.
    """
    body_start = _FIRST_LINE.match(raw).end()
    header = next(csv.reader([raw[:body_start].decode("ascii")]), None)
    _check_header(header, expected, what)
    if _NON_BLANK.search(raw, body_start) is None:
        return np.empty((0, len(expected))[:ndmin], dtype=dtype)  # loadtxt would warn
    body = io.BytesIO(raw)
    body.seek(body_start)
    return np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=ndmin,
                      usecols=usecols, encoding="ascii", dtype=dtype)


def _loadtxt_journals(raw: bytes) -> tuple:
    """The Corpus journal fields of journals.csv, read by numpy's C parser.

    Every field is read as numpy's variable-width strings: a fixed width
    would size every row by the longest name.  Raises ValueError, csv.Error
    or CorpusError for any file it cannot read; the caller then parses row
    by row.
    """
    text = _loadtxt_table(raw, JOURNALS_HEADER, "journals", np.dtypes.StringDType(), ndmin=2)
    if text.shape[1:] != (len(JOURNALS_HEADER),):
        raise ValueError(f"journals rows need {len(JOURNALS_HEADER)} fields")
    data = (text[:, 2] != "") | (text[:, 3] != "")  # else a journal without article data
    if data.all():  # numpy's integer reader is three times faster, but fails on empty fields
        numbers = _loadtxt_table(raw, JOURNALS_HEADER, "journals", np.int64, ndmin=2,
                                 usecols=(2, 3))
    else:
        numbers = np.zeros((len(text), 2), dtype=np.int64)
        numbers[data] = _text_integers(text[data, 2:])
    return _journal_columns(text[:, 0], text[:, 1], data, numbers[:, 0], numbers[:, 1])


def _text_integers(fields: np.ndarray) -> np.ndarray:
    """ASCII string fields as int64, under the grammar of `_integers`.

    Raises ValueError for a field outside that grammar or the int64 range.
    """
    stripped = np.strings.strip(fields)  # the whitespace \s matches
    unsigned = np.strings.lstrip(stripped, "+-")
    signs = np.strings.str_len(stripped) - np.strings.str_len(unsigned)
    if not (np.strings.isdigit(unsigned) & (signs <= 1)).all():
        raise ValueError("malformed numeric field")
    try:
        return stripped.astype(np.int64)
    except OverflowError as exc:
        raise ValueError("numeric field outside the int64 range") from exc


def _row_journals(raw: bytes) -> tuple:
    """The Corpus journal fields of journals.csv, read row by row with the csv module.

    Accepts the same grammar as `_loadtxt_journals` and raises a CorpusError
    naming the first offending line.
    """
    source = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    rows: list[tuple] = []
    lines: list[int] = []
    error = None
    try:
        for line, row in _data_rows(source, JOURNALS_HEADER, "journals"):
            lines.append(line)
            # A row with malformed numbers still has its id and name checked.
            rows.append((row[0], row[1], False, 0, 0))
            if row[2:] != ["", ""]:
                rows[-1] = (row[0], row[1], True, *_integers(row, line))
    except CorpusError as exc:
        error = exc
    columns = list(zip(*rows)) or [()] * 5
    types = (object, object, bool, np.int64, np.int64)
    # A row before the first malformed one may break an invariant first.
    journals = _journal_columns(*(np.array(c, dtype=t) for c, t in zip(columns, types)), lines)
    if error is not None:
        raise error
    return journals


def _journal_columns(row_ids, row_names, data, year, count, lines=None) -> tuple:
    """The Corpus journal fields (ids, names, article_journal, article_year,
    article_count) of journals.csv rows.

    The rows are given as columns: id, name, whether the row carries a year
    and an article count, the year and the count (0 where it does not).
    Raises a CorpusError for the first row with an empty id, a name other
    than its id's first, or an article count or year the Corpus rejects,
    naming its line when `lines` is given.
    """
    ids, first, journal = np.unique(row_ids, return_index=True, return_inverse=True)
    names = row_names[first]
    hits = [_first_hit((
        (row_ids == "", lambda i: "empty journal id"),
        (row_names != names[journal],
         lambda i: f"journal {row_ids[i]!r} listed with conflicting names "
                   f"{names[journal[i]]!r} and {row_names[i]!r}"),
    ))]
    rows = np.flatnonzero(data)
    article = _article_problem(ids, journal[rows], year[rows], count[rows])
    if article is not None:
        hits.append((int(rows[article[0]]), article[1]))
    problem = min(filter(None, hits), key=lambda hit: hit[0], default=None)
    if problem is not None:
        raise CorpusError(problem[1], line=None if lines is None else lines[problem[0]])
    return tuple(ids.tolist()), tuple(names.tolist()), journal[rows], year[rows], count[rows]


def _parse_journals(raw: bytes) -> tuple:
    """Journal rows are `id,name,year,articles`, one per (journal, year); a row
    with empty year and articles declares a journal with no article data.
    A UTF-8 byte order mark is ignored."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    if raw.isascii() and b"\0" not in raw:
        try:
            return _loadtxt_journals(raw)
        except (ValueError, csv.Error, CorpusError):
            pass  # the row loop names the offending line
    return _row_journals(raw)


def _no_records() -> tuple[np.ndarray, ...]:
    return tuple(np.empty(0, dtype=np.int64) for _ in COLUMNS)


def _loadtxt_columns(raw: bytes, ids: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Citation columns read by numpy's C parser.

    Raises ValueError, csv.Error or CorpusError for any file it cannot read,
    or whose id columns would take more memory than the file; the caller then
    parses row by row.  Only call it on ASCII input without NUL bytes, and ids
    without NULs: fixed-width byte strings drop trailing NULs.
    """
    # No id contains a NUL, so joining on it and splitting the encoded text
    # encodes each id.
    encoded = np.array("\0".join(ids).encode("utf-8").split(b"\0") if ids else [], dtype=bytes)
    # One byte wider than the longest id, so a longer name cannot truncate onto a known id.
    width = encoded.itemsize + 1
    # The two id columns must fit in the file's size, or one long id would
    # multiply the memory by the record count.  A line ends in \n, \r\n or \r.
    if 2 * width * (max(raw.count(b"\n"), raw.count(b"\r")) + 1) > len(raw):
        raise ValueError("the fixed-width id columns would outgrow the file")
    table = _loadtxt_table(
        raw, CITATIONS_HEADER, "citations",
        [("citing", f"S{width}"), ("cited", f"S{width}"),
         ("citing_year", np.int64), ("cited_year", np.int64), ("count", np.int64)],
    )
    return (
        journal_positions(encoded, table["citing"]),
        journal_positions(encoded, table["cited"]),
        *(np.ascontiguousarray(table[name]) for name in COLUMNS[2:]),
    )


def _row_columns(raw: bytes, ids: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Citation columns read row by row with the csv module.

    Accepts the same grammar as `_loadtxt_columns` and raises a CorpusError
    naming the first offending line.
    """
    source = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    index = {jid: i for i, jid in enumerate(ids)}
    rows: list[tuple[int, ...]] = []
    lines: list[int] = []
    error = None
    try:
        for line, row in _data_rows(source, CITATIONS_HEADER, "citations"):
            if unknown := [name for name in row[:2] if name not in index]:
                raise CorpusError(f"unknown journal id {unknown[0]!r}", line=line)
            rows.append((index[row[0]], index[row[1]], *_integers(row, line)))
            lines.append(line)
    except CorpusError as exc:
        error = exc
    columns = tuple(np.array(c, dtype=np.int64) for c in zip(*rows)) or _no_records()
    # A record before the first malformed row may break an invariant first.
    problem = _first_problem(len(ids), *columns)
    if problem is not None:
        raise CorpusError(problem[1], line=lines[problem[0]])
    if error is not None:
        raise error
    return columns


def _parse_citations(journals: tuple, raw: bytes) -> Corpus:
    """Citation rows are `citing,cited,citing_year,cited_year,count`; duplicate
    keys are merged by summing counts.  A UTF-8 byte order mark is ignored.

    `journals` is the Corpus journal fields, ids first.
    """
    raw = raw.removeprefix(codecs.BOM_UTF8)
    ids = journals[0]
    joined = "".join(ids)
    if raw.isascii() and b"\0" not in raw and '"' not in joined and "\0" not in joined:
        try:
            return Corpus(*journals, *_loadtxt_columns(raw, ids))
        except (ValueError, csv.Error, CorpusError):
            pass  # the row loop names the offending line
    return Corpus(*journals, *_row_columns(raw, ids))


def parse_corpus(journals_source: IO[str], citations_source: IO[str]) -> Corpus:
    """Parse and validate the two CSV streams into a merged Corpus.

    Errors report the offending line.
    """
    journals = _parse_journals(journals_source.read().encode("utf-8"))
    return _parse_citations(journals, citations_source.read().encode("utf-8"))


def load_corpus(journals_path, citations_path) -> Corpus:
    with open(journals_path, "rb") as jf:
        journals = _parse_journals(jf.read())
    with open(citations_path, "rb") as cf:
        return _parse_citations(journals, cf.read())


def dump_journals(corpus: Corpus, out: IO[str]) -> None:
    """One row per article row, in (journal, year) order; a journal without
    article rows gets one row with empty year and articles."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(JOURNALS_HEADER)
    bare = np.flatnonzero(np.bincount(corpus.article_journal, minlength=corpus.n_journals) == 0)
    order = np.argsort(np.concatenate((corpus.article_journal, bare)), kind="stable")
    journal = np.concatenate((corpus.article_journal, bare))[order]
    empty = np.full(len(bare), "", dtype=object)
    writer.writerows(zip(
        np.array(corpus.ids, dtype=object)[journal].tolist(),
        np.array(corpus.names, dtype=object)[journal].tolist(),
        np.concatenate((corpus.article_year.astype(object), empty))[order].tolist(),
        np.concatenate((corpus.article_count.astype(object), empty))[order].tolist(),
    ))


def dump_citations(corpus: Corpus, out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CITATIONS_HEADER)
    names = np.array(corpus.ids, dtype=object)
    writer.writerows(zip(
        names[corpus.citing].tolist(),
        names[corpus.cited].tolist(),
        corpus.citing_year.tolist(),
        corpus.cited_year.tolist(),
        corpus.count.tolist(),
    ))


def write_corpus(corpus: Corpus, journals_path, citations_path) -> None:
    """Serialize deterministically; parse_corpus() of the output reproduces the corpus."""
    with open(journals_path, "w", newline="", encoding="utf-8") as jf:
        dump_journals(corpus, jf)
    with open(citations_path, "w", newline="", encoding="utf-8") as cf:
        dump_citations(corpus, cf)
