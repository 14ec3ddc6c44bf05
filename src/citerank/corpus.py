"""Citation-network data model and CSV ingestion.

A :class:`Corpus` holds journals (with per-year article counts) and
aggregated citation records as int64 columns.  Records are
journal-pair-year counts, not per-article events; records with identical
(citing, cited, citing_year, cited_year) keys are merged by summing counts,
so merging is idempotent and order-independent.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
from dataclasses import dataclass, field
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
# surrounding whitespace.
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_NON_BLANK = re.compile(rb"[^\r\n]")
# The first line and its ending, which may be \n, \r\n or a bare \r.
_FIRST_LINE = re.compile(rb"[^\r\n]*(\r\n|\r|\n)?")


@dataclass(frozen=True)
class Journal:
    """One journal: opaque unique id, display name, article counts per year."""

    id: str
    name: str
    articles_by_year: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise CorpusError("journal id must be non-empty")
        for year, n in self.articles_by_year.items():
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise CorpusError(
                    f"journal {self.id!r}: article count for {year} must be an integer >= 0, got {n!r}"
                )

    def articles_in(self, years: Iterable[int]) -> int:
        return sum(self.articles_by_year.get(y, 0) for y in years)


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
        return tuple(sorted(_article_years(corpus.journals)))

    def describe(self) -> str:
        if self.mode == "all-years":
            return "all-years"
        return f"census_year={self.census_year} span={self.span}"


def _article_years(journals: dict[str, Journal]) -> set[int]:
    return set().union(*(journal.articles_by_year for journal in journals.values()))


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable set of journals plus merged citation records.

    `ids` is the sorted journal ids.  Record i says journal `ids[citing[i]]`
    cited items that `ids[cited[i]]` published in `cited_year[i]`,
    `count[i]` times, in `citing_year[i]`.  Construction validates every
    record, sorts the records by (citing, cited, citing_year, cited_year)
    and sums duplicate keys; the columns are read-only, and instances are
    safe to share across threads.
    """

    journals: dict[str, Journal]
    citing: np.ndarray
    cited: np.ndarray
    citing_year: np.ndarray
    cited_year: np.ndarray
    count: np.ndarray
    ids: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        for jid, journal in self.journals.items():
            if journal.id != jid:
                raise CorpusError(f"journal keyed {jid!r} carries id {journal.id!r}")
        ids = tuple(sorted(self.journals))
        columns = [np.asarray(getattr(self, name)) for name in COLUMNS]
        if any(c.size and (c.dtype.kind not in "iu" or not np.can_cast(c.dtype, np.int64))
               for c in columns):
            raise CorpusError("citation columns must hold integers that fit in int64")
        columns = [np.ascontiguousarray(c, dtype=np.int64) for c in columns]
        if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise CorpusError("citation columns must be one-dimensional and of equal length")
        problem = _first_problem(len(ids), *columns)
        if problem is not None:
            raise CorpusError(problem[1])
        for name, column in zip(COLUMNS, _merged(*columns)):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", ids)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.journals == other.journals and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in COLUMNS
        )

    @property
    def n_journals(self) -> int:
        return len(self.journals)

    @property
    def n_records(self) -> int:
        return len(self.count)

    def total_count(self) -> int:
        return int(self.count.sum())

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
        years = _article_years(self.journals)
        if self.n_records:
            years.update(
                int(f(column)) for f in (np.min, np.max)
                for column in (self.citing_year, self.cited_year)
            )
        if not years:
            return None
        return min(years), max(years)


COLUMNS = ("citing", "cited", "citing_year", "cited_year", "count")


def _first_problem(n_journals, citing, cited, citing_year, cited_year, count):
    """(row, reason) for the first record that breaks an invariant; None if all hold.

    The invariants: both journals exist, 1 <= count <= 2**53, cited_year <=
    citing_year, and the running total of counts stays at or below 2**53
    (which bounds every merged count too).
    """
    # Clipping keeps the running sum from wrapping before it first passes the bound.
    running = np.cumsum(np.clip(count, 0, MAX_COUNT + 1))
    checks = (
        ((citing < 0) | (citing >= n_journals) | (cited < 0) | (cited >= n_journals),
         lambda i: f"citation references unknown journal position {citing[i]} or {cited[i]}"),
        ((count < 1) | (count > MAX_COUNT),
         lambda i: f"citation count must be >= 1 and <= 2**53, got {count[i]}"),
        (cited_year > citing_year,
         lambda i: f"cited_year {cited_year[i]} is after citing_year {citing_year[i]}"),
        (running > MAX_COUNT, lambda i: "the running total of citation counts passes 2**53"),
    )
    hits = [(int(bad.argmax()), reason) for bad, reason in checks if bad.any()]
    if not hits:
        return None
    row, reason = min(hits, key=lambda hit: hit[0])
    return row, reason(row)


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
    return bool((later | equal).all()), np.concatenate(([False], equal))


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
    fields = row[2:]
    if not all(map(_INTEGER.fullmatch, fields)):
        raise CorpusError(f"malformed numeric field in {row!r}", line=line)
    numbers = list(map(int, fields))
    if not all(map(_INT64.__contains__, numbers)):
        raise CorpusError(f"numeric field outside the int64 range in {row!r}", line=line)
    return numbers


def _parse_journals(source: IO[str]) -> dict[str, Journal]:
    """Journal rows are `id,name,year,articles`, one per (journal, year); a row
    with empty year and articles declares a journal with no article data."""
    articles: dict[str, dict[int, int]] = {}
    names: dict[str, str] = {}
    for line, row in _data_rows(source, JOURNALS_HEADER, "journals"):
        jid, name, year_s, articles_s = row
        if not jid:
            raise CorpusError("empty journal id", line=line)
        if jid in names:
            if names[jid] != name:
                raise CorpusError(
                    f"journal {jid!r} listed with conflicting names "
                    f"{names[jid]!r} and {name!r}",
                    line=line,
                )
        else:
            names[jid] = name
            articles[jid] = {}
        if year_s == "" and articles_s == "":
            continue
        year, count = _integers(row, line)
        if count < 0:
            raise CorpusError(f"negative article count {count}", line=line)
        if count > MAX_COUNT:
            raise CorpusError(f"article count {count} is above 2**53", line=line)
        if year in articles[jid]:
            raise CorpusError(
                f"duplicate journal id {jid!r} for year {year}", line=line
            )
        articles[jid][year] = count
    return {
        jid: Journal(id=jid, name=name, articles_by_year=articles[jid])
        for jid, name in names.items()
    }


def _no_records() -> tuple[np.ndarray, ...]:
    return tuple(np.empty(0, dtype=np.int64) for _ in COLUMNS)


def _loadtxt_columns(raw: bytes, ids: list[str]) -> tuple[np.ndarray, ...]:
    """Citation columns read by numpy's C parser.

    Raises ValueError, csv.Error or CorpusError for any file it cannot read; the caller
    then parses row by row.  Only call it on ASCII input without NUL bytes:
    numpy's integer parser reads some non-ASCII characters as digits, and
    fixed-width byte strings drop trailing NULs.
    """
    body_start = _FIRST_LINE.match(raw).end()
    header = next(csv.reader([raw[:body_start].decode("ascii")]), None)
    _check_header(header, CITATIONS_HEADER, "citations")
    if _NON_BLANK.search(raw, body_start) is None:
        return _no_records()  # loadtxt would warn about an empty body
    body = io.BytesIO(raw)
    body.seek(body_start)
    encoded = np.array([jid.encode("utf-8") for jid in ids], dtype=bytes)
    # One byte wider than the longest id, so a longer name cannot truncate onto a known id.
    width = encoded.itemsize + 1
    table = np.loadtxt(
        body, delimiter=",", comments=None, quotechar='"', ndmin=1, encoding="ascii",
        dtype=[("citing", f"S{width}"), ("cited", f"S{width}"),
               ("citing_year", np.int64), ("cited_year", np.int64), ("count", np.int64)],
    )
    return (
        journal_positions(encoded, table["citing"]),
        journal_positions(encoded, table["cited"]),
        *(np.ascontiguousarray(table[name]) for name in COLUMNS[2:]),
    )


def _row_columns(raw: bytes, ids: list[str]) -> tuple[np.ndarray, ...]:
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


def _parse_citations(journals: dict[str, Journal], raw: bytes) -> Corpus:
    """Citation rows are `citing,cited,citing_year,cited_year,count`; duplicate
    keys are merged by summing counts.  A UTF-8 byte order mark is ignored."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    ids = sorted(journals)
    if raw.isascii() and b"\0" not in raw and not any('"' in jid or "\0" in jid for jid in ids):
        try:
            return Corpus(journals, *_loadtxt_columns(raw, ids))
        except (ValueError, csv.Error, CorpusError):
            pass  # the row loop names the offending line
    return Corpus(journals, *_row_columns(raw, ids))


def parse_corpus(journals_source: IO[str], citations_source: IO[str]) -> Corpus:
    """Parse and validate the two CSV streams into a merged Corpus.

    Errors report the offending line.
    """
    journals = _parse_journals(journals_source)
    return _parse_citations(journals, citations_source.read().encode("utf-8"))


def load_corpus(journals_path, citations_path) -> Corpus:
    with open(journals_path, newline="", encoding="utf-8-sig") as jf:
        journals = _parse_journals(jf)
    with open(citations_path, "rb") as cf:
        return _parse_citations(journals, cf.read())


def dump_journals(corpus: Corpus, out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(JOURNALS_HEADER)
    for jid in corpus.ids:
        journal = corpus.journals[jid]
        if not journal.articles_by_year:
            writer.writerow([jid, journal.name, "", ""])
            continue
        for year in sorted(journal.articles_by_year):
            writer.writerow([jid, journal.name, year, journal.articles_by_year[year]])


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
