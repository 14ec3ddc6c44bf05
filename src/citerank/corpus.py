"""Citation-network data model and CSV ingestion.

A :class:`Corpus` holds the sorted journal ids and their names, per-year
article counts as long-form int64 rows, and aggregated citation records as
int64 columns.  Records are journal-pair-year counts, not per-article
events; records with identical (citing, cited, citing_year, cited_year)
keys are merged by summing counts, so merging is idempotent and
order-independent.
"""

from __future__ import annotations

import bisect
import codecs
import csv
import io
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import CorpusError

JOURNALS_HEADER = ["id", "name", "year", "articles"]
CITATIONS_HEADER = ["citing", "cited", "citing_year", "cited_year", "count"]

# Every count, merged count and corpus total stays at or below 2**53, so
# float64 sums of counts are exact and int64 sums cannot wrap.
MAX_COUNT = 2**53
# The whitespace numpy's integer reader skips around a number, but CR and LF,
# which no field holds.
_BLANKS = " \t\v\f\x1c\x1d\x1e\x1f"
_BREAKS = re.compile("[\0\r\n]")
_LINE_BREAK = re.compile(rb"\r\n|\r|\n")
_NON_BLANK = re.compile(rb"[^\n]")
# The bytes of rows one chunk of a CSV writer gathers at most, unless one
# row is longer, and about the bytes of one block the CSV readers read.
_CHUNK_BYTES = 2**19


@dataclass(frozen=True)
class CitationWindow:
    """Which citation records a metric counts, and which publication years
    supply article counts.

    With a `census_year`, the records are citations made in that year to
    items published in the `span` preceding years, i.e. cited_year in
    [census_year - span, census_year - 1], and the article counts come from
    those years.  Without one, every record counts, and every year present
    in the data supplies article counts.  Self-citations count only when
    `include_self`.
    """

    census_year: int | None = None
    span: int = 5
    include_self: bool = True

    def __post_init__(self):
        if self.span < 1:
            raise ValueError(f"window span must be >= 1, got {self.span}")

    @property
    def cited_years(self) -> tuple[int, int] | None:
        """The first and last publication year the window counts; None for every year."""
        if self.census_year is None:
            return None
        return self.census_year - self.span, self.census_year - 1

    def describe(self) -> str:
        if self.census_year is None:
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
    sums duplicate record keys.  The columns are the constructor's own
    copies and read-only, so instances are safe to share across threads.
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
        self._settle(copy=True)

    def _settle(self, copy: bool) -> None:
        """Validate, sort and merge the fields in place; the int64 columns kept
        are copies of the given ones unless `copy` is False."""
        ids, names = tuple(self.ids), tuple(self.names)
        if len(names) != len(ids):
            raise CorpusError(f"{len(ids)} journal ids need as many names, got {len(names)}")
        if not strictly_ascending(ids):
            raise CorpusError("journal ids must be sorted and unique")
        if ids[:1] == ("",):
            raise CorpusError("journal id must be non-empty")
        articles = _int64_columns([getattr(self, name) for name in ARTICLE_COLUMNS], "article",
                                  copy)
        order = _key_order(tuple(articles[:2]))
        problem = _article_problem(ids, *articles, order)
        if problem is not None:
            raise CorpusError(problem[1])
        if not order[0]:  # rows in (journal, year) order, as the reader returns them, stay
            index = np.lexsort((articles[1], articles[0]))
            articles = [column[index] for column in articles]
        records = _int64_columns([getattr(self, name) for name in COLUMNS], "citation", copy)
        problem = _first_problem(len(ids), *records)
        if problem is not None:
            raise CorpusError(problem[1])
        columns = articles + list(_merged(*records))
        for name, column in zip(ARTICLE_COLUMNS + COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "names", names)

    @property
    def n_journals(self) -> int:
        return len(self.ids)

    @property
    def n_records(self) -> int:
        return len(self.count)

    def total_count(self) -> int:
        return int(self.count.sum())

    def articles_in(self, window: CitationWindow) -> np.ndarray:
        """Each journal's articles published in the window's cited years, or in
        every year when it has no census year, in `ids` order.

        float64, exact while each journal's sum stays at or below 2**53.
        """
        journal, count = self.article_journal, self.article_count
        if window.census_year is not None:
            first, last = window.cited_years
            rows = (self.article_year >= first) & (self.article_year <= last)
            journal, count = journal[rows], count[rows]
        return np.bincount(journal, weights=count, minlength=self.n_journals)

    def select(self, window: CitationWindow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(citing, cited, count) of the records `window` counts; the columns
        themselves when it counts every record."""
        mask = None
        if window.census_year is not None:
            first, last = window.cited_years
            mask = (
                (self.citing_year == window.census_year)
                & (self.cited_year >= first)
                & (self.cited_year <= last)
            )
        if not window.include_self:
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


def _handed_over(*fields) -> Corpus:
    """The Corpus of `fields`, whose arrays nobody else holds: validated,
    sorted and merged as `Corpus(*fields)` is, but keeping those arrays
    rather than copies of them."""
    corpus = object.__new__(Corpus)
    for name, value in zip(("ids", "names") + ARTICLE_COLUMNS + COLUMNS, fields, strict=True):
        object.__setattr__(corpus, name, value)
    corpus._settle(copy=False)
    return corpus


def strictly_ascending(ids: tuple[str, ...]) -> bool:
    """Whether the ids are sorted and unique, compared as Python strings."""
    keys = np.array(ids, dtype=object)
    return bool((keys[1:] > keys[:-1]).all())


def _int64_columns(columns: list, what: str, copy: bool) -> list[np.ndarray]:
    """The columns as int64 arrays, copies if `copy`; CorpusError unless they
    are one-dimensional, of equal length, and hold integers that fit in int64."""
    columns = [np.asarray(c) for c in columns]
    if any(c.size and (c.dtype.kind not in "iu" or not np.can_cast(c.dtype, np.int64))
           for c in columns):
        raise CorpusError(f"{what} columns must hold integers that fit in int64")
    columns = [np.array(c, dtype=np.int64, order="C", copy=copy or None, ndmin=1) for c in columns]
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


def _article_problem(ids, journal, year, count, order) -> tuple[int, str] | None:
    """(row, reason) for the first article row that breaks an invariant; None if all hold.

    The invariants: the journal exists, 0 <= count <= 2**53, and no row
    repeats the (journal, year) of an earlier one.  `order` is the rows'
    `_key_order` by (journal, year).
    """
    ascending, repeated = order
    # Rows in (journal, year) order, as write_corpus writes them, skip the sort,
    # whose index and sorted copies would otherwise set the peak of a journals read.
    if not ascending:
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


def _first_problem(n_journals, citing, cited, citing_year, cited_year, count, total=0):
    """(row, reason) for the first record that breaks an invariant; None if all hold.

    The invariants: both journals exist, 1 <= count <= 2**53, cited_year <=
    citing_year, and the running total of counts, from the `total` of the
    records before these, stays at or below 2**53 (which bounds every merged
    count too).
    """
    # Clipping keeps the running sum from wrapping before it first passes the bound.
    # The sum is taken in place and freed before the other checks, which bounds
    # the peak memory of a read.
    running = np.clip(count, 0, MAX_COUNT + 1)
    np.cumsum(running, out=running)
    running += total
    passes = running > MAX_COUNT
    del running
    return _first_hit((
        ((citing < 0) | (citing >= n_journals) | (cited < 0) | (cited >= n_journals),
         lambda i: f"citation references unknown journal position {citing[i]} or {cited[i]}"),
        ((count < 1) | (count > MAX_COUNT),
         lambda i: f"citation count must be >= 1 and <= 2**53, got {count[i]}"),
        (cited_year > citing_year,
         lambda i: f"cited_year {cited_year[i]} is after citing_year {citing_year[i]}"),
        (passes, lambda i: "the running total of citation counts passes 2**53"),
    ))


def _merged(citing, cited, citing_year, cited_year, count) -> tuple[np.ndarray, ...]:
    """Sort the records by key and sum the counts of equal keys.

    Input already in key order, as `write_corpus` writes it, skips the sort.
    """
    keys = (citing, cited, citing_year, cited_year)
    ascending, repeats = _key_order(keys)
    if not ascending:
        keys, count, repeats = _sorted(keys, count)
    if repeats.any():
        starts = np.flatnonzero(~repeats)
        keys = tuple(k[starts] for k in keys)
        count = np.add.reduceat(count, starts)
    return (*keys, count)


def _sorted(keys: tuple[np.ndarray, ...], count: np.ndarray) -> tuple:
    """The keys and counts of rows not in key order, sorted by key, and which
    rows repeat the previous key.

    Each key column is packed, as its offset from its minimum, into one int64
    per row, which one stable argsort orders; `np.lexsort` sorts only keys
    whose ranges need more than 63 bits together.
    """
    lows = [int(k.min()) for k in keys]
    bits = [(int(k.max()) - low).bit_length() for k, low in zip(keys, lows)]
    if sum(bits) > 63:
        order = np.lexsort(keys[::-1])
        keys = tuple(k[order] for k in keys)
        return keys, count[order], _key_order(keys)[1]
    packed = np.zeros(len(count), dtype=np.int64)
    for k, low, b in zip(keys, lows, bits):
        packed <<= b
        packed |= k - low
    order = np.argsort(packed, kind="stable")
    packed, count = packed[order], count[order]
    del order  # freed before the columns are unpacked, which bounds the peak memory
    repeats = np.zeros(len(packed), dtype=bool)
    repeats[1:] = packed[1:] == packed[:-1]
    columns = []
    for low, b in zip(lows[::-1], bits[::-1]):
        column = packed & ((1 << b) - 1)
        column += low
        columns.append(column)
        packed >>= b
    return tuple(columns[::-1]), count, repeats


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


def _positions(ids: np.ndarray, names: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of `names` in the sorted array `ids`, and which names are there."""
    positions = np.searchsorted(ids, names)
    known = positions < len(ids)
    known[known] = ids[positions[known]] == names[known]
    return positions, known


def journal_positions(ids: np.ndarray, names: np.ndarray) -> np.ndarray:
    """Positions of `names` in the sorted array `ids`; CorpusError on an unknown name.

    8-byte strings, padded with NULs, are compared as the big-endian uint64
    values they spell, which order as the strings do and compare faster.
    """
    keys, needles = ids, names
    if ids.dtype == names.dtype == np.dtype("S8"):
        keys, needles = (array.view(">u8").astype(np.uint64) for array in (ids, names))
    positions, known = _positions(keys, needles)
    if not known.all():
        raise CorpusError(f"unknown journal id {names[np.argmin(known)]!r}")
    return positions


def _check_header(row: list[str] | None, expected: list[str], what: str) -> None:
    if row != expected:
        raise CorpusError(
            f"{what} file must start with header {','.join(expected)!r}", line=1
        )


def _text_integers(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table of string fields as int64, and per row 2 if a field is
    malformed, else 1 if one is outside the int64 range, else 0.

    The grammar is what numpy's integer reader takes from a field without CR
    or LF: ASCII digits with an optional sign, between characters of
    `_BLANKS`.  A field outside it reads as 0.
    """
    stripped = np.strings.strip(fields, _BLANKS)
    digits = np.strings.lstrip(stripped, "+-")
    signs = np.strings.str_len(stripped) - np.strings.str_len(digits)
    wellformed = (signs <= 1) & (digits != "") & (np.strings.strip(digits, "0123456789") == "")
    magnitude = np.strings.lstrip(digits, "0")
    size = np.strings.str_len(magnitude)
    lowest = np.strings.startswith(stripped, "-") & (magnitude == str(2**63))
    in_range = (size < 19) | ((size == 19) & ((magnitude <= str(2**63 - 1)) | lowest))
    broken = np.where(wellformed, ~in_range, 2).max(axis=1, initial=0)
    return np.where(wellformed & in_range, stripped, "0").astype(np.int64), broken


def _blocks(file: IO[bytes]) -> Iterator[bytes]:
    """The rest of a seekable binary file in blocks of about `_CHUNK_BYTES`,
    each but the last ending after a line break.

    No block ends between the CR and LF of a CRLF, so the blocks' line
    breaks are the file's, and a block of a UTF-8 file is UTF-8 on its own.
    """
    start = file.tell()
    left = file.seek(0, io.SEEK_END) - start
    file.seek(start)
    rest = b""
    # A read of more than the bytes left would allocate all it asks for first.
    while chunk := file.read(min(_CHUNK_BYTES, left)):
        left -= len(chunk)
        rest += chunk
        # A CR at the end may be the first half of a CRLF.
        cut = max(rest.rfind(b"\n"), rest.rfind(b"\r", 0, len(rest) - 1)) + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest


def _opened(file: IO[bytes]) -> tuple:
    """The binary file, at the start of its text after any UTF-8 byte order
    mark, and the `_census` of that text.  A file that cannot seek, such as a
    pipe, is read into memory first."""
    if not file.seekable():
        file = io.BytesIO(file.read())
    file.seek(len(codecs.BOM_UTF8) if file.read(3) == codecs.BOM_UTF8 else 0)
    starts = _census(file)
    file.seek(starts[0][0])
    return file, starts


def _census(file: IO[bytes]) -> list[tuple[int, int]]:
    """The (byte offset, line breaks before it) of each of the `_blocks` of the
    rest of the file and of its end, where a CRLF is one line break.

    Raises a CorpusError naming the line of the first byte that is not UTF-8.
    """
    starts, offset, lines = [], file.tell(), 0
    for block in _blocks(file):
        starts.append((offset, lines))
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = lines + len(_LINE_BREAK.findall(block, 0, exc.start)) + 1
                raise CorpusError("not valid UTF-8", line=line) from None
        lines += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == 10)
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
        offset += len(block)
    starts.append((offset, lines))
    return starts


def _prepared(block: bytes) -> bytes:
    """The block for numpy's parser, each CR made a LF (so a CRLF leaves a blank
    line, which is skipped); ValueError if it holds a NUL."""
    if b"\0" in block:
        raise ValueError("the file holds a NUL")
    return block.replace(b"\r", b"\n") if b"\r" in block else block


def _loadtxt_table(raw: bytes, expected: list[str], what: str, dtype, header: bool) -> np.ndarray:
    """The rows of a `_prepared` block, after the header if `header`, read by
    numpy's C parser as the structured `dtype`, one row per record.

    Each byte is read as one character, so fixed-width bytes fields hold the
    UTF-8 bytes of the text.  Under that reading numpy's integer reader takes
    no byte above 0x7F but 0x85 and 0xA0, as whitespace, and in valid UTF-8
    both follow a lead byte it rejects.  Raises ValueError, csv.Error or
    CorpusError for a block it cannot read, such as one with a row of another
    length or a field holding a line break, which numpy's parser reads.
    """
    body_start = raw.find(b"\n") + 1 or len(raw) if header else 0
    if header and raw:  # an empty file has no header and no rows
        _check_header(next(csv.reader([raw[:body_start].decode("latin-1")]), None), expected, what)
    if _NON_BLANK.search(raw, body_start) is None:
        return np.empty(0, dtype=dtype)  # loadtxt would warn
    # Only a quoted field can hold a line break; it joins the lines it spans into
    # one row, so numpy reads fewer rows than non-empty lines, counted first here.
    # At the end of the text numpy closes an open quote, keeping the LF in the
    # field, so a last line that ends inside a quoted field, as one cut off by
    # a block's end does, shows in that line read alone.
    lines = None
    if b'"' in raw:
        ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8, offset=body_start) == 10)
        ended = np.flatnonzero(np.diff(ends, prepend=-1) > 1)  # the LFs that end a non-empty line
        lines = len(ended) + (not raw.endswith(b"\n"))
        if raw.endswith(b"\n"):
            last = ended[-1]
            line = raw[body_start + (ends[last - 1] + 1 if last else 0):body_start + ends[last] + 1]
            fields = np.loadtxt(io.BytesIO(line), delimiter=",", comments=None, quotechar='"',
                                ndmin=1, encoding="latin-1", dtype=f"S{len(line)}")
            if any(b"\n" in field for field in fields.tolist()):
                raise ValueError("a field holds a line break")
        del ends, ended
    body = io.BytesIO(raw)
    body.seek(body_start)
    table = np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=1,
                       encoding="latin-1", dtype=dtype)
    if lines is not None and len(table) != lines:
        raise ValueError("a field holds a line break")
    return table


def _numeric_hits(text: np.ndarray, broken: np.ndarray) -> tuple:
    """The `_first_hit` checks for the rows `_text_integers` found broken."""
    return (
        (broken == 2, lambda i: f"malformed numeric field in {text[i].tolist()!r}"),
        (broken == 1, lambda i: f"numeric field outside the int64 range in {text[i].tolist()!r}"),
    )


def _rows_only(raw: bytes, keep: np.ndarray, header: bool) -> bytes:
    """A `_prepared` block without the lines of the rows `keep` leaves out, each
    row being one non-empty line after the header, if `header`, as
    `_loadtxt_table` reads it."""
    if keep.all():
        return raw
    if not raw.endswith(b"\n"):
        raw += b"\n"
    text = np.frombuffer(raw, dtype=np.uint8)
    sizes = np.diff(np.flatnonzero(text == 10), prepend=-1)  # each line's bytes, its LF included
    lines = np.ones(len(sizes), dtype=bool)
    lines[int(header):][sizes[int(header):] > 1] = keep
    return text[np.repeat(lines, sizes)].tobytes()


def _fits(widths, rows: int, size: int) -> bool:
    """Whether fixed-width fields of `widths` bytes in each of `rows` rows take
    at most four times the `size` bytes of text they are read from.

    The longest field sets the width, so fields of mixed lengths take a few
    times their text; one long id or name among short ones takes far more,
    and where it would, a reader splits the text it reads in smaller parts.
    """
    return sum(widths) * rows <= 4 * size


def _field_widths(block: bytes, n: int) -> tuple[int, ...] | None:
    """Fixed widths for the first `n` fields of a `_prepared` block, one byte
    past the longest of each among its lines, split at the commas outside
    quotes; None where they do not `_fits`.

    A field of a line that is not well quoted may be longer than its width:
    it fills the width, which is how its read is known to have cut it.
    """
    text = np.frombuffer(block, dtype=np.uint8)
    ends = np.append(np.flatnonzero(text == 10), len(text))  # the last line may have no LF
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(text == 44)
    if b'"' in block:  # a comma after an odd number of quotes is inside a quoted field
        commas = commas[np.cumsum(text == 34, dtype=np.uint8)[commas] % 2 == 0]
    commas = np.append(commas, [len(text)] * n)
    first = np.searchsorted(commas, starts)
    widths, start = [], starts - 1
    for k in range(n):  # each field's bytes are counted with the comma before it
        end = np.minimum(commas[first + k], ends)
        widths.append(max(int((end - start).max()), 1))
        start = end
    return tuple(widths) if _fits(widths, len(starts), len(block)) else None


def _cut(table: np.ndarray) -> bool:
    """Whether a fixed-width bytes field of a structured table fills its width,
    its last byte not being NUL."""
    rows = table.view(np.uint8).reshape(len(table), table.itemsize)
    return any(rows[:, offset + dtype.itemsize - 1].any()
               for dtype, offset, *_ in table.dtype.fields.values() if dtype.kind == "S")


def _split_reads(block: bytes, header: bool, n: int, read, fixed=None) -> list:
    """`read(part, header, widths)` for each part of a `_prepared` block, where
    `widths` is `fixed` or the part's `_field_widths` for its first `n` fields.

    A part without widths, or whose read returns None because a field fills
    its width, is split in two at a line break.  A part of one line takes
    fields as wide as the line, which none can fill, so the splitting ends.
    """
    middle = len(block) // 2
    cut = block.find(b"\n", middle, len(block) - 1) + 1 or block.rfind(b"\n", 0, middle) + 1
    if not cut:
        return [read(block, header, (len(block) + 1,) * n)]
    widths = fixed or _field_widths(block, n)
    result = None if widths is None else read(block, header, widths)
    if result is not None:
        return [result]
    return (_split_reads(block[:cut], header, n, read, fixed)
            + _split_reads(block[cut:], False, n, read, fixed))


def _joined(arrays: list[np.ndarray], size: int) -> np.ndarray:
    """The fixed-width bytes of the arrays in one array: as fixed-width bytes
    where they `_fits` the `size` bytes of the file, else as an object array
    of bytes, which one long id or name does not widen."""
    arrays = [np.empty(0, dtype="S1"), *arrays]
    if _fits((max(array.itemsize for array in arrays),), sum(map(len, arrays)), size):
        return np.concatenate(arrays)
    return np.concatenate([array.astype(object) for array in arrays])


def _read_blocks(file: IO[bytes], starts, what: str, n_columns: int, read_block) -> tuple:
    """The `n_columns` int64 columns of the rest of a file with `_census`
    `starts`, up to the first block that fails; the rows before each block
    read; and the CorpusError of the block that failed, or None.

    `read_block(block, k)` gives the rows of `_prepared` block k as parts,
    each a tuple of int64 columns, which go into the columns allocated up
    front from the line breaks: a read holds them and one block.
    """
    columns = [np.empty(starts[-1][1] + 1, dtype=np.int64) for _ in range(n_columns)]
    rows, error = [0], None
    for k, ((offset, _), (end, _)) in enumerate(zip(starts, starts[1:])):
        try:
            parts = read_block(_prepared(file.read(end - offset)), k)
        except (ValueError, csv.Error, CorpusError) as exc:
            # The message only: the traceback is freed before the re-read.
            error = CorpusError(f"{what} file could not be read: {exc}")
            break
        n = rows[-1]
        for part in parts:
            for column, values in zip(columns, part):
                column[n:n + len(values)] = values
            n += len(part[0])
        rows.append(n)
        del parts, part, values  # freed before the next block is read
    for column in columns:
        column.resize(rows[-1], refcheck=False)  # in place; nothing else refers to it
    return columns, rows, error


def _journal_part(block: bytes, header: bool, widths) -> tuple | None:
    """The ids and names of a `_prepared` part of journals.csv as fixed-width
    bytes of `widths`, which rows hold article data (None for all), and
    those rows' years and article counts; None where a field fills its width.

    A part with a row of empty year and articles fails the one read of all
    four fields; it is read with the numbers as bytes too, and the numbers
    of the other rows are read on their own.  Raises ValueError, csv.Error
    or CorpusError for a part it cannot read.
    """
    strings = [("id", f"S{widths[0]}"), ("name", f"S{widths[1]}")]
    numbers = [("year", np.int64), ("articles", np.int64)]
    data = None
    try:
        table = _loadtxt_table(block, JOURNALS_HEADER, "journals", strings + numbers, header)
    except ValueError:  # such as a row with empty year and articles
        table = _loadtxt_table(block, JOURNALS_HEADER, "journals", strings + [
            ("year", f"S{widths[2]}"), ("articles", f"S{widths[3]}")], header)
        data = (table["year"] != b"") | (table["articles"] != b"")
    if _cut(table):
        return None
    ids, names = table["id"], table["name"]
    if data is not None:  # the ids and names, read above, cut to a byte
        table = _loadtxt_table(_rows_only(block, data, header), JOURNALS_HEADER, "journals",
                               [("id", "S1"), ("name", "S1"), *numbers], header)
    return ids, names, data, table["year"], table["articles"]


def _journal_problem(text: np.ndarray, ids, names, journal, year, count) -> tuple[int, str] | None:
    """(row, reason) for the first row of a table of journals.csv string fields
    with an empty id, a name other than its id's first, a number outside the
    integer grammar, or an article count or year the Corpus rejects; None if
    there is none.  The rows follow those read before them, whose journals
    are the sorted `ids`, first listed with `names`, and whose article rows
    are (journal, year, count).
    """
    row_ids, row_names = (np.concatenate((array.astype(np.dtypes.StringDType()), text[:, j]))
                          for j, array in enumerate((ids, names)))
    n = len(ids)
    ids, first, journal_of = np.unique(row_ids, return_index=True, return_inverse=True)
    names = row_names[first]
    rows = np.flatnonzero((text[:, 2] != "") | (text[:, 3] != ""))
    broken = np.zeros(len(text), dtype=int)
    numbers, broken[rows] = _text_integers(text[rows, 2:])
    hits = [_first_hit((
        (text[:, 0] == "", lambda i: "empty journal id"),
        ((row_names != names[journal_of])[n:],
         lambda i: f"journal {text[i, 0]!r} listed with conflicting names "
                   f"{names[journal_of[n + i]]!r} and {text[i, 1]!r}"),
        *_numeric_hits(text, broken),
    ))]
    good = broken[rows] == 0
    rows, earlier = rows[good], len(journal)
    journal, year, count = (np.concatenate(pair) for pair in (
        (journal_of[journal], journal_of[n + rows]), (year, numbers[good, 0]),
        (count, numbers[good, 1])))
    article = _article_problem(ids, journal, year, count, _key_order((journal, year)))
    if article is not None:
        hits.append((int(rows[article[0] - earlier]), article[1]))
    return min(filter(None, hits), key=lambda hit: hit[0], default=None)


def _parse_journals(file: IO[bytes]) -> tuple:
    """Journal rows are `id,name,year,articles`, one per (journal, year); a row
    with empty year and articles declares a journal with no article data.
    A UTF-8 byte order mark is ignored.

    `file` is the binary journals file, read by `_read_blocks`.  Rows of one
    id and name in a row form a run, whose id and name are kept once; each
    row's run, year and article count go into the int64 columns.
    `np.unique` finds the journals among the runs' ids.
    """
    file, starts = _opened(file)
    run_ids, run_names, run_counts = [], [], [0]  # each part's runs; the runs before each block

    def read_block(block, k):
        parts, n = [], run_counts[-1]
        for row_ids, row_names, data, year, count in _split_reads(block, k == 0, 4, _journal_part):
            new = ~_key_order((row_ids, row_names))[1]  # the first row of each run
            first, run = np.flatnonzero(new), np.cumsum(new) + (n - 1)
            n += len(first)
            run_ids.append(row_ids[first])
            run_names.append(row_names[first])
            parts.append((run if data is None else run[data], year, count))
        run_counts.append(n)
        return parts

    columns, rows, error = _read_blocks(file, starts, "journals", 3, read_block)
    journal, year, count = columns
    size = starts[-1][0] - starts[0][0]
    run_ids, run_names = _joined(run_ids, size), _joined(run_names, size)
    ids, first, journal_of = np.unique(run_ids, return_index=True, return_inverse=True)
    names = run_names[first]
    bad_runs = np.flatnonzero((run_names != names[journal_of]) | (run_ids == b""))
    np.take(journal_of, journal, out=journal)  # each row's journal, in place of its run
    problem = _article_problem(ids, journal, year, count, _key_order((journal, year)))
    if error is None and problem is None and not len(bad_runs):
        return (*(tuple(array.astype(np.dtypes.StringDType()).tolist()) for array in (ids, names)),
                *columns)
    # The first block with a bad row: one that failed, or one whose rows break
    # a rule with those before them.
    blocks = [bisect.bisect_right(run_counts, run) - 1 for run in bad_runs[:1].tolist()]
    if problem is not None:
        blocks.append(bisect.bisect_right(rows, problem[0]) - 1)
    k = min(blocks, default=len(rows) - 1)
    raise _reread(file, starts, k, JOURNALS_HEADER, "journals", lambda text: _journal_problem(
        text, ids, names, *(column[:rows[k]] for column in columns)),
        error or CorpusError("journals file breaks a rule"))


def _citation_problem(ids, text: np.ndarray, total: int) -> tuple[int, str] | None:
    """(row, reason) for the first row, of a table of citations.csv string
    fields after records whose counts sum to `total`, that names a journal
    not among the sorted `ids`, holds a number outside the integer grammar,
    or breaks a rule of `_first_problem`; None if there is none.
    """
    # Object arrays, one id column at a time: numpy 2.4's searchsorted fails
    # on variable-width strings, and Python strings are large.
    keys = np.array(ids, dtype=object)
    (citing, citing_known), (cited, cited_known) = (
        _positions(keys, text[:, k].astype(object)) for k in (0, 1))
    numbers, broken = _text_integers(text[:, 2:])
    bad = _first_hit((
        (~citing_known, lambda i: f"unknown journal id {text[i, 0]!r}"),
        (~cited_known, lambda i: f"unknown journal id {text[i, 1]!r}"),
        *_numeric_hits(text, broken),
    ))
    end = len(text) if bad is None else bad[0]
    return _first_problem(len(ids), citing[:end], cited[:end], *numbers[:end].T,
                          total=total) or bad


def _citation_part(block: bytes, header: bool, widths, keys: np.ndarray) -> tuple | None:
    """The citation columns of a `_prepared` part of citations.csv, its ids
    read as fixed-width bytes of `widths` and found in the sorted `keys`;
    None where an id fills its width.  Raises ValueError, csv.Error or
    CorpusError for a part it cannot read.
    """
    dtype = [(name, f"S{widths[k]}" if k < 2 else np.int64) for k, name in enumerate(COLUMNS)]
    table = _loadtxt_table(block, CITATIONS_HEADER, "citations", dtype, header)
    if _cut(table):
        return None
    return (*(journal_positions(keys, table[name]) for name in COLUMNS[:2]),
            *(table[name] for name in COLUMNS[2:]))


def _parse_citations(journals: tuple, file: IO[bytes]) -> Corpus:
    """Citation rows are `citing,cited,citing_year,cited_year,count`; duplicate
    keys are merged by summing counts.  A UTF-8 byte order mark is ignored.

    `journals` is the Corpus journal fields, ids first, and `file` the
    binary citations file, read by `_read_blocks`.  Its ids are read one
    byte wider than the longest journal id where that `_fits`; else as wide
    as each part's own, and looked up in an object array of bytes.
    """
    ids = journals[0]
    file, starts = _opened(file)
    keys = "\n".join(ids).encode("utf-8").split(b"\n") if ids else []
    # One byte wider than the longest id, so a longer name cannot truncate onto a known id.
    width, fixed = max(map(len, keys), default=0) + 1, None
    if _fits((width, width), starts[-1][1] + 1, starts[-1][0] - starts[0][0]):
        width = max(width, 8)  # 8 bytes compare as one uint64 in journal_positions
        keys, fixed = np.array(keys, dtype=f"S{width}"), (width, width)
    else:
        keys = np.array(keys, dtype=object)
    columns, rows, error = _read_blocks(file, starts, "citations", len(COLUMNS), lambda block, k: (
        _split_reads(block, k == 0, 2, lambda part, header, widths: _citation_part(
            part, header, widths, keys), fixed)))
    if error is None:
        try:
            return _handed_over(*journals, *columns)
        except CorpusError as exc:
            error = exc
    problem = _first_problem(len(ids), *columns)
    k = len(rows) - 1 if problem is None else bisect.bisect_right(rows, problem[0]) - 1
    total = int(columns[4][:rows[k]].sum())
    raise _reread(file, starts, k, CITATIONS_HEADER, "citations",
                  lambda text: _citation_problem(ids, text, total), error)


def _reread(file: IO[bytes], starts, k: int, expected: list[str], what: str, problem,
            error: CorpusError) -> CorpusError:
    """The CorpusError, naming its line, of the first bad row of block k of a
    file with `_census` `starts`, whose rows alone are read again with the
    csv module: the row `problem(text)` finds in their table of string
    fields, else the first row that is not `len(expected)` fields free of
    NUL, CR and LF, else `error`.  Block 0 starts with the header.

    The block's first byte starts a row: a block read before it ends after
    a line break outside any quoted field, as `_loadtxt_table` checks.
    """
    (offset, line), (_, end) = starts[k], starts[k + 1]
    file.seek(offset)
    stream = io.TextIOWrapper(file, encoding="utf-8", newline="")
    rows, lines, bad = [], [], None
    try:
        reader = csv.reader(stream)
        if k == 0:
            _check_header(next(reader, None), expected, what)
        try:
            for row in filter(None, reader):  # skips blank lines
                if len(row) != len(expected):
                    message = f"{what} row needs {len(expected)} fields, got {len(row)}"
                elif _BREAKS.search("".join(row)):
                    message = f"{what} row holds a NUL, CR or LF inside a field"
                else:
                    rows.append(row)
                    lines.append(line + reader.line_num)
                    if line + reader.line_num > end:
                        break
                    continue
                bad = CorpusError(message, line=line + reader.line_num)
                break
        except csv.Error as exc:
            bad = CorpusError(str(exc), line=line + reader.line_num)
    finally:
        stream.detach()  # which leaves the file open
    # The table takes the place of the rows' lists, which are freed before `problem` runs.
    rows = np.array(rows, dtype=np.dtypes.StringDType()).reshape(-1, len(expected))
    found = problem(rows)
    return bad or error if found is None else CorpusError(found[1], line=lines[found[0]])


def load_corpus(journals_path, citations_path) -> Corpus:
    """The Corpus of a journals.csv and a citations.csv file.

    Both files are read in blocks, so the memory a load takes follows the
    columns it returns, not the files.
    """
    with open(journals_path, "rb") as jf:
        journals = _parse_journals(jf)
    with open(citations_path, "rb") as cf:
        return _parse_citations(journals, cf)


def _csv_lines(rows: Iterable[tuple[str, ...]]) -> list[bytes]:
    """Each row of strings as `csv.writer` writes it, in UTF-8, without its line end.

    Each row is written with one more, empty, field, which is then cut off:
    csv writes a row of one empty field as `""`, but an empty field beside
    others as nothing.
    """
    lines: list[str] = []
    # csv.writer hands each row to `write` in one call.
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        (*row, "") for row in rows
    )
    return [line[:-2].encode("utf-8", "surrogatepass") for line in lines]


def _integer_fields(column: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The column's distinct values as text, and which one each row holds."""
    if not len(column):
        return [], column
    low, high = int(column.min()), int(column.max())
    if high - low < len(column):  # as many values as rows at most: no sort
        values, index = range(low, high + 1), column - low
    else:
        values, index = np.unique(column, return_inverse=True)
        values = values.tolist()
    return [str(value).encode("ascii") for value in values], index


def _write_table(out: IO[str], header: list[str], columns: list) -> None:
    """Write the header, then one CSV row per entry of the columns' indexes.

    `columns` holds, per column, its distinct fields as CSV bytes and which
    field each row holds.  The fields, each with its separator, lie end to
    end in one byte array, and each chunk of rows is one gather from it, so
    the memory taken follows the bytes written: one long name does not
    widen every row.
    """
    out.write(",".join(header) + "\n")
    n = len(columns[0][1])
    if not n:
        return
    text, starts, sizes, offset = [], [], [], 0
    for k, (fields, _) in enumerate(columns):
        separator = b"\n" if k == len(columns) - 1 else b","
        fields = [field + separator for field in fields]
        text.extend(fields)
        size = np.array(list(map(len, fields)), dtype=np.int64)
        starts.append(offset + np.cumsum(size) - size)
        sizes.append(size)
        offset += int(size.sum())
    text = np.frombuffer(b"".join(text), dtype=np.uint8)
    step = max(1, _CHUNK_BYTES // sum(int(size.max()) for size in sizes))
    for start in range(0, n, step):
        # The start and size in `text` of each field of the chunk, row by row.
        first, size = (np.stack([np.take(table, index[start:start + step])
                                 for table, (_, index) in zip(tables, columns)], axis=1).ravel()
                       for tables in (starts, sizes))
        end = np.cumsum(size)
        # Byte i of the chunk, in field f, is byte first[f] + i - (end[f] - size[f]) of `text`.
        at = np.repeat(first - (end - size), size) + np.arange(end[-1])
        out.write(np.take(text, at).tobytes().decode("utf-8", "surrogatepass"))


def dump_journals(corpus: Corpus, out: IO[str]) -> None:
    """One row per article row, in (journal, year) order; a journal without
    article rows gets one row with empty year and articles."""
    bare = np.flatnonzero(np.bincount(corpus.article_journal, minlength=corpus.n_journals) == 0)
    order = np.argsort(np.concatenate((corpus.article_journal, bare)), kind="stable")
    columns = [(_csv_lines(zip(corpus.ids, corpus.names)),
                np.concatenate((corpus.article_journal, bare))[order])]
    for column in (corpus.article_year, corpus.article_count):
        fields, index = _integer_fields(column)
        # A journal without article rows takes one more field, the empty one.
        columns.append((fields + [b""],
                        np.concatenate((index, np.full(len(bare), len(fields))))[order]))
    _write_table(out, JOURNALS_HEADER, columns)


def dump_citations(corpus: Corpus, out: IO[str]) -> None:
    ids = _csv_lines(zip(corpus.ids))
    numbers = map(_integer_fields, (corpus.citing_year, corpus.cited_year, corpus.count))
    _write_table(out, CITATIONS_HEADER, [(ids, corpus.citing), (ids, corpus.cited), *numbers])


def write_corpus(corpus: Corpus, journals_path, citations_path) -> None:
    """Serialize deterministically; load_corpus() of the output reproduces the corpus."""
    with open(journals_path, "w", newline="", encoding="utf-8") as jf:
        dump_journals(corpus, jf)
    with open(citations_path, "w", newline="", encoding="utf-8") as cf:
        dump_citations(corpus, cf)
