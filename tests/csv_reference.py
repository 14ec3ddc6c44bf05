"""A row-by-row reader and writer of the corpus CSV grammar, written from its
definition in the README; the tests hold the library's parser and writers to
them.

The reader reads a file with the csv module, checks each row in file order
and raises a CorpusError naming the line of the first row that breaks a
rule.  The writers write a Corpus one `csv.writer` row at a time.  Neither
shares parsing, checking or formatting code with the library.
"""

from __future__ import annotations

import codecs
import csv
import io
import re

from citerank.corpus import CITATIONS_HEADER, JOURNALS_HEADER
from citerank.errors import CorpusError

MAX_COUNT = 2**53
INT64 = range(-(2**63), 2**63)
INT32 = range(-(2**31), 2**31)
# ASCII digits with an optional sign, between ASCII blanks or \x1c to \x1f.
INTEGER = re.compile(r"[ \t\v\f\x1c-\x1f]*([+-]?[0-9]+)[ \t\v\f\x1c-\x1f]*")


def rows(raw: bytes, header: list[str], what: str):
    """(line, row) for each non-blank row after the header of a UTF-8 file."""
    reader = csv.reader(io.StringIO(raw.removeprefix(codecs.BOM_UTF8).decode("utf-8"), newline=""))
    first = next(reader, None)
    if first is None:
        return
    if first != header:
        raise CorpusError(f"{what} file must start with header {','.join(header)!r}", line=1)
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise CorpusError(f"{what} row needs {len(header)} fields, got {len(row)}",
                              line=reader.line_num)
        if any(char in field for field in row for char in "\0\r\n"):
            raise CorpusError(f"{what} row holds a NUL, CR or LF inside a field",
                              line=reader.line_num)
        yield reader.line_num, row


def integers(row: list[str], line: int) -> list[int]:
    """The row's fields from the third on, as integers."""
    matches = [INTEGER.fullmatch(field) for field in row[2:]]
    if not all(matches):
        raise CorpusError(f"malformed numeric field in {row!r}", line=line)
    numbers = [int(match[1]) for match in matches]
    if not all(number in INT64 for number in numbers):
        raise CorpusError(f"numeric field outside the int64 range in {row!r}", line=line)
    return numbers


def journals(raw: bytes) -> tuple:
    """The Corpus journal fields of a journals.csv file: ids, names, and the
    article rows' journal positions, years and counts, in file order."""
    names: dict[str, str] = {}
    articles: list[tuple[str, int, int]] = []
    seen: set[tuple[str, int]] = set()
    for line, row in rows(raw, JOURNALS_HEADER, "journals"):
        jid, name = row[:2]
        if jid == "":
            raise CorpusError("empty journal id", line=line)
        if "\t" in jid:
            raise CorpusError(f"journal id {jid!r} holds a TAB", line=line)
        first = names.setdefault(jid, name)
        if first != name:
            raise CorpusError(
                f"journal {jid!r} listed with conflicting names {first!r} and {name!r}", line=line
            )
        if row[2:] == ["", ""]:
            continue
        year, count = integers(row, line)
        if count < 0:
            raise CorpusError(f"negative article count {count}", line=line)
        if count > MAX_COUNT:
            raise CorpusError(f"article count {count} is above 2**53", line=line)
        if year not in INT32:
            raise CorpusError(f"article year {year} is outside the int32 range", line=line)
        if (jid, year) in seen:
            raise CorpusError(f"duplicate journal id {jid!r} for year {year}", line=line)
        seen.add((jid, year))
        articles.append((jid, year, count))
    ids = sorted(names)
    position = {jid: i for i, jid in enumerate(ids)}
    return (
        tuple(ids),
        tuple(names[jid] for jid in ids),
        [position[jid] for jid, _, _ in articles],
        [year for _, year, _ in articles],
        [count for _, _, count in articles],
    )


def citations(ids: tuple[str, ...], raw: bytes) -> list[tuple[int, ...]]:
    """The records of a citations.csv file, in file order, with the journals
    as positions in `ids`."""
    position = {jid: i for i, jid in enumerate(ids)}
    records = []
    total = 0
    for line, row in rows(raw, CITATIONS_HEADER, "citations"):
        for jid in row[:2]:
            if jid not in position:
                raise CorpusError(f"unknown journal id {jid!r}", line=line)
        citing_year, cited_year, count = integers(row, line)
        if not 1 <= count <= MAX_COUNT:
            raise CorpusError(f"citation count must be >= 1 and <= 2**53, got {count}", line=line)
        for name, year in (("citing_year", citing_year), ("cited_year", cited_year)):
            if year not in INT32:
                raise CorpusError(f"{name} {year} is outside the int32 range", line=line)
        if cited_year > citing_year:
            raise CorpusError(f"cited_year {cited_year} is after citing_year {citing_year}",
                              line=line)
        total += count
        if total > MAX_COUNT:
            raise CorpusError("the running total of citation counts passes 2**53", line=line)
        records.append((position[row[0]], position[row[1]], citing_year, cited_year, count))
    return records


def write_journals(corpus, out) -> None:
    """journals.csv: one row per article row, in (journal, year) order; a
    journal without article rows gets one row with empty year and articles."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(JOURNALS_HEADER)
    articles = {j: [] for j in range(corpus.n_journals)}
    for j, year, count in zip(corpus.article_journal.tolist(), corpus.article_year.tolist(),
                              corpus.article_count.tolist()):
        articles[j].append((year, count))
    for j, (jid, name) in enumerate(zip(corpus.ids, corpus.names)):
        for year, count in sorted(articles[j]) or [("", "")]:
            writer.writerow([jid, name, year, count])


def write_citations(corpus, out) -> None:
    """citations.csv: one row per record, in the corpus's record order."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CITATIONS_HEADER)
    for citing, cited, *numbers in zip(corpus.citing.tolist(), corpus.cited.tolist(),
                                       corpus.citing_year.tolist(), corpus.cited_year.tolist(),
                                       corpus.count.tolist()):
        writer.writerow([corpus.ids[citing], corpus.ids[cited], *numbers])
