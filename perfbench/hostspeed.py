"""Reference job: a fixed amount of the kind of work `citerank` does.

    python3 perfbench/hostspeed.py

The benchmark runs this between the commands it measures, as a child
process like them, to track how fast the host is at that moment.  The work
never changes (it takes no seed and no input), so any change in its wall
time is the host's, not the program's.  It mirrors the program's mix:
interpreter start and the import of numpy and scipy, CSV parsing into a
dict of tuple keys, a Python loop filling numpy arrays, a sparse matrix,
a sort and a JSON dump.
"""

import csv
import io
import json

import numpy as np
import scipy.sparse
import scipy.stats  # noqa: F401  (citerank imports it too)

ROWS = 150_000
JOURNALS = 5_000


def main() -> int:
    # A fixed linear congruential stream: the same rows on every run.
    state = 12345
    lines = ["citing,cited,citing_year,cited_year,count"]
    for _ in range(ROWS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = state % JOURNALS, (state >> 8) % JOURNALS
        year = 2002 + (state >> 16) % 5
        lines.append(f"J{a:05d},J{b:05d},{year},{year - (state >> 20) % 3},{1 + state % 9}")
    text = "\n".join(lines)

    merged: dict[tuple[str, str, int, int], int] = {}
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for citing, cited, citing_year, cited_year, count in reader:
        key = (citing, cited, int(citing_year), int(cited_year))
        merged[key] = merged.get(key, 0) + int(count)

    ids = sorted({k[0] for k in merged} | {k[1] for k in merged})
    index = {jid: i for i, jid in enumerate(ids)}
    rows = np.empty(len(merged), dtype=np.int64)
    cols = np.empty(len(merged), dtype=np.int64)
    data = np.empty(len(merged), dtype=np.float64)
    for i, ((citing, cited, _, _), count) in enumerate(merged.items()):
        rows[i], cols[i], data[i] = index[cited], index[citing], count
    matrix = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(len(ids), len(ids)))
    scores = np.asarray(matrix.sum(axis=1)).ravel()
    order = np.argsort(-scores, kind="stable")
    text = json.dumps({ids[i]: float(scores[i]) for i in order}, indent=2, sort_keys=True)
    return 0 if text else 1


if __name__ == "__main__":
    raise SystemExit(main())
