"""Run one citerank command in this process, recording a span per layer call.

    python3 perfbench/traced.py SPANS_JSON RUN_ID -- CITERANK_ARGS...

The library is not modified.  `citerank.cli` binds `load_corpus`,
`build_matrix` and the other layer functions into its own namespace at
import time, so the wrappers replace those names in `citerank.cli` (patching
`citerank.corpus` alone would record nothing).  `Corpus.columnar` is wrapped
on the class while it exists.  A name that no longer exists is listed as
absent in the spans file rather than treated as an error.

The spans file holds the run id, the import time of `citerank.cli`, the
absent names, the exit code, and one entry per call: name, id, parent,
start, end, and the counts taken at that boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import sys
import time
from functools import cached_property
from pathlib import Path

_ITERATIONS = re.compile(r"\biterations=(\d+)")


def _path_arg(args) -> str | None:
    for arg in args:
        if isinstance(arg, (str, os.PathLike)):
            return os.fspath(arg)
    return None


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counts taken at each boundary, from the call's arguments and result.
def _count_corpus(args, kwargs, corpus):
    # None (reported as absent) once the corpus no longer keeps a record dict.
    citations = getattr(corpus, "citations", None)
    return {"records": None if citations is None else len(citations),
            "journals": len(corpus.journals)}


def _count_corpus_write(args, kwargs, result):
    return {"bytes": _size(args[1]) + _size(args[2])}


def _count_columnar(args, kwargs, cols):
    return {"records": len(cols.counts)}


def _count_matrix(args, kwargs, result):
    matrix = result[0]
    return {"nnz": int(matrix.matrix.nnz), "dangling": int(matrix.dangling.sum()),
            "order": int(matrix.matrix.shape[0])}


def _count_eigen(args, kwargs, vector):
    found = _ITERATIONS.search(getattr(vector, "provenance", "") or "")
    return {"iterations": int(found.group(1)) if found else None}


def _count_metric(args, kwargs, vector):
    return {"scored": len(vector.scores), "omitted": len(args[0].journals) - len(vector.scores)}


def _count_writer(args, kwargs, result):
    return {"bytes": _size(_path_arg(args))}


# (span name, attribute of citerank.cli, counter)
CLI_LAYERS = (
    ("corpus.load_corpus", "load_corpus", _count_corpus),
    ("corpus.write_corpus", "write_corpus", _count_corpus_write),
    ("syngen.generate", "generate", _count_corpus),
    ("eigenrank.build_matrix", "build_matrix", _count_matrix),
    ("eigenrank.eigen_scores", "eigen_scores", _count_eigen),
    ("metrics.total_citations", "total_citations", _count_metric),
    ("metrics.impact_factor", "impact_factor", _count_metric),
    ("compare.rank", "rank", None),
    ("compare.compare_metrics", "compare_metrics", None),
    ("cli.write_json", "write_json", _count_writer),
    ("cli.write_metric_file", "write_metric_file", _count_writer),
    ("cli.write_rank_table", "write_rank_table", _count_writer),
    ("cli.write_scatter", "write_scatter", _count_writer),
)


class Recorder:
    """Keeps spans in memory; nested calls record their caller as parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = {} if ok else {"error": True}
                if ok and counter:
                    try:
                        attrs = counter(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError) as exc:
                        attrs = {"count_error": f"{type(exc).__name__}: {exc}"}
                self.spans.append({"name": name, "id": span_id, "parent": parent,
                                   "run": self.run_id, "start": start, "end": end,
                                   "attrs": attrs})
            return result

        return traced


def instrument(cli, recorder: Recorder) -> list[str]:
    """Wrap every layer entry point `cli` uses; return the names not found."""
    absent = []
    for span_name, attr, counter in CLI_LAYERS:
        fn = getattr(cli, attr, None)
        if fn is None:
            absent.append(span_name)
        else:
            setattr(cli, attr, recorder.wrap(span_name, fn, counter))
    corpus_cls = getattr(cli, "Corpus", None)
    columnar = vars(corpus_cls).get("columnar") if corpus_cls is not None else None
    if isinstance(columnar, cached_property):
        wrapped = cached_property(
            recorder.wrap("corpus.Corpus.columnar", columnar.func, _count_columnar)
        )
        wrapped.__set_name__(corpus_cls, "columnar")
        setattr(corpus_cls, "columnar", wrapped)
    else:
        absent.append("corpus.Corpus.columnar")
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    started = time.perf_counter()
    import citerank.cli as cli

    import_s = time.perf_counter() - started
    recorder = Recorder(run_id)
    absent = instrument(cli, recorder)
    code = recorder.wrap("cli.main", cli.main)(cli_args)
    spans_path.write_text(
        json.dumps({"run": run_id, "argv": cli_args, "exit_code": code,
                    "citerank": cli.__file__, "import_s": import_s, "absent": absent,
                    "spans": recorder.spans}, indent=1) + "\n",
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
