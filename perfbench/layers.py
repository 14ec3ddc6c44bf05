"""Per-layer metrics from the spans `traced.py` writes.

A span's self time is its duration minus the time its child spans cover
(calls are sequential, so children never overlap).  Layer times are self
times summed over every call of that layer in the run.
"""

from __future__ import annotations

# metric name -> span name; the metric sums that span's self times.
SELF_TIMES = {
    "corpus.load_s": "corpus.load_corpus",
    "corpus.columnar_s": "corpus.Corpus.columnar",
    "eigenrank.build_matrix_s": "eigenrank.build_matrix",
    "eigenrank.eigen_scores_s": "eigenrank.eigen_scores",
    "metrics.total_citations_s": "metrics.total_citations",
    "metrics.impact_factor_s": "metrics.impact_factor",
    "compare.rank_s": "compare.rank",
    "compare.compare_metrics_s": "compare.compare_metrics",
    "cli.self_s": "cli.main",
}

# metric name -> (span name, attribute); the metric sums that count.
COUNTS = {
    "corpus.records": ("corpus.load_corpus", "records"),
    "eigenrank.nnz": ("eigenrank.build_matrix", "nnz"),
    "eigenrank.dangling": ("eigenrank.build_matrix", "dangling"),
    "eigenrank.iterations": ("eigenrank.eigen_scores", "iterations"),
    "metrics.omitted": ("metrics.impact_factor", "omitted"),
}

WRITER_PREFIX = "cli.write_"

# Layers measured from the traced `gen` that builds the inputs.
SETUP_SELF_TIMES = {
    "syngen.generate_s": "syngen.generate",
    "setup.corpus_write_s": "corpus.write_corpus",
}
SETUP_COUNTS = {
    "setup.corpus_write_bytes": ("corpus.write_corpus", "bytes"),
}

UNITS = {"_s": "s", "_ms": "ms", "_bytes": "bytes", "_per_row": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def self_times(spans: list[dict]) -> dict[int, float]:
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def _sum_self(spans, own, span_name) -> float:
    return sum(own[s["id"]] for s in spans if s["name"] == span_name)


def _sum_count(spans, span_name, attr) -> float | None:
    values = [s["attrs"].get(attr) for s in spans if s["name"] == span_name]
    if any(v is None for v in values):
        return None
    return float(sum(values))


def command_layers(doc: dict, rows_read: int) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of one traced workload command, plus the absent ones.

    An absent metric is one whose function no longer exists, or whose count
    the function's result no longer carries; it is reported as 0.
    """
    spans = doc["spans"]
    own = self_times(spans)
    absent_spans = set(doc["absent"])
    metrics: dict[str, float] = {}
    absent: list[str] = []
    for metric, span_name in SELF_TIMES.items():
        if span_name in absent_spans:
            absent.append(metric)
        metrics[metric] = _sum_self(spans, own, span_name)
    for metric, (span_name, attr) in COUNTS.items():
        value = _sum_count(spans, span_name, attr)
        if span_name in absent_spans or value is None:
            absent.append(metric)
            value = 0.0
        metrics[metric] = value

    by_id = {s["id"]: s for s in spans}
    top_writers = [
        s for s in spans
        if s["name"].startswith(WRITER_PREFIX)
        and not by_id.get(s["parent"], {"name": ""})["name"].startswith(WRITER_PREFIX)
    ]
    metrics["cli.write_s"] = sum(s["end"] - s["start"] for s in top_writers)
    metrics["cli.write_bytes"] = float(sum(s["attrs"].get("bytes", 0) for s in top_writers))
    metrics["cli.import_s"] = doc["import_s"]
    metrics["compare.pairs"] = float(sum(1 for s in spans if s["name"] == "compare.compare_metrics"))

    metrics["corpus.rows_read"] = float(rows_read)
    metrics["corpus.records_per_row"] = metrics["corpus.records"] / rows_read if rows_read else 0.0
    iterations = metrics["eigenrank.iterations"]
    metrics["eigenrank.iteration_ms"] = (
        1000.0 * metrics["eigenrank.eigen_scores_s"] / iterations if iterations else 0.0
    )
    return metrics, absent


def setup_layers(doc: dict) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the traced `gen` run that writes the inputs."""
    spans = doc["spans"]
    own = self_times(spans)
    metrics = {m: _sum_self(spans, own, name) for m, name in SETUP_SELF_TIMES.items()}
    absent = [m for m, name in SETUP_SELF_TIMES.items() if name in doc["absent"]]
    for metric, (span_name, attr) in SETUP_COUNTS.items():
        value = _sum_count(spans, span_name, attr)
        if span_name in doc["absent"] or value is None:
            absent.append(metric)
        metrics[metric] = value or 0.0
    return metrics, absent
