"""Command-line front end: ingest, rank, compare, gen, report.

All configuration comes from flags (no environment variables), and every
run with identical inputs and flags produces bit-identical output files:
JSON is written with sorted keys and full-precision floats, tables with a
fixed significant-digit format, and row orders are always explicit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from . import __version__
from .compare import (TIE_POLICIES, ComparisonReport, RankTable, check_coverage, check_k,
                      compare_metrics, rank, vector_stats)
from .corpus import CitationWindow, Corpus, load_corpus, write_corpus
from .eigenrank import EigenSettings, build_matrix, eigen_scores
from .errors import CiteRankError, MetricError
from .metrics import MetricVector, impact_factor, total_citations
from .syngen import GenSettings, generate

# ---------------------------------------------------------------------------
# file formats


def _json_text(obj, pad: str = "") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for an object
    on a line indented by `pad`.  A dict that holds containers must have string keys.

    `indent` turns off json's C encoder, so the containers are written by hand
    down to those that hold only scalars, which the C encoder writes.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(value, (dict, list, tuple)) for value in values):
        text = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))
    elif isinstance(obj, dict):
        text = "{%s}" % (",\n" + inner).join(
            f"{json.dumps(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items())
        )
    else:
        text = "[%s]" % (",\n" + inner).join(_json_text(value, inner) for value in obj)
    return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"


def write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_json_text(obj) + "\n")


def write_metric_file(vector: MetricVector, path: Path) -> None:
    """The vector's metric_name, provenance and scores."""
    write_json({"metric_name": vector.metric_name, "provenance": vector.provenance,
                "scores": dict(vector.scores)}, path)


def load_metric_file(path) -> MetricVector:
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except RecursionError:
            raise CiteRankError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict) or "metric_name" not in payload or "scores" not in payload:
        raise CiteRankError(f"{path}: not a metric file (needs metric_name and scores)")
    scores = payload["scores"]
    # type(), not isinstance(): JSON true and false load as bools, which are ints.
    if not isinstance(scores, dict) or not all(type(v) in (int, float) for v in scores.values()):
        raise CiteRankError(f"{path}: scores must map journal ids to numbers")
    try:
        return MetricVector.from_scores(
            payload["metric_name"], scores, payload.get("provenance", "")
        )
    except (MetricError, OverflowError) as exc:
        raise CiteRankError(f"{path}: {exc}") from None


def _rank_rows(table: RankTable, rows: slice, row_format: str) -> str:
    """The table's rows in `rows`, each formatted from (rank, journal, score)."""
    return "".join(map(row_format.format, table.ranks[rows].tolist(), table.journals[rows],
                       table.scores[rows].tolist()))


def write_rank_table(table: RankTable, path: Path, precision: int) -> None:
    text = _rank_rows(table, slice(None), f"{{:g}}\t{{}}\t{{:.{precision}g}}\n")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("rank\tjournal\tscore\n" + text)


def print_rank_table(table: RankTable, top: int, precision: int, out: IO[str]) -> None:
    rows = slice(top or None)  # 0 prints every row
    width = max([len("journal"), *map(len, table.journals[rows])])
    text = _rank_rows(table, rows, f"{{:>6g}}  {{:<{width}}}  {{:.{precision}g}}\n")
    out.write(f"{'rank':>6}  {'journal':<{width}}  score ({table.metric_name})\n" + text)


# The statistics a pair's entry in report.json repeats from its report file.
HEADLINE = ("pearson_log_rho", "spearman_rho", "n")


def comparison_json(report: ComparisonReport) -> dict:
    """The pair report file's contents; tuples are written as JSON arrays."""
    fields = HEADLINE + ("omitted",)
    return {name: getattr(report, name) for name in fields} | {"ellipse": asdict(report.ellipse)}


def write_scatter(report: ComparisonReport, path: Path) -> None:
    """Tab-separated (journal, log10 x, log10 y) for the positive common pairs."""
    ids, lx, ly = report.scatter
    text = "".join(map("{}\t{!r}\t{!r}\n".format, ids, lx.tolist(), ly.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"journal\tlog10_{report.x_name}\tlog10_{report.y_name}\n" + text)


# ---------------------------------------------------------------------------
# shared computation


class MetricFlags(NamedTuple):
    """A metric's defaults and the tuning flags (argparse dests) it reads."""

    include_self: bool
    span: int | None  # cited years before --census-year; None counts every record
    reads: tuple[str, ...]


TUNING_FLAGS = ("window_span", "include_self", "alpha", "tol", "max_iter")
# Eigenfactor.org's Eigenfactor counts census-year citations to the five prior
# years without self-citations; ISI's total cites count every record.
METRIC_FLAGS = {
    "eigenfactor": MetricFlags(False, 5, TUNING_FLAGS),
    "citations": MetricFlags(True, None, ("window_span", "include_self")),
    "impact-factor": MetricFlags(True, 2, ()),
}
METHODS = tuple(METRIC_FLAGS)


def resolve(method: str, args) -> tuple[CitationWindow, EigenSettings]:
    """The window and iteration settings the flags give `method`."""
    flags = METRIC_FLAGS[method]

    def read(dest, default):
        value = getattr(args, dest) if dest in flags.reads else None
        return default if value is None else value

    span = read("window_span", flags.span)
    include_self = read("include_self", flags.include_self)
    if span is None or args.census_year is None:
        window = CitationWindow(include_self=include_self)
    else:
        window = CitationWindow(args.census_year, span, include_self)
    settings = EigenSettings(read("alpha", EigenSettings.alpha),
                             read("tol", EigenSettings.tolerance),
                             read("max_iter", EigenSettings.max_iterations))
    return window, settings


def compute_metric(corpus: Corpus, method: str, window: CitationWindow,
                   settings: EigenSettings) -> MetricVector:
    """The one place a metric is scored, with what `resolve` gives it."""
    if method == "eigenfactor":
        return eigen_scores(*build_matrix(corpus, window), settings)
    if method == "citations":
        return total_citations(corpus, window)
    return impact_factor(corpus, window.census_year)


def _unscored(corpus: Corpus, vector: MetricVector) -> list[str]:
    """The corpus journals the vector has no score for, sorted."""
    return sorted(set(corpus.ids).difference(vector.ids))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.journals, args.citations)
    out = _out_dir(args)
    write_corpus(corpus, out / "journals.csv", out / "citations.csv")
    span = corpus.year_range()
    summary = {
        "journals": corpus.n_journals,
        "citation_records": corpus.n_records,
        "total_citation_count": corpus.total_count(),
        "year_range": list(span) if span else None,
    }
    write_json(summary, out / "ingest.json")
    print(
        f"ingested {summary['journals']} journals, "
        f"{summary['citation_records']} citation records "
        f"({summary['total_citation_count']} citations)"
    )
    return 0


def write_ranked(vector: MetricVector, table: RankTable, precision: int, out: Path) -> list[str]:
    """Write the vector's metric file and its rank table; return the file names."""
    files = [f"{vector.metric_name}.metric.json", f"{vector.metric_name}.ranks.tsv"]
    write_metric_file(vector, out / files[0])
    write_rank_table(table, out / files[1], precision)
    return files


def cmd_rank(args) -> int:
    corpus = load_corpus(args.journals, args.citations)
    vector = compute_metric(corpus, args.method, *resolve(args.method, args))
    table = rank(vector, args.tie_policy)
    out = _out_dir(args)  # only once nothing is left to fail
    write_ranked(vector, table, args.precision, out)
    print_rank_table(table, args.top, args.precision, sys.stdout)
    omitted = _unscored(corpus, vector)
    if omitted:
        print(f"omitted ({len(omitted)} journals without a score): {', '.join(omitted)}")
    return 0


def _unique_name(base: str, used: set[str]) -> str:
    """`base`, or the first of `base_2`, `base_3`, ... not in `used`; it joins `used`."""
    name, suffix = base, 2
    while name in used:
        name, suffix = f"{base}_{suffix}", suffix + 1
    used.add(name)
    return name


def compare_all(
    vectors: list[MetricVector], ks: list[int], coverage: float
) -> tuple[dict[str, ComparisonReport], dict[str, dict]]:
    """The report of every pair of vectors, by the pair's name, and each
    vector's own statistics, by a name unique among the vectors."""
    pairs: set[str] = set()
    reports = {_unique_name(f"{x.metric_name}_vs_{y.metric_name}", pairs):
               compare_metrics(x, y, coverage=coverage)
               for x, y in itertools.combinations(vectors, 2)}
    names: set[str] = set()
    return reports, {_unique_name(v.metric_name, names): vector_stats(v, ks) for v in vectors}


def write_stats(stats: dict[str, dict], out: Path) -> dict[str, str]:
    """Write each vector's stats file, and return the file's name by the vector's.
    Each vector's stats leave `stats` once they are written."""
    files = {name: f"{name}.stats.json" for name in stats}
    for name, file in files.items():
        write_json(stats.pop(name), out / file)
    return files


def write_comparisons(reports: dict[str, ComparisonReport], out: Path) -> dict[str, dict]:
    """Write each pair's report and scatter files, and return the index entry
    of each pair by name.  Each report leaves `reports` once it is written."""
    index: dict[str, dict] = {}
    for name in list(reports):
        report = reports.pop(name)
        files = [f"{name}.report.json", f"{name}.scatter.tsv"]
        write_json(comparison_json(report), out / files[0])
        write_scatter(report, out / files[1])
        print(
            f"{report.x_name} vs {report.y_name}: "
            f"pearson_log={report.pearson_log_rho:.4f} "
            f"spearman={report.spearman_rho:.4f} n={report.n}"
        )
        index[name] = {"files": files, **{key: getattr(report, key) for key in HEADLINE}}
    return index


def cmd_compare(args) -> int:
    vectors = [load_metric_file(p) for p in args.metrics]
    reports, stats = compare_all(vectors, args.ks, args.coverage)
    out = _out_dir(args)  # only once nothing is left to fail
    write_stats(stats, out)
    write_comparisons(reports, out)
    return 0


def cmd_gen(args) -> int:
    corpus = generate(args.gen_settings)
    out = _out_dir(args)
    write_corpus(corpus, out / "journals.csv", out / "citations.csv")
    print(
        f"generated {corpus.n_journals} journals, "
        f"{corpus.n_records} citation records (seed {args.gen_settings.seed})"
    )
    return 0


def cmd_report(args) -> int:
    corpus = load_corpus(args.journals, args.citations)
    resolved = {method: resolve(method, args) for method in METHODS}
    vectors = [compute_metric(corpus, method, *resolved[method]) for method in METHODS]
    reports, stats = compare_all(vectors, args.ks, args.coverage)
    out = _out_dir(args)  # only once nothing is left to fail
    # The stats and pair files first: each is freed before the rank tables are made.
    stats_files = write_stats(stats, out)
    comparisons = write_comparisons(reports, out)
    metric_files = {v.metric_name: {"files": [*write_ranked(v, rank(v, args.tie_policy),
                                                            args.precision, out),
                                              stats_files[v.metric_name]]} for v in vectors}

    window, settings = resolved["eigenfactor"]
    bundle = {
        "metadata": {
            "tool": "citerank",
            "version": __version__,
            "settings": asdict(settings) | {
                "exclude_self": not window.include_self,
                "census_year": args.census_year,
                "tie_policy": args.tie_policy,
                "ks": args.ks,
                "coverage": args.coverage,
            },
            "windows": {v.metric_name: resolved[method][0].describe()
                        for method, v in zip(METHODS, vectors)},
            "omissions": {"impact_factor_zero_denominator": _unscored(corpus, vectors[2])},
        },
        "metrics": metric_files,
        "comparisons": comparisons,
    }
    write_json(bundle, out / "report.json")
    print(f"report bundle written to {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _checked(parse, check):
    """argparse type: `parse` the text, then hold the value to `check`, the
    library's own statement of the rule.  A broken rule is a usage error."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        try:
            check(value)
        except (ValueError, CiteRankError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


def _integer(low: int | None = None, high: int | None = None):
    """argparse type: an integer in [low, high]."""
    def check(value: int) -> None:
        if low is not None and value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}, got {value}")
    return _checked(int, check)


# Census years and spans within 2**62 keep the window's first year inside int64.
_YEAR_BOUND = 2**62
_year = _integer(-_YEAR_BOUND, _YEAR_BOUND)
# The least value of each field a size cap multiplies, so that a gen flag's check
# rejects only what no value of the other flags could make legal.
_LEAST_GEN = GenSettings(1, (0, 0), mean_out_citations=5e-324)


def _gen_field(name: str, parse):
    """argparse type: a value for GenSettings' field `name`, checked there."""
    return _checked(parse, lambda value: replace(_LEAST_GEN, **{name: value}))


def _years(text: str) -> tuple[int, int]:
    """argparse type: an inclusive year range A:B, or one year A."""
    first, colon, last = text.partition(":")
    try:
        return _year(first), _year(last if colon else first)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"must look like 2002:2006, got {text!r}: {exc}") from None


def _ks(text: str) -> list[int]:
    """argparse type: comma-separated concentration k values."""
    return [_checked(int, check_k)(part) for part in text.split(",") if part]


def _metric_paths(text: str) -> list[str]:
    """argparse type: 2 or 3 comma-separated paths."""
    paths = [path for path in text.split(",") if path]
    if len(paths) not in (2, 3):
        raise argparse.ArgumentTypeError(f"needs 2 or 3 files, got {len(paths)}")
    return paths


def _add_corpus_flags(sub) -> None:
    sub.add_argument("--journals", required=True, help="journals CSV (id,name,year,articles)")
    sub.add_argument("--citations", required=True,
                     help="citations CSV (citing,cited,citing_year,cited_year,count)")


def _add_rank_flags(sub, census_required: bool = False) -> None:
    sub.add_argument("--window-span", type=_checked(_year, lambda v: CitationWindow(span=v)), help=(
        "publication years before --census-year whose citations count (default: "
        f"{METRIC_FLAGS['eigenfactor'].span} for eigenfactor, every record for citations)"))
    sub.add_argument("--census-year", type=_year, default=None,
                     required=census_required, help="year whose citations are counted")
    sub.add_argument("--alpha", type=_checked(float, lambda v: EigenSettings(alpha=v)),
                     help=f"eigenfactor damping factor (default {EigenSettings.alpha})")
    sub.add_argument("--tol", type=_checked(float, lambda v: EigenSettings(tolerance=v)),
                     help=f"eigenfactor L1 residual tolerance (default {EigenSettings.tolerance})")
    sub.add_argument("--max-iter", type=_checked(int, lambda v: EigenSettings(max_iterations=v)),
                     help=f"eigenfactor iteration cap (default {EigenSettings.max_iterations})")
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--include-self", dest="include_self", action="store_const", const=True,
                     help="count self-citations (default for citations)")
    grp.add_argument("--exclude-self", dest="include_self", action="store_const", const=False,
                     help="drop self-citations (default for eigenfactor)")
    sub.add_argument("--tie-policy", choices=TIE_POLICIES, default="min")
    sub.add_argument("--precision", type=_integer(1), default=6,
                     help="significant digits in printed tables (default 6)")


def _add_compare_flags(sub) -> None:
    sub.add_argument("--coverage", type=_checked(float, check_coverage), default=0.95,
                     help="ellipse coverage probability (default 0.95)")
    sub.add_argument("--ks", type=_ks, default="1,5,10",
                     help="comma-separated k values (each >= 1) for concentration shares")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citerank",
        description="Rank journals by citation metrics and compare the rankings.",
    )
    parser.add_argument("--version", action="version", version=f"citerank {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="validate corpus files and write a normalized copy")
    _add_corpus_flags(ingest)
    ingest.add_argument("--out", required=True, help="output directory")
    ingest.set_defaults(func=cmd_ingest)

    rank_cmd = commands.add_parser("rank", help="score journals and write metric + rank files")
    _add_corpus_flags(rank_cmd)
    rank_cmd.add_argument("--method", choices=METHODS, required=True)
    _add_rank_flags(rank_cmd)
    rank_cmd.add_argument("--top", type=_integer(0), default=20,
                          help="rows to print; 0 prints every row (default 20)")
    rank_cmd.add_argument("--out", required=True, help="output directory")
    rank_cmd.set_defaults(func=cmd_rank)

    compare_cmd = commands.add_parser("compare", help="paired statistics for 2-3 metric files")
    compare_cmd.add_argument("--metrics", type=_metric_paths, required=True,
                             help="comma-separated metric JSON files (2 or 3)")
    _add_compare_flags(compare_cmd)
    compare_cmd.add_argument("--out", required=True, help="output directory")
    compare_cmd.set_defaults(func=cmd_compare)

    gen = commands.add_parser("gen", help="generate a seeded synthetic corpus")
    gen.add_argument("--journals", required=True, help="number of journals",
                     type=_gen_field("n_journals", int))
    gen.add_argument("--years", type=_gen_field("years", _years), default="2002:2006",
                     help="inclusive year range A:B")
    gen.add_argument("--skew", type=_gen_field("skew_exponent", float), default=1.0,
                     help="attractiveness tail exponent")
    gen.add_argument("--mean-out", type=_gen_field("mean_out_citations", float), default=20.0,
                     help="mean outgoing citation events per journal")
    gen.add_argument("--seed", type=_gen_field("seed", int), default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    report = commands.add_parser(
        "report",
        help="full pipeline: all three metrics, rank tables, pairwise comparisons, bundle",
    )
    _add_corpus_flags(report)
    _add_rank_flags(report, census_required=True)
    _add_compare_flags(report)
    report.add_argument("--out", required=True, help="output directory")
    report.set_defaults(func=cmd_report)

    return parser


def _option(dest: str, args) -> str:
    """The flag that set `dest`."""
    if dest == "include_self":
        return "--include-self" if args.include_self else "--exclude-self"
    return "--" + dest.replace("_", "-")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "window_span", None) is not None and args.census_year is None:
            parser.error("--window-span needs --census-year")
        method = getattr(args, "method", None)  # report reads every flag
        if method == "impact-factor" and args.census_year is None:
            parser.error("--method impact-factor needs --census-year")
        if args.command == "gen":
            try:
                args.gen_settings = GenSettings(args.journals, args.years, args.skew,
                                                args.mean_out, args.seed)
            except ValueError as exc:
                parser.error(str(exc))
        ignored = [_option(dest, args) for dest in TUNING_FLAGS if method
                   and dest not in METRIC_FLAGS[method].reads and getattr(args, dest) is not None]
        if ignored:
            parser.error(f"{', '.join(ignored)}: options that do not apply to --method {method}")
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 2
    return run_reporting_errors("citerank", args.func, args)


def run_reporting_errors(prog: str, run, *args) -> int:
    """`run(*args)`'s exit status, or 1 with one `prog: error:` line on stderr
    when it fails on its inputs."""
    try:
        return run(*args)
    except (CiteRankError, ValueError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
