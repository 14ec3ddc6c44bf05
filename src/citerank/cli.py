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
from pathlib import Path
from typing import IO, Sequence

from . import __version__
from .compare import ComparisonReport, RankTable, compare_metrics, positive_log_pairs, rank
from .corpus import CitationWindow, Corpus, load_corpus, write_corpus
from .eigenrank import EigenSettings, build_matrix, eigen_scores
from .errors import CiteRankError
from .metrics import MetricVector, impact_factor, total_citations
from .syngen import GenSettings, generate

METHODS = ("eigenfactor", "citations", "impact-factor")


# ---------------------------------------------------------------------------
# file formats


def write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_metric_file(vector: MetricVector, path: Path) -> None:
    write_json(
        {
            "metric_name": vector.metric_name,
            "provenance": vector.provenance,
            "scores": vector.scores,
        },
        path,
    )


def load_metric_file(path) -> MetricVector:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or "metric_name" not in payload or "scores" not in payload:
        raise CiteRankError(f"{path}: not a metric file (needs metric_name and scores)")
    scores = {jid: float(v) for jid, v in payload["scores"].items()}
    return MetricVector(
        metric_name=payload["metric_name"],
        scores=scores,
        provenance=payload.get("provenance", ""),
    )


def format_score(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def write_rank_table(table: RankTable, path: Path, precision: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("rank\tjournal\tscore\n")
        for row in table.rows:
            f.write(f"{row.rank:g}\t{row.journal}\t{format_score(row.score, precision)}\n")


def print_rank_table(table: RankTable, top: int, precision: int, out: IO[str]) -> None:
    rows = table.rows[:top] if top > 0 else table.rows
    width = max([len("journal")] + [len(r.journal) for r in rows])
    out.write(f"{'rank':>6}  {'journal':<{width}}  score ({table.metric_name})\n")
    for row in rows:
        out.write(f"{row.rank:>6g}  {row.journal:<{width}}  {format_score(row.score, precision)}\n")


def rank_table_json(table: RankTable) -> dict:
    return {
        "metric_name": table.metric_name,
        "tie_policy": table.tie_policy,
        "rows": [[row.journal, row.score, row.rank] for row in table.rows],
    }


def comparison_json(report: ComparisonReport) -> dict:
    ellipse = report.ellipse
    return {
        "pearson_log_rho": report.pearson_log_rho,
        "spearman_rho": report.spearman_rho,
        "n": report.n,
        "omitted": list(report.omitted),
        "concentration": [[k, share] for k, share in report.concentration],
        "rank_gaps": list(report.rank_gaps),
        "ellipse": {
            "center": list(ellipse.center),
            "semi_axes": list(ellipse.semi_axes),
            "orientation_radians": ellipse.orientation_radians,
            "coverage": ellipse.coverage,
            "degenerate": ellipse.degenerate,
        },
    }


def write_scatter(x: MetricVector, y: MetricVector, path: Path) -> list[list]:
    """Tab-separated (journal, log10 x, log10 y) for the positive common pairs."""
    ids, lx, ly, _ = positive_log_pairs(x, y)
    rows = [[jid, float(a), float(b)] for jid, a, b in zip(ids, lx, ly)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"journal\tlog10_{x.metric_name}\tlog10_{y.metric_name}\n")
        for jid, a, b in rows:
            f.write(f"{jid}\t{a!r}\t{b!r}\n")
    return rows


# ---------------------------------------------------------------------------
# shared computation


def _self_policy(args, default_include: bool) -> bool:
    """Resolve --include-self/--exclude-self to an include_self boolean."""
    if args.include_self is None:
        return default_include
    return args.include_self


def _citation_window(args) -> CitationWindow:
    if args.census_year is None:
        return CitationWindow.all_years()
    span = args.window_span if args.window_span is not None else 5
    return CitationWindow.cited(args.census_year, span)


def compute_metric(corpus: Corpus, method: str, args) -> MetricVector:
    if method == "citations":
        return total_citations(
            corpus, _citation_window(args), include_self=_self_policy(args, True)
        )
    if method == "impact-factor":
        if args.census_year is None:
            raise CiteRankError("--census-year is required for the impact-factor method")
        return impact_factor(corpus, args.census_year)
    if method == "eigenfactor":
        settings = EigenSettings(
            alpha=args.alpha,
            tolerance=args.tol,
            max_iterations=args.max_iter,
            exclude_self=not _self_policy(args, False),
        )
        window = _citation_window(args)
        matrix, articles = build_matrix(corpus, window, exclude_self=settings.exclude_self)
        return eigen_scores(matrix, articles, settings)
    raise CiteRankError(f"unknown method {method!r}")


def _load_corpus_args(args) -> Corpus:
    if args.journals is None or args.citations is None:
        raise CiteRankError("--journals and --citations are required")
    return load_corpus(args.journals, args.citations)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    corpus = _load_corpus_args(args)
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


def cmd_rank(args) -> int:
    corpus = _load_corpus_args(args)
    out = _out_dir(args)
    vector = compute_metric(corpus, args.method, args)
    write_metric_file(vector, out / f"{vector.metric_name}.metric.json")
    table = rank(vector, tie_policy=args.tie_policy)
    write_rank_table(table, out / f"{vector.metric_name}.ranks.tsv", args.precision)
    print_rank_table(table, args.top, args.precision, sys.stdout)
    omitted = sorted(set(corpus.journals) - set(vector.scores))
    if omitted:
        print(f"omitted ({len(omitted)} journals without a score): {', '.join(omitted)}")
    return 0


def _pair_name(x: MetricVector, y: MetricVector, used: set[str]) -> str:
    base = f"{x.metric_name}_vs_{y.metric_name}"
    name = base
    suffix = 2
    while name in used:
        name = f"{base}_{suffix}"
        suffix += 1
    used.add(name)
    return name


def cmd_compare(args) -> int:
    paths = [p for p in args.metrics.split(",") if p]
    if len(paths) not in (2, 3):
        raise CiteRankError(f"--metrics needs 2 or 3 files, got {len(paths)}")
    vectors = [load_metric_file(p) for p in paths]
    ks = _parse_ks(args.ks)
    out = _out_dir(args)
    used: set[str] = set()
    for x, y in itertools.combinations(vectors, 2):
        report = compare_metrics(x, y, ks=ks, coverage=args.coverage)
        name = _pair_name(x, y, used)
        write_json(comparison_json(report), out / f"{name}.report.json")
        write_scatter(x, y, out / f"{name}.scatter.tsv")
        print(
            f"{x.metric_name} vs {y.metric_name}: "
            f"pearson_log={report.pearson_log_rho:.4f} "
            f"spearman={report.spearman_rho:.4f} n={report.n}"
        )
    return 0


def cmd_gen(args) -> int:
    settings = GenSettings(
        n_journals=args.journals,
        years=_parse_years(args.years),
        skew_exponent=args.skew,
        mean_out_citations=args.mean_out,
        seed=args.seed,
    )
    corpus = generate(settings)
    out = _out_dir(args)
    write_corpus(corpus, out / "journals.csv", out / "citations.csv")
    print(
        f"generated {corpus.n_journals} journals, "
        f"{corpus.n_records} citation records (seed {settings.seed})"
    )
    return 0


def cmd_report(args) -> int:
    corpus = _load_corpus_args(args)
    out = _out_dir(args)

    eigen_settings = EigenSettings(
        alpha=args.alpha,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        exclude_self=not _self_policy(args, False),
    )
    if args.window_span is None:
        eigen_window = CitationWindow.all_years()
    else:
        eigen_window = CitationWindow.cited(args.census_year, args.window_span)
    matrix, articles = build_matrix(corpus, eigen_window, eigen_settings.exclude_self)
    eigen = eigen_scores(matrix, articles, eigen_settings)
    citations = total_citations(corpus, CitationWindow.all_years(), include_self=True)
    impact = impact_factor(corpus, args.census_year)

    vectors = [eigen, citations, impact]
    tables = []
    for vector in vectors:
        write_metric_file(vector, out / f"{vector.metric_name}.metric.json")
        table = rank(vector, tie_policy=args.tie_policy)
        write_rank_table(table, out / f"{vector.metric_name}.ranks.tsv", args.precision)
        tables.append(table)

    ks = _parse_ks(args.ks)
    comparisons: dict[str, dict] = {}
    scatter: dict[str, list] = {}
    used: set[str] = set()
    for x, y in itertools.combinations(vectors, 2):
        report = compare_metrics(x, y, ks=ks, coverage=args.coverage)
        name = _pair_name(x, y, used)
        comparisons[name] = comparison_json(report)
        scatter[name] = write_scatter(x, y, out / f"{name}.scatter.tsv")
        write_json(comparisons[name], out / f"{name}.report.json")
        print(
            f"{x.metric_name} vs {y.metric_name}: "
            f"pearson_log={report.pearson_log_rho:.4f} "
            f"spearman={report.spearman_rho:.4f} n={report.n}"
        )

    impact_omitted = sorted(set(corpus.journals) - set(impact.scores))
    bundle = {
        "metadata": {
            "tool": "citerank",
            "version": __version__,
            "settings": {
                "alpha": eigen_settings.alpha,
                "tolerance": eigen_settings.tolerance,
                "max_iterations": eigen_settings.max_iterations,
                "exclude_self": eigen_settings.exclude_self,
                "census_year": args.census_year,
                "tie_policy": args.tie_policy,
                "ks": list(ks),
                "coverage": args.coverage,
            },
            "windows": {
                "eigenfactor": eigen_window.describe(),
                "total_citations": "all-years",
                "impact_factor": f"census_year={args.census_year} span=2",
            },
            "omissions": {"impact_factor_zero_denominator": impact_omitted},
        },
        "tables": [rank_table_json(t) for t in tables],
        "comparisons": comparisons,
        "scatter": scatter,
    }
    write_json(bundle, out / "report.json")
    print(f"report bundle written to {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_years(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            first_s, last_s = text.split(":", 1)
            return int(first_s), int(last_s)
        year = int(text)
        return year, year
    except ValueError:
        raise CiteRankError(f"--years must look like 2002:2006, got {text!r}") from None


def _parse_ks(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise CiteRankError(f"--ks must be comma-separated integers, got {text!r}") from None


def _add_corpus_flags(sub) -> None:
    sub.add_argument("--journals", help="journals CSV (id,name,year,articles)")
    sub.add_argument("--citations", help="citations CSV (citing,cited,citing_year,cited_year,count)")


def _add_rank_flags(sub, census_required: bool = False) -> None:
    sub.add_argument("--window-span", type=int, default=None,
                     help="publication-year span of the citation window (default: all years)")
    sub.add_argument("--census-year", type=int, default=None, required=census_required,
                     help="year whose citations are counted")
    sub.add_argument("--alpha", type=float, default=0.85, help="damping factor (default 0.85)")
    sub.add_argument("--tol", type=float, default=1e-12, help="L1 residual tolerance (default 1e-12)")
    sub.add_argument("--max-iter", type=int, default=1000, help="iteration cap (default 1000)")
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--include-self", dest="include_self", action="store_const", const=True,
                     default=None, help="count self-citations")
    grp.add_argument("--exclude-self", dest="include_self", action="store_const", const=False,
                     help="drop self-citations")
    sub.add_argument("--top", type=int, default=20, help="rows to print (default 20)")
    sub.add_argument("--tie-policy", choices=("average", "min"), default="min")
    sub.add_argument("--precision", type=int, default=6,
                     help="significant digits in printed tables (default 6)")


def _add_compare_flags(sub) -> None:
    sub.add_argument("--coverage", type=float, default=0.95,
                     help="ellipse coverage probability (default 0.95)")
    sub.add_argument("--ks", default="1,5,10",
                     help="comma-separated k values for concentration shares")


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
    rank_cmd.add_argument("--out", required=True, help="output directory")
    rank_cmd.set_defaults(func=cmd_rank)

    compare_cmd = commands.add_parser("compare", help="paired statistics for 2-3 metric files")
    compare_cmd.add_argument("--metrics", required=True,
                             help="comma-separated metric JSON files (2 or 3)")
    _add_compare_flags(compare_cmd)
    compare_cmd.add_argument("--out", required=True, help="output directory")
    compare_cmd.set_defaults(func=cmd_compare)

    gen = commands.add_parser("gen", help="generate a seeded synthetic corpus")
    gen.add_argument("--journals", type=int, required=True, help="number of journals")
    gen.add_argument("--years", default="2002:2006", help="inclusive year range A:B")
    gen.add_argument("--skew", type=float, default=1.0, help="attractiveness tail exponent")
    gen.add_argument("--mean-out", type=float, default=20.0,
                     help="mean outgoing citation events per journal")
    gen.add_argument("--seed", type=int, default=0)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except CiteRankError as exc:
        print(f"citerank: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"citerank: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
