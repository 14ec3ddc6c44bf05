"""Command-line behaviors: files written, exit codes, determinism."""

import codecs
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from citerank.cli import load_metric_file, main, write_metric_file
from citerank.compare import concentration
from citerank.corpus import load_corpus
from citerank.metrics import MetricVector


def run_cli(*argv):
    return main([str(a) for a in argv])


def corpus_args(toy_paths):
    journals, citations = toy_paths
    return ["--journals", journals, "--citations", citations]


def dir_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# ingest


def test_ingest_writes_normalized_copy(tmp_path, toy_paths, toy_corpus, capsys):
    out = tmp_path / "ingested"
    assert run_cli("ingest", *corpus_args(toy_paths), "--out", out) == 0
    assert "ingested 5 journals" in capsys.readouterr().out
    summary = json.loads((out / "ingest.json").read_text())
    assert summary == {
        "journals": 5,
        "citation_records": 13,
        "total_citation_count": 188,
        "year_range": [2004, 2006],
    }
    assert load_corpus(out / "journals.csv", out / "citations.csv") == toy_corpus


def test_ingest_requires_corpus_flags(tmp_path, capsys):
    assert run_cli("ingest", "--out", tmp_path / "x") == 1
    assert "required" in capsys.readouterr().err


def test_ingest_accepts_utf8_bom(tmp_path, toy_paths, toy_corpus):
    bom = tmp_path / "bom"
    bom.mkdir()
    for path in toy_paths:
        (bom / path.name).write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_corpus(bom / "journals.csv", bom / "citations.csv") == toy_corpus
    assert run_cli("ingest", "--journals", bom / "journals.csv",
                   "--citations", bom / "citations.csv", "--out", tmp_path / "a") == 0
    assert run_cli("ingest", *corpus_args(toy_paths), "--out", tmp_path / "b") == 0
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_report_reads_bare_cr_line_endings(tmp_path, toy_paths):
    cr = tmp_path / "cr"
    cr.mkdir()
    for path in toy_paths:
        (cr / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    assert run_cli("report", "--census-year", "2006", "--journals", cr / "journals.csv",
                   "--citations", cr / "citations.csv", "--out", tmp_path / "a") == 0
    assert run_cli("report", "--census-year", "2006", *corpus_args(toy_paths),
                   "--out", tmp_path / "b") == 0
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


@pytest.mark.parametrize("command", [["ingest"], ["report", "--census-year", "2006"]])
def test_oversized_count_is_a_line_numbered_error(tmp_path, toy_paths, command, capsys):
    journals, citations = toy_paths
    bad = tmp_path / "citations.csv"
    bad.write_text(citations.read_text() + "alpha,beta,2006,2005,9223372036854775808\n")
    code = run_cli(*command, "--journals", journals, "--citations", bad, "--out", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("citerank: error: line 15: ")
    assert "Traceback" not in err


def test_ingest_reports_parse_error_with_line(tmp_path, capsys):
    bad = tmp_path / "journals.csv"
    bad.write_text("id,name,year,articles\na,Alpha,2006,-3\n")
    cit = tmp_path / "citations.csv"
    cit.write_text("citing,cited,citing_year,cited_year,count\n")
    assert run_cli("ingest", "--journals", bad, "--citations", cit, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("citerank: error: line 2:")


# ---------------------------------------------------------------------------
# rank


def test_rank_citations_orders_by_in_citations(tmp_path, toy_paths, capsys):
    out = tmp_path / "out"
    code = run_cli("rank", *corpus_args(toy_paths), "--method", "citations", "--out", out)
    assert code == 0
    vector = load_metric_file(out / "total_citations.metric.json")
    assert vector.scores == {
        "alpha": 122.0, "beta": 44.0, "gamma": 15.0, "delta": 4.0, "omega": 3.0,
    }
    lines = (out / "total_citations.ranks.tsv").read_text().splitlines()
    assert lines[0] == "rank\tjournal\tscore"
    assert lines[1] == "1\talpha\t122"
    assert [line.split("\t")[1] for line in lines[1:]] == [
        "alpha", "beta", "gamma", "delta", "omega",
    ]
    assert "alpha" in capsys.readouterr().out


def test_rank_impact_factor_omission_path(tmp_path, toy_paths, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "rank", *corpus_args(toy_paths), "--method", "impact-factor",
        "--census-year", "2006", "--out", out,
    )
    assert code == 0  # omissions are reported, not fatal
    assert "omitted (1 journals without a score): omega" in capsys.readouterr().out
    vector = load_metric_file(out / "impact_factor.metric.json")
    assert "omega" not in vector.scores


def test_rank_impact_factor_requires_census_year(tmp_path, toy_paths, capsys):
    code = run_cli(
        "rank", *corpus_args(toy_paths), "--method", "impact-factor", "--out", tmp_path / "o"
    )
    assert code == 1
    assert "--census-year" in capsys.readouterr().err


def test_rank_eigenfactor_scores_sum_to_100(tmp_path, toy_paths):
    out = tmp_path / "out"
    assert run_cli("rank", *corpus_args(toy_paths), "--method", "eigenfactor", "--out", out) == 0
    vector = load_metric_file(out / "eigenfactor.metric.json")
    assert sum(vector.scores.values()) == pytest.approx(100.0, abs=1e-9)
    assert "alpha=0.85" in vector.provenance


def test_rank_eigenfactor_convergence_failure_is_diagnosed(tmp_path, toy_paths, capsys):
    code = run_cli(
        "rank", *corpus_args(toy_paths), "--method", "eigenfactor",
        "--max-iter", "1", "--out", tmp_path / "o",
    )
    assert code == 1
    assert "no convergence" in capsys.readouterr().err


def test_rank_rerun_is_byte_identical(tmp_path, toy_paths):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            "rank", *corpus_args(toy_paths), "--method", "eigenfactor", "--out", out
        ) == 0
    assert dir_digest(out1) == dir_digest(out2)


def test_rank_unknown_method_is_usage_error(tmp_path, toy_paths, capsys):
    code = run_cli("rank", *corpus_args(toy_paths), "--method", "h-index", "--out", tmp_path / "o")
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare


def test_compare_self_comparison(tmp_path, data_dir, capsys):
    metric = data_dir / "top20_medicine2006_eigenfactor.json"
    out = tmp_path / "out"
    assert run_cli("compare", "--metrics", f"{metric},{metric}", "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "pearson_log=1.0000" in stdout and "spearman=1.0000" in stdout
    report = json.loads((out / "eigenfactor_vs_eigenfactor.report.json").read_text())
    assert report["spearman_rho"] == 1.0  # untied integer ranks keep this exact
    assert report["pearson_log_rho"] == pytest.approx(1.0, abs=1e-15)
    assert report["n"] == 20


def test_compare_three_files_makes_three_reports(tmp_path, data_dir):
    metrics = ",".join(
        str(data_dir / f"top20_medicine2006_{name}.json")
        for name in ("eigenfactor", "citations", "impact_factor")
    )
    out = tmp_path / "out"
    assert run_cli("compare", "--metrics", metrics, "--out", out) == 0
    reports = sorted(p.name for p in out.glob("*.report.json"))
    assert reports == [
        "eigenfactor_vs_impact_factor.report.json",
        "eigenfactor_vs_total_citations.report.json",
        "total_citations_vs_impact_factor.report.json",
    ]
    assert sorted(p.name for p in out.glob("*.scatter.tsv")) == [
        "eigenfactor_vs_impact_factor.scatter.tsv",
        "eigenfactor_vs_total_citations.scatter.tsv",
        "total_citations_vs_impact_factor.scatter.tsv",
    ]


def test_compare_bundled_report_values(tmp_path, data_dir):
    metrics = ",".join(
        str(data_dir / f"top20_medicine2006_{name}.json")
        for name in ("eigenfactor", "citations")
    )
    out = tmp_path / "out"
    assert run_cli("compare", "--metrics", metrics, "--out", out) == 0
    report = json.loads((out / "eigenfactor_vs_total_citations.report.json").read_text())
    assert report["spearman_rho"] == pytest.approx(0.9353383458646617, abs=1e-12)
    assert report["pearson_log_rho"] == pytest.approx(0.976090837237942, abs=1e-12)


def test_compare_scatter_round_trips_full_precision(tmp_path, data_dir):
    metrics = ",".join(
        str(data_dir / f"top20_medicine2006_{name}.json")
        for name in ("eigenfactor", "citations")
    )
    out = tmp_path / "out"
    assert run_cli("compare", "--metrics", metrics, "--out", out) == 0
    lines = (out / "eigenfactor_vs_total_citations.scatter.tsv").read_text().splitlines()
    assert lines[0] == "journal\tlog10_eigenfactor\tlog10_total_citations"
    eigen = load_metric_file(data_dir / "top20_medicine2006_eigenfactor.json")
    for line in lines[1:]:
        jid, lx, _ = line.split("\t")
        # same log10 route as the library; math.log10 can differ by 1 ulp
        assert float(lx) == float(np.log10(eigen.scores[jid]))


def test_compare_too_few_common_journals(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_metric_file(MetricVector("custom", {"x": 1.0, "y": 2.0, "z": 3.0}, ""), a)
    write_metric_file(MetricVector("custom", {"x": 1.0, "y": 2.0, "w": 3.0}, ""), b)
    assert run_cli("compare", "--metrics", f"{a},{b}", "--out", tmp_path / "o") == 1
    assert ">= 3 common journals" in capsys.readouterr().err


def test_compare_needs_two_or_three_files(tmp_path, data_dir, capsys):
    metric = data_dir / "top20_medicine2006_eigenfactor.json"
    assert run_cli("compare", "--metrics", str(metric), "--out", tmp_path / "o") == 1
    assert "2 or 3 files" in capsys.readouterr().err


def test_compare_rejects_malformed_metric_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scores": {"a": 1.0}}\n')
    good = tmp_path / "good.json"
    write_metric_file(MetricVector("custom", {"a": 1.0, "b": 2.0, "c": 3.0}, ""), good)
    assert run_cli("compare", "--metrics", f"{bad},{good}", "--out", tmp_path / "o") == 1
    assert "not a metric file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen


def test_gen_same_seed_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("gen", "--journals", 50, "--seed", 7, "--out", out) == 0
    assert dir_digest(out1) == dir_digest(out2)
    assert (out1 / "journals.csv").exists() and (out1 / "citations.csv").exists()


def test_gen_single_journal(tmp_path):
    out = tmp_path / "one"
    assert run_cli("gen", "--journals", 1, "--out", out) == 0
    corpus = load_corpus(out / "journals.csv", out / "citations.csv")
    assert corpus.n_journals == 1


def test_gen_rejects_bad_settings(tmp_path, capsys):
    assert run_cli("gen", "--journals", 0, "--out", tmp_path / "o") == 1
    assert "n_journals" in capsys.readouterr().err


def test_gen_rejects_bad_year_syntax(tmp_path, capsys):
    code = run_cli("gen", "--journals", 5, "--years", "last-year", "--out", tmp_path / "o")
    assert code == 1
    assert "--years" in capsys.readouterr().err


def test_gen_then_rank_concentrates_under_strong_skew(tmp_path):
    data = tmp_path / "data"
    assert run_cli(
        "gen", "--journals", 200, "--skew", 2.0, "--mean-out", 40.0,
        "--seed", 7, "--out", data,
    ) == 0
    out = tmp_path / "ranked"
    assert run_cli(
        "rank", "--journals", data / "journals.csv", "--citations", data / "citations.csv",
        "--method", "citations", "--out", out,
    ) == 0
    vector = load_metric_file(out / "total_citations.metric.json")
    (_, share), = concentration(vector, [20])
    assert share > 0.5


# ---------------------------------------------------------------------------
# report


def test_report_bundle_on_toy_corpus(tmp_path, toy_paths):
    out = tmp_path / "report"
    code = run_cli(
        "report", *corpus_args(toy_paths), "--census-year", "2006", "--out", out
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "eigenfactor.metric.json",
        "eigenfactor.ranks.tsv",
        "eigenfactor_vs_impact_factor.report.json",
        "eigenfactor_vs_impact_factor.scatter.tsv",
        "eigenfactor_vs_total_citations.report.json",
        "eigenfactor_vs_total_citations.scatter.tsv",
        "impact_factor.metric.json",
        "impact_factor.ranks.tsv",
        "report.json",
        "total_citations.metric.json",
        "total_citations.ranks.tsv",
        "total_citations_vs_impact_factor.report.json",
        "total_citations_vs_impact_factor.scatter.tsv",
    ]
    bundle = json.loads((out / "report.json").read_text())
    assert bundle["metadata"]["tool"] == "citerank"
    assert bundle["metadata"]["settings"]["census_year"] == 2006
    assert bundle["metadata"]["omissions"]["impact_factor_zero_denominator"] == ["omega"]
    assert {t["metric_name"] for t in bundle["tables"]} == {
        "eigenfactor", "total_citations", "impact_factor",
    }
    assert set(bundle["comparisons"]) == {
        "eigenfactor_vs_total_citations",
        "eigenfactor_vs_impact_factor",
        "total_citations_vs_impact_factor",
    }
    # every scatter journal appears in the corresponding rank tables
    tables = {t["metric_name"]: {row[0] for row in t["rows"]} for t in bundle["tables"]}
    for pair, rows in bundle["scatter"].items():
        x_name, y_name = pair.split("_vs_")
        for jid, _, _ in rows:
            assert jid in tables[x_name] and jid in tables[y_name]


def test_report_rerun_is_byte_identical(tmp_path, toy_paths):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli(
            "report", *corpus_args(toy_paths), "--census-year", "2006", "--out", out
        ) == 0
    assert dir_digest(out1) == dir_digest(out2)


def test_report_window_span_flag(tmp_path, toy_paths):
    out = tmp_path / "windowed"
    assert run_cli(
        "report", *corpus_args(toy_paths), "--census-year", "2006",
        "--window-span", "2", "--out", out,
    ) == 0
    bundle = json.loads((out / "report.json").read_text())
    assert bundle["metadata"]["windows"]["eigenfactor"] == "census_year=2006 span=2"


# ---------------------------------------------------------------------------
# odds and ends


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out.startswith("citerank ")


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "citerank.cli", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("citerank ")
