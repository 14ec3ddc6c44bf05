"""Command-line behaviors: files written, exit codes, determinism."""

import codecs
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from citerank import cli, compare
from citerank.cli import _json_text, load_metric_file, main, write_metric_file
from citerank.compare import check_coverage, check_k, concentration, rank, rank_gaps
from citerank.corpus import CitationWindow, load_corpus
from citerank.eigenrank import EigenSettings, build_matrix
from citerank.errors import CiteRankError
from citerank.metrics import MetricVector
from citerank.syngen import GenSettings, generate
from conftest import SCRIPTS_DIR, same_corpus
from dense_oracle import dense_oracle_scores


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_text_matches_the_indented_encoder(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


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
    assert same_corpus(load_corpus(out / "journals.csv", out / "citations.csv"), toy_corpus)


def test_ingest_requires_corpus_flags(tmp_path, capsys):
    assert run_cli("ingest", "--out", tmp_path / "x") == 2
    assert "required: --journals, --citations" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_ingest_accepts_utf8_bom(tmp_path, toy_paths, toy_corpus):
    bom = tmp_path / "bom"
    bom.mkdir()
    for path in toy_paths:
        (bom / path.name).write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert same_corpus(load_corpus(bom / "journals.csv", bom / "citations.csv"), toy_corpus)
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
    assert code == 2
    assert "--method impact-factor needs --census-year" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()


# A census year and span past int32, whose window the int32 year columns are
# compared with: numpy raises on arithmetic between them, not on comparisons.
HUGE_WINDOW = ["--census-year", str(2**40), "--window-span", str(2**62)]


def test_a_window_past_int32_is_compared_with_the_years(tmp_path, toy_paths, toy_corpus,
                                                         capsys):
    """report, rank --method citations and rank --method eigenfactor end as
    they did when the year columns were int64."""
    out = tmp_path / "report"
    assert run_cli("report", *corpus_args(toy_paths), *HUGE_WINDOW, "--out", out) == 1
    assert (f"census year {2**40} outside the corpus year range 2004..2006"
            in capsys.readouterr().err)
    assert not out.exists()
    for method, name in (("citations", "total_citations"), ("eigenfactor", "eigenfactor")):
        assert run_cli("rank", *corpus_args(toy_paths), "--method", method, *HUGE_WINDOW,
                       "--out", tmp_path / method) == 0
        vector = load_metric_file(tmp_path / method / f"{name}.metric.json")
        if method == "citations":  # no citation is made in the census year
            assert vector.scores == dict.fromkeys(toy_corpus.ids, 0.0)
        else:  # every journal dangles, so each scores its share of every year's articles
            articles = toy_corpus.articles_in(CitationWindow())
            assert vector.values == pytest.approx(100 * articles / articles.sum(), rel=1e-12)


def test_a_journal_id_holding_a_tab_is_an_error_naming_its_line(tmp_path, capsys):
    """Its row of a ranks or scatter TSV would have four fields."""
    journals, citations = tmp_path / "journals.csv", tmp_path / "citations.csv"
    journals.write_text('id,name,year,articles\n"a\tx",A,2005,3\na,A,2005,2\nb,B,2005,4\n'
                        "c,C,2005,1\n")
    citations.write_text('citing,cited,citing_year,cited_year,count\n"a\tx",b,2006,2005,1\n'
                         "a,c,2006,2005,2\n")
    out = tmp_path / "o"
    assert run_cli("report", "--journals", journals, "--citations", citations,
                   "--census-year", "2006", "--out", out) == 1
    assert "line 2: journal id 'a\\tx' holds a TAB" in capsys.readouterr().err
    assert not out.exists()


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


def test_rank_window_span_needs_census_year(tmp_path, toy_paths, capsys):
    code = run_cli("rank", *corpus_args(toy_paths), "--method", "eigenfactor",
                   "--window-span", "2", "--out", tmp_path / "o")
    assert code == 2
    assert "--window-span needs --census-year" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


EIGEN_ONLY_FLAGS = [["--alpha", "0.5"], ["--tol", "1e-6"], ["--max-iter", "50"]]


@pytest.mark.parametrize("method, flag", [
    *(("impact-factor", flag) for flag in [
        ["--window-span", "2"], ["--include-self"], ["--exclude-self"], *EIGEN_ONLY_FLAGS,
    ]),
    *(("citations", flag) for flag in EIGEN_ONLY_FLAGS),
])
def test_rank_impact_factor_rejects_flags_it_would_ignore(
    tmp_path, toy_paths, method, flag, capsys
):
    out = tmp_path / "o"
    out.mkdir()
    code = run_cli("rank", *corpus_args(toy_paths), "--method", method,
                   "--census-year", "2006", *flag, "--out", out)
    assert code == 2
    assert f"{flag[0]}: options that do not apply to --method {method}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["rank", "--method", "eigenfactor", "--census-year", "99999999999999999999"],
    ["rank", "--method", "citations", "--census-year", str(-(2**62) - 1)],
    ["report", "--census-year", "2006", "--window-span", str(2**62 + 1)],
    ["report", "--census-year", "2006", "--window-span", "0"],
])
def test_census_year_and_window_span_out_of_range_are_usage_errors(
    tmp_path, toy_paths, command, capsys
):
    out = tmp_path / "o"
    out.mkdir()
    assert run_cli(command[0], *corpus_args(toy_paths), *command[1:], "--out", out) == 2
    assert "must be" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag, fragment", [
    (["--alpha", "2"], "--alpha: alpha must be in (0, 1)"),
    (["--alpha", "0"], "--alpha: alpha must be in (0, 1)"),
    (["--alpha", "nan"], "--alpha: alpha must be in (0, 1)"),
    (["--tol", "0"], "--tol: tolerance must be > 0"),
    (["--tol=-1e-9"], "--tol: tolerance must be > 0"),
    (["--max-iter", "0"], "--max-iter: max_iterations must be >= 1"),
])
@pytest.mark.parametrize("command", [["rank", "--method", "eigenfactor"],
                                     ["report", "--census-year", "2006"]])
def test_eigenfactor_settings_out_of_range_are_usage_errors(
    tmp_path, toy_paths, command, flag, fragment, capsys
):
    out = tmp_path / "o"
    assert run_cli(*command, *corpus_args(toy_paths), *flag, "--out", out) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_a_window_span_past_the_corpus_years_scores_as_a_short_one(tmp_path, toy_paths):
    scores = []
    for span in ("100", "1000000000000"):
        assert run_cli("rank", *corpus_args(toy_paths), "--method", "eigenfactor", "--census-year",
                       "2006", "--window-span", span, "--out", tmp_path / span) == 0
        scores.append(json.loads((tmp_path / span / "eigenfactor.metric.json").read_text())["scores"])
    assert scores[0] == scores[1]


@pytest.mark.parametrize("command, fragment", [
    (["report", "--census-year", "2006", "--precision", "-1"], "must be >= 1"),
    (["report", "--census-year", "2006", "--precision", "0"], "must be >= 1"),
    (["report", "--census-year", "2006", "--ks", "0"], "concentration k must be >= 1"),
    (["report", "--census-year", "2006", "--ks", "1,-5,10"], "concentration k must be >= 1"),
    (["rank", "--method", "citations", "--precision", "0"], "must be >= 1"),
    # report prints no table, so it takes no --top
    (["report", "--census-year", "2006", "--top", "5"], "unrecognized arguments: --top 5"),
])
def test_precision_and_ks_below_one_are_usage_errors(
    tmp_path, toy_paths, command, fragment, capsys
):
    out = tmp_path / "o"
    out.mkdir()
    assert run_cli(command[0], *corpus_args(toy_paths), *command[1:], "--out", out) == 2
    assert fragment in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_compare_ks_below_one_is_a_usage_error(tmp_path, data_dir, capsys):
    out = tmp_path / "o"
    out.mkdir()
    metric = data_dir / "top20_medicine2006_eigenfactor.json"
    assert run_cli("compare", "--metrics", f"{metric},{metric}", "--ks", "0", "--out", out) == 2
    assert "concentration k must be >= 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


def test_compare_numbers_repeated_pair_names(tmp_path, data_dir, capsys):
    metric = data_dir / "top20_medicine2006_eigenfactor.json"
    out = tmp_path / "out"
    assert run_cli("compare", "--metrics", f"{metric},{metric},{metric}", "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"eigenfactor{suffix}.stats.json" for suffix in ("", "_2", "_3")]
        + [f"eigenfactor_vs_eigenfactor{suffix}.{kind}"
           for suffix in ("", "_2", "_3") for kind in ("report.json", "scatter.tsv")]
    )


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
    write_metric_file(MetricVector.from_scores("custom", {"x": 1.0, "y": 2.0, "z": 3.0}, ""), a)
    write_metric_file(MetricVector.from_scores("custom", {"x": 1.0, "y": 2.0, "w": 3.0}, ""), b)
    assert run_cli("compare", "--metrics", f"{a},{b}", "--out", tmp_path / "o") == 1
    assert ">= 3 common journals" in capsys.readouterr().err


def test_compare_needs_two_or_three_files(tmp_path, data_dir, capsys):
    metric = data_dir / "top20_medicine2006_eigenfactor.json"
    assert run_cli("compare", "--metrics", str(metric), "--out", tmp_path / "o") == 2
    assert "--metrics: needs 2 or 3 files, got 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload, fragment", [
    ('{"scores": {"a": 1.0}}', "not a metric file"),
    ('{"metric_name": "custom", "scores": [1, 2]}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": "scores"}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": null}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": {"a": null}}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": {"a": "1.5"}}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": {"a": true}}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": {"a": [1]}}', "scores must map journal ids to numbers"),
    ('{"metric_name": "custom", "scores": {"a": 1e999}}', "must be finite"),
    ('{"metric_name": "custom", "scores": {"a": 1' + "0" * 400 + "}}", "too large"),
    ('{"metric_name": "h_index", "scores": {"a": 1}}', "metric_name must be one of"),
    ('{"metric_name": "custom", "scores": {"a\\tx": 1}}', "id 'a\\tx' holds a TAB"),
    ('{"metric_name": "custom", "scores": {"a\\nb": 1}}', "id 'a\\nb' holds a TAB, CR or LF"),
    ("[" * 100_000, "nested too deeply"),
])
def test_compare_rejects_malformed_metric_file(tmp_path, payload, fragment, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(payload + "\n")
    good = tmp_path / "good.json"
    write_metric_file(MetricVector.from_scores("custom", {"a": 1.0, "b": 2.0, "c": 3.0}, ""), good)
    assert run_cli("compare", "--metrics", f"{bad},{good}", "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"citerank: error: {bad}: ")
    assert fragment in err
    assert "Traceback" not in err


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
    assert run_cli("gen", "--journals", 0, "--out", tmp_path / "o") == 2
    assert "--journals: n_journals must be >= 1" in capsys.readouterr().err


def test_gen_rejects_bad_year_syntax(tmp_path, capsys):
    code = run_cli("gen", "--journals", 5, "--years", "last-year", "--out", tmp_path / "o")
    assert code == 2
    assert "--years" in capsys.readouterr().err


@pytest.mark.parametrize("flags, fragment", [
    (["--journals", "10", "--years", "2006:1000000000"],
     "--years: n_journals times the years must be <= 10000000"),
    (["--journals", "1000000", "--years", "2000:2010"], "must be <= 10000000"),
    (["--journals", "1000000", "--mean-out", "11"],
     "n_journals times mean_out_citations must be <= 10000000"),
    (["--journals", "10", "--mean-out", "1e15"],
     "--mean-out: n_journals times mean_out_citations must be <="),
    (["--journals", "1000001"], "--journals: n_journals must be <= 1000000"),
    (["--journals", "5", "--years", "2006:2002"], "--years: years must not end before they start"),
    (["--journals", "5", "--years", f"2006:{2**62 + 1}"], "--years: must look like 2002:2006"),
    # years are int32; a range that long breaks a size cap first
    (["--journals", "5", "--years", "0:2147483648"],
     "--years: n_journals times the years must be <= 10000000"),
    (["--journals", "5", "--years", "2147483647:2147483648"],
     "--years: years must be within the int32 range, got (2147483647, 2147483648)"),
    (["--journals", "5", "--years", "-2147483649"],
     "--years: years must be within the int32 range, got (-2147483649, -2147483649)"),
])
def test_gen_bounds_are_usage_errors_before_any_allocation(tmp_path, flags, fragment, capsys,
                                                          monkeypatch):
    monkeypatch.setattr("citerank.cli.generate", lambda settings: pytest.fail("generated"))
    tracemalloc.start()
    try:
        code = run_cli("gen", *flags, "--out", tmp_path / "o")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert fragment in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("journals, mean_out", [(10**6, 5.0), (1, 1e7)])
def test_gen_flags_take_any_legal_combination(tmp_path, journals, mean_out, monkeypatch):
    seen = []
    monkeypatch.setattr("citerank.cli.generate",
                        lambda settings: seen.append(settings) or generate(GenSettings(1, (0, 0))))
    assert run_cli("gen", "--journals", journals, "--mean-out", mean_out,
                   "--out", tmp_path / "o") == 0
    assert seen == [GenSettings(journals, (2002, 2006), mean_out_citations=mean_out)]


@pytest.mark.parametrize("command, code, fragment", [
    (["report", "--census-year", "2006", "--coverage", "2"], 2, "--coverage: coverage must be in (0, 1)"),
    (["report", "--census-year", "2006", "--coverage", "nan"], 2, "--coverage: coverage must be in (0, 1)"),
    (["compare", "--coverage", "0"], 2, "--coverage: coverage must be in (0, 1)"),
    (["gen", "--journals", "5", "--skew", "0"], 2, "--skew: skew_exponent must be finite and > 0"),
    (["gen", "--journals", "5", "--skew", "inf"], 2, "--skew: skew_exponent must be finite and > 0"),
    (["gen", "--journals", "5", "--skew", "nan"], 2, "--skew: skew_exponent must be finite and > 0"),
    (["gen", "--journals", "5", "--mean-out", "inf"], 2, "--mean-out: mean_out_citations must be finite and > 0"),
    (["gen", "--journals", "5", "--mean-out", "nan"], 2, "--mean-out: mean_out_citations must be finite and > 0"),
    (["gen", "--journals", "5", "--mean-out", "0"], 2, "--mean-out: mean_out_citations must be finite and > 0"),
    (["gen", "--journals", "5", "--skew", "1e6"], 1, "citerank: error: skew_exponent 1000000.0"),
    (["gen", "--journals", "5", "--seed", "-1"], 2, "--seed: seed must be >= 0, got -1"),
    (["rank", "--method", "citations", "--top", "-3"], 2, "--top: must be >= 0, got -3"),
])
def test_bad_flag_values_exit_with_their_code_and_write_nothing(
    tmp_path, toy_paths, data_dir, command, code, fragment, capsys
):
    inputs = {
        "report": corpus_args(toy_paths),
        "rank": corpus_args(toy_paths),
        "compare": ["--metrics", ",".join(
            str(data_dir / f"top20_medicine2006_{name}.json") for name in ("eigenfactor", "citations"))],
        "gen": [],
    }[command[0]]
    out = tmp_path / "o"
    assert run_cli(command[0], *inputs, *command[1:], "--out", out) == code
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def _year_range(text):
    return tuple(map(int, text.split(":")))


# Each settings rule: the flag that sets it, how its text parses, values the
# command line rejects for breaking the rule, and the rule's library home.
# The command line's own bounds (--precision, --top, years within 2**62)
# have no library home: it is their only caller.
SETTINGS_RULES = {
    "coverage": ("report", "--coverage", float, ["0", "1", "-0.5", "nan", "inf"], check_coverage),
    "ks": ("report", "--ks", int, ["0", "-5"], check_k),
    "tie_policy": ("report", "--tie-policy", str, ["max", "dense", ""],
                   lambda policy: rank(MetricVector.from_scores("custom", {"a": 1.0}), policy)),
    "alpha": ("report", "--alpha", float, ["0", "1", "-0.3", "nan", "inf"],
              lambda value: EigenSettings(alpha=value)),
    "tol": ("report", "--tol", float, ["0", "-1e-9", "nan", "-inf"],
            lambda value: EigenSettings(tolerance=value)),
    "max_iter": ("report", "--max-iter", int, ["0", "-1"],
                 lambda value: EigenSettings(max_iterations=value)),
    "window_span": ("report", "--window-span", int, ["0", "-3"],
                    lambda value: CitationWindow(2006, span=value)),
    "journals": ("gen", "--journals", int, ["0", "-1", "1000001"],
                 lambda value: GenSettings(value, (2002, 2006))),
    "years": ("gen", "--years", _year_range, ["2006:2002", "1:0"],
              lambda value: GenSettings(5, value)),
    "skew": ("gen", "--skew", float, ["0", "-1", "inf", "nan"],
             lambda value: GenSettings(5, (2002, 2006), skew_exponent=value)),
    "mean_out": ("gen", "--mean-out", float, ["0", "-1", "inf", "nan"],
                 lambda value: GenSettings(5, (2002, 2006), mean_out_citations=value)),
    "seed": ("gen", "--seed", int, ["-1", "-5"],
             lambda value: GenSettings(5, (2002, 2006), seed=value)),
}


@pytest.mark.parametrize("rule, text", [(rule, text) for rule, (*_, values, _) in
                                        SETTINGS_RULES.items() for text in values])
def test_the_library_rejects_every_setting_the_cli_rejects(tmp_path, toy_paths, rule, text,
                                                           capsys):
    command, flag, parse, _, home = SETTINGS_RULES[rule]
    inputs = ([*corpus_args(toy_paths), "--census-year", "2006"] if command == "report"
              else ["--journals", "5"])
    out = tmp_path / "o"
    assert run_cli(command, *inputs, f"{flag}={text}", "--out", out) == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises((ValueError, CiteRankError)):
        home(parse(text))


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
        "eigenfactor.stats.json",
        "eigenfactor_vs_impact_factor.report.json",
        "eigenfactor_vs_impact_factor.scatter.tsv",
        "eigenfactor_vs_total_citations.report.json",
        "eigenfactor_vs_total_citations.scatter.tsv",
        "impact_factor.metric.json",
        "impact_factor.ranks.tsv",
        "impact_factor.stats.json",
        "report.json",
        "total_citations.metric.json",
        "total_citations.ranks.tsv",
        "total_citations.stats.json",
        "total_citations_vs_impact_factor.report.json",
        "total_citations_vs_impact_factor.scatter.tsv",
    ]
    bundle = json.loads((out / "report.json").read_text())
    assert bundle["metadata"]["tool"] == "citerank"
    assert bundle["metadata"]["settings"]["census_year"] == 2006
    assert bundle["metadata"]["omissions"]["impact_factor_zero_denominator"] == ["omega"]
    assert set(bundle) == {"metadata", "metrics", "comparisons"}
    assert bundle["metrics"] == {
        name: {"files": [f"{name}.metric.json", f"{name}.ranks.tsv", f"{name}.stats.json"]}
        for name in ("eigenfactor", "total_citations", "impact_factor")
    }
    assert set(bundle["comparisons"]) == {
        "eigenfactor_vs_total_citations",
        "eigenfactor_vs_impact_factor",
        "total_citations_vs_impact_factor",
    }
    # the index lists every other file written, and nothing else
    listed = [name for group in ("metrics", "comparisons")
              for entry in bundle[group].values() for name in entry["files"]]
    assert sorted(listed + ["report.json"]) == names
    # the index repeats each pair's headline numbers from its report file
    for name, entry in bundle["comparisons"].items():
        assert entry["files"] == [f"{name}.report.json", f"{name}.scatter.tsv"]
        pair = json.loads((out / f"{name}.report.json").read_text())
        assert {key: entry[key] for key in ("pearson_log_rho", "spearman_rho", "n")} == {
            key: pair[key] for key in ("pearson_log_rho", "spearman_rho", "n")
        }


@pytest.mark.parametrize("ks", [None, "2,1,40"])
def test_report_writes_each_metrics_stats_once(tmp_path, toy_paths, ks):
    out = tmp_path / "report"
    flags = [] if ks is None else ["--ks", ks]
    assert run_cli("report", *corpus_args(toy_paths), "--census-year", "2006", *flags,
                   "--out", out) == 0
    for name in ("eigenfactor", "total_citations", "impact_factor"):
        vector = load_metric_file(out / f"{name}.metric.json")
        stats = json.loads((out / f"{name}.stats.json").read_text())
        assert stats == {
            "metric_name": name,
            "concentration": [list(share) for share in
                              concentration(vector, [int(k) for k in (ks or "1,5,10").split(",")])],
            "rank_gaps": rank_gaps(vector),
        }
    for path in out.glob("*.report.json"):
        assert not {"concentration", "rank_gaps"} & set(json.loads(path.read_text()))


def test_compare_writes_each_inputs_stats(tmp_path, data_dir):
    paths = [data_dir / f"top20_medicine2006_{name}.json"
             for name in ("eigenfactor", "citations", "impact_factor")]
    out = tmp_path / "out"
    assert run_cli("compare", "--metrics", ",".join(map(str, paths)), "--ks", "3",
                   "--out", out) == 0
    for path in paths:
        vector = load_metric_file(path)
        stats = json.loads((out / f"{vector.metric_name}.stats.json").read_text())
        assert stats == {"metric_name": vector.metric_name,
                         "concentration": [list(share) for share in concentration(vector, [3])],
                         "rank_gaps": rank_gaps(vector)}


def test_report_pairs_each_metric_pair_once(tmp_path, toy_paths, monkeypatch):
    calls = []
    paired = compare._paired

    def counted(x, y):
        calls.append((x.metric_name, y.metric_name))
        return paired(x, y)

    monkeypatch.setattr(compare, "_paired", counted)
    assert run_cli("report", *corpus_args(toy_paths), "--census-year", "2006",
                   "--out", tmp_path / "r") == 0
    assert calls == [
        ("eigenfactor", "total_citations"),
        ("eigenfactor", "impact_factor"),
        ("total_citations", "impact_factor"),
    ]


def test_report_resolves_each_metrics_settings_once(tmp_path, toy_paths, monkeypatch):
    methods = []
    resolve = cli.resolve
    monkeypatch.setattr(cli, "resolve", lambda method, args: methods.append(method)
                        or resolve(method, args))
    assert run_cli("report", *corpus_args(toy_paths), "--census-year", "2006",
                   "--out", tmp_path / "r") == 0
    assert methods == list(cli.METHODS)


def test_report_that_fails_leaves_no_out(tmp_path, capsys):
    journals, citations = tmp_path / "journals.csv", tmp_path / "citations.csv"
    journals.write_text("id,name,year,articles\na,A,2005,10\nb,B,2005,10\n")
    citations.write_text("citing,cited,citing_year,cited_year,count\na,b,2006,2005,3\n")
    out = tmp_path / "o"
    assert run_cli("report", "--journals", journals, "--citations", citations,
                   "--census-year", "2006", "--out", out) == 1
    assert ">= 3 common journals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("journals, citations, flags", [
    # No journal published in 2004..2005, so no impact factor has a denominator.
    ("a,A,2003,5\nb,B,2003,0\n", "a,b,2006,2003,1\n",
     ["--method", "impact-factor", "--census-year", "2006"]),
    ("", "", ["--method", "citations"]),
])
def test_rank_of_an_empty_metric_vector_leaves_no_out(tmp_path, journals, citations, flags,
                                                      capsys):
    paths = tmp_path / "journals.csv", tmp_path / "citations.csv"
    paths[0].write_text("id,name,year,articles\n" + journals)
    paths[1].write_text("citing,cited,citing_year,cited_year,count\n" + citations)
    out = tmp_path / "o"
    assert run_cli("rank", *corpus_args(paths), *flags, "--out", out) == 1
    assert capsys.readouterr().err == "citerank: error: cannot rank an empty metric vector\n"
    assert not out.exists()


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
    assert bundle["metadata"]["windows"]["total_citations"] == "census_year=2006 span=2"


@pytest.mark.parametrize("flags", [[], ["--window-span", "2"], ["--include-self"],
                                   ["--exclude-self"]])
def test_rank_and_report_write_the_same_metric_files(tmp_path, toy_paths, flags, capsys):
    common = [*corpus_args(toy_paths), "--census-year", "2006", *flags]
    assert run_cli("report", *common, "--out", tmp_path / "report") == 0
    for method, name in (("eigenfactor", "eigenfactor"), ("citations", "total_citations")):
        out = tmp_path / method
        assert run_cli("rank", *common, "--method", method, "--out", out) == 0
        path = f"{name}.metric.json"
        assert (out / path).read_bytes() == (tmp_path / "report" / path).read_bytes()


def test_report_default_eigenfactor_matches_the_dense_oracle(tmp_path, toy_paths, toy_corpus):
    out = tmp_path / "report"
    assert run_cli("report", *corpus_args(toy_paths), "--census-year", "2006", "--out", out) == 0
    scores = load_metric_file(out / "eigenfactor.metric.json").scores
    matrix, articles = build_matrix(toy_corpus, CitationWindow(2006, 5, include_self=False))
    oracle = dense_oracle_scores(matrix, articles).scores
    assert set(scores) == set(oracle)
    assert sum(abs(scores[j] - oracle[j]) for j in scores) < 1e-8


# ---------------------------------------------------------------------------
# any input: the documented output, or exit 1 with a message, or a usage error


def mutated(data: bytes, edits) -> bytes:
    """`data` with each edit applied: a line deleted, doubled or given a new
    field, a few bytes inserted, or the rest cut off."""
    for kind, at, value in edits:
        lines = data.split(b"\n")
        i = at % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "double":
            lines.insert(i, lines[i])
        elif kind == "field":
            fields = lines[i].split(b",")
            fields[at % len(fields)] = value
            lines[i] = b",".join(fields)
        data = b"\n".join(lines)
        if kind == "insert":
            data = data[:at % (len(data) + 1)] + value + data[at % (len(data) + 1):]
        elif kind == "cut":
            data = data[:at % (len(data) + 1)]
    return data


FIELDS = [b"", b"-1", b"0", b"7", b"2004", b"2006", b"2007", b"99999999999999999999",
          b"9007199254740993", b"x", b"alpha", b"zeta", b'"a,b"', b'"', b" 5 ", b"1e3",
          "\u00e9".encode(), b"\xff"]
EDITS = st.lists(st.tuples(st.sampled_from(["delete", "double", "field", "insert", "cut"]),
                           st.integers(0, 400),
                           st.sampled_from(FIELDS + [b",", b"\r", b"\n", b"\0", b'""'])),
                 max_size=3)
METRIC_FILES = st.one_of(
    st.sampled_from(["eigenfactor", "citations", "impact_factor"]),  # a bundled file
    st.builds(lambda name, scores: json.dumps({"metric_name": name, "scores": scores}).encode(),
              st.sampled_from(["eigenfactor", "custom", "total_citations", "h_index"]),
              st.dictionaries(st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"]),
                              st.one_of(st.floats(), st.integers(-2, 2**60), st.none(),
                                        st.text(max_size=2)), max_size=5)),
    st.binary(max_size=40),
)
# Values for each flag that it accepts, and values that it may reject; None
# stands for a flag without a value.
FLAG_VALUES = {
    "--census-year": (["2006", "2005", "2004", "1990", str(2**62)], ["x", str(2**62 + 1)]),
    "--window-span": (["1", "2", "5", "10000000000000"], ["0", "x"]),
    "--alpha": (["0.5", "0.85"], ["0", "1", "nan"]),
    "--tol": (["1e-12", "1e-3", "inf"], ["0", "-1"]),
    "--max-iter": (["3", "1000", "1"], ["0"]),
    "--include-self": ([None], []),
    "--exclude-self": ([None], []),
    "--tie-policy": (["min", "average"], ["max"]),
    "--precision": (["1", "6"], ["0", "x"]),
    "--top": (["0", "2"], ["-3"]),
    "--ks": (["1,5,10", "2", "1,,3", "100"], ["0", "x"]),
    "--coverage": (["0.95", "0.5"], ["0", "1", "nan"]),
    "--method": (["eigenfactor", "citations", "impact-factor"], ["h-index"]),
    "--journals": (["1", "2", "30"], ["0", "x"]),
    "--years": (["2004:2006", "2006"], ["2006:2004", "x"]),
    "--skew": (["0.5", "1", "400", "1e6"], ["0", "inf", "nan"]),
    "--mean-out": (["1", "20", "300"], ["0", "inf"]),
    "--seed": (["0", "3"], ["x", "-1"]),
}
RANK_FLAGS = ["--census-year", "--window-span", "--alpha", "--tol", "--max-iter", "--include-self",
              "--exclude-self", "--tie-policy", "--precision"]
COMMAND_FLAGS = {
    "ingest": [],
    "rank": RANK_FLAGS + ["--method", "--top"],
    "compare": ["--ks", "--coverage"],
    "gen": ["--journals", "--years", "--skew", "--mean-out", "--seed"],
    "report": RANK_FLAGS + ["--ks", "--coverage"],
}


@given(command=st.sampled_from(sorted(COMMAND_FLAGS)), journal_edits=EDITS,
       citation_edits=EDITS, metrics=st.lists(METRIC_FILES, min_size=1, max_size=2),
       base_flags=st.integers(0, 9).map(lambda i: i != 5), data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_run_ends_in_output_or_a_message(
    toy_paths, data_dir, command, journal_edits, citation_edits, metrics, base_flags, data
):
    """Mutated corpus files, metric files and flag values: every run exits 0,
    1 with a message, or 2 from argparse, and a failed run writes no --out."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = [tmp / "journals.csv", tmp / "citations.csv"]
        for path, source, edits in zip(corpus, toy_paths, (journal_edits, citation_edits)):
            path.write_bytes(mutated(source.read_bytes(), edits))
        paths = [data_dir / "top20_medicine2006_eigenfactor.json"]
        for i, metric in enumerate(metrics):
            if isinstance(metric, str):
                paths.append(data_dir / f"top20_medicine2006_{metric}.json")
            else:
                paths.append(tmp / f"m{i}.json")
                paths[-1].write_bytes(metric)
        argv = [command]
        if base_flags:  # the flags the command needs; a drawn flag may repeat one
            argv += {"ingest": corpus_args(corpus),
                     "rank": [*corpus_args(corpus), "--method", "eigenfactor"],
                     "compare": ["--metrics", ",".join(map(str, paths))],
                     "gen": ["--journals", "12"],
                     "report": [*corpus_args(corpus), "--census-year", "2006"]}[command]
        # Mostly the command's own flags with values they accept.
        own = COMMAND_FLAGS[command]
        flags = data.draw(st.lists(st.sampled_from(own), max_size=4) if own else st.just([]))
        if data.draw(st.integers(0, 9)) == 5:
            flags.append(data.draw(st.sampled_from(sorted(FLAG_VALUES))))
        for flag in flags:
            good, bad = FLAG_VALUES[flag]
            rejected = bad and data.draw(st.integers(0, 4)) == 2
            value = data.draw(st.sampled_from(bad if rejected else good))
            argv += [flag] if value is None else [flag, value]
        out = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(*argv, "--out", out)
        err = stderr.getvalue()
        event(f"{command} exit {code}")
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("citerank: error: "), (argv, err)
        if code != 0:
            assert not out.exists(), (argv, err)


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


@pytest.mark.parametrize("script, argv, message", [
    ("skew_sweep.py", ["--n-journals", "2", "--seeds", "1", "--exponents", "1"],
     "spearman needs >= 3 common journals, got 2"),
    ("skew_sweep.py", ["--n-journals", "3", "--mean-out", "0.01", "--seeds", "1",
                       "--exponents", "1"], "zero variance in ranks"),
    ("medicine2006_top20.py", ["--data-dir", str(SCRIPTS_DIR / "missing")],
     "No such file or directory"),
])
def test_a_script_that_fails_on_its_input_prints_one_error_line(script, argv, message):
    result = subprocess.run([sys.executable, str(SCRIPTS_DIR / script), *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"{script}: error: ") and message in line


def test_no_command_imports_scipy(tmp_path):
    """scipy is a test dependency only: importing the package and running
    `gen` and `report` load no scipy module."""
    script = (
        "import sys\n"
        "import citerank, citerank.cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert citerank.cli.main(['gen', '--journals', '40', '--out', out]) == 0\n"
        "assert citerank.cli.main(['report', '--journals', out + '/journals.csv',"
        " '--citations', out + '/citations.csv', '--census-year', '2006',"
        " '--out', out + '/report']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
