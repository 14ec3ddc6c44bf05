"""Seeded synthetic corpus generation and its skew behavior."""

import io
import re
import tracemalloc

import numpy as np
import pytest

from citerank.compare import concentration
from citerank.corpus import dump_citations, dump_journals
from citerank.metrics import total_citations
from citerank.syngen import GenSettings, generate

from conftest import citation_dict, journal_dict, load_script


def serialized(corpus):
    jbuf, cbuf = io.StringIO(), io.StringIO()
    dump_journals(corpus, jbuf)
    dump_citations(corpus, cbuf)
    return jbuf.getvalue() + cbuf.getvalue()


def top_decile_share(corpus):
    counts = total_citations(corpus)
    k = max(1, corpus.n_journals // 10)
    return concentration(counts, [k])[0][1]


# ---------------------------------------------------------------------------
# determinism and validity


def test_same_seed_is_byte_identical():
    settings = GenSettings(n_journals=40, years=(2003, 2006), seed=123)
    assert serialized(generate(settings)) == serialized(generate(settings))


def test_different_seeds_differ():
    a = GenSettings(n_journals=40, years=(2003, 2006), seed=1)
    b = GenSettings(n_journals=40, years=(2003, 2006), seed=2)
    assert serialized(generate(a)) != serialized(generate(b))


def test_single_journal_cites_only_itself():
    corpus = generate(GenSettings(n_journals=1, years=(2005, 2006), seed=4))
    assert corpus.n_journals == 1
    (jid,) = corpus.ids
    for citing, cited, _, _ in citation_dict(corpus):
        assert citing == jid and cited == jid


def test_generated_corpus_is_valid():
    corpus = generate(GenSettings(n_journals=60, years=(2002, 2006), seed=8))
    first, last = 2002, 2006
    for journal in journal_dict(corpus).values():
        assert sorted(journal.articles_by_year) == list(range(first, last + 1))
        assert all(n >= 1 for n in journal.articles_by_year.values())
    for (citing, cited, citing_year, cited_year), count in citation_dict(corpus).items():
        assert citing in corpus.ids and cited in corpus.ids
        assert first <= citing_year <= last
        assert first <= cited_year <= citing_year
        assert count >= 1


def test_single_year_range():
    corpus = generate(GenSettings(n_journals=5, years=(2006, 2006), seed=0))
    for (_, _, citing_year, cited_year) in citation_dict(corpus):
        assert citing_year == cited_year == 2006


def test_journal_count_scales():
    corpus = generate(GenSettings(n_journals=250, years=(2004, 2006), seed=9))
    assert corpus.n_journals == 250
    assert len(citation_dict(corpus)) > 0


# ---------------------------------------------------------------------------
# settings validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_journals": 0, "years": (2004, 2006)},
        {"n_journals": 5, "years": (2006, 2004)},
        {"n_journals": 5, "years": (2004, 2006), "skew_exponent": 0.0},
        {"n_journals": 5, "years": (2004, 2006), "skew_exponent": -1.0},
        {"n_journals": 5, "years": (2004, 2006), "mean_out_citations": 0.0},
        {"n_journals": 10**6 + 1, "years": (2006, 2006), "mean_out_citations": 1.0},
        {"n_journals": 2, "years": (0, 5 * 10**6), "mean_out_citations": 1.0},
        {"n_journals": 10**6, "years": (2006, 2006), "mean_out_citations": 10.5},
        {"n_journals": 5, "years": (2**31 - 1, 2**31)},
        {"n_journals": 5, "years": (-(2**31) - 1, -(2**31))},
    ],
)
def test_settings_validation(kwargs):
    with pytest.raises(ValueError):
        GenSettings(**kwargs)


def test_the_size_caps_admit_their_bounds():
    GenSettings(10**6, (2006, 2006), mean_out_citations=10.0)
    GenSettings(1, (1, 10**7), mean_out_citations=1e7)


@pytest.mark.parametrize("seed, fragment", [
    (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
])
def test_seed_must_be_an_integer_at_least_zero(seed, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        GenSettings(5, (2002, 2006), seed=seed)


@pytest.mark.parametrize("years", [(2**31 - 2, 2**31 - 1), (-(2**31), -(2**31) + 1)])
def test_int32_extreme_years_are_generated_as_they_are(years):
    """Years are drawn as int64 and cast to the Corpus's int32 columns, which
    hold the int32 extremes without wrapping."""
    assert generate(GenSettings(5, years, seed=3)).year_range() == years


def test_a_numpy_integer_seed_generates_as_the_int_does():
    numpy_seed = generate(GenSettings(5, (2002, 2006), seed=np.int64(3)))
    assert serialized(numpy_seed) == serialized(generate(GenSettings(5, (2002, 2006), seed=3)))


# ---------------------------------------------------------------------------
# skew behavior


def test_strong_skew_concentrates_citations():
    settings = GenSettings(
        n_journals=200, years=(2002, 2006), skew_exponent=2.0,
        mean_out_citations=40.0, seed=7,
    )
    assert top_decile_share(generate(settings)) > 0.5


def test_top_decile_share_monotone_in_skew():
    """Mean share over a fixed seed panel never drops as the tail thickens."""
    exponents = [0.25, 0.5, 1.0, 2.0, 4.0]
    seeds = range(20)
    means = []
    for exponent in exponents:
        shares = [
            top_decile_share(
                generate(
                    GenSettings(
                        n_journals=100, years=(2002, 2006), skew_exponent=exponent,
                        mean_out_citations=30.0, seed=seed,
                    )
                )
            )
            for seed in seeds
        ]
        means.append(sum(shares) / len(shares))
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert means[0] < 0.35 < 0.5 < means[-1]


@pytest.mark.parametrize("argv, fragment", [
    (["--n-journals", "0"], "argument --n-journals: n_journals must be >= 1, got 0"),
    (["--mean-out", "inf"], "argument --mean-out: mean_out_citations must be finite and > 0"),
    (["--exponents", "0.5,-1"], "argument --exponents: skew_exponent must be finite and > 0"),
    (["--exponents", "0.5,x"], "argument --exponents: invalid float value: 'x'"),
    (["--years", "2006:2002"], "argument --years: years must not end before they start"),
    (["--years", "2006:"], "argument --years: must look like 2002:2006"),
    (["--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
])
def test_skew_sweep_bad_values_are_usage_errors(argv, fragment, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("skew_sweep.py").main(argv)
    assert exit_info.value.code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    (["--n-journals", "1000001"], "argument --n-journals: n_journals must be <= 1000000"),
    (["--n-journals", "1", "--years", "0:1099511627776", "--seeds", "1", "--exponents", "1"],
     "argument --years: n_journals times the years must be <= 10000000"),
    (["--n-journals", "1000000"], "n_journals times mean_out_citations must be <= 10000000"),
])
def test_skew_sweep_size_caps_are_usage_errors_before_any_allocation(argv, fragment, capsys):
    sweep = load_script("skew_sweep.py")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_info:
            sweep.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert fragment in err
    assert peak < 2**20


def test_skew_sweep_takes_one_year(capsys):
    load_script("skew_sweep.py").main(
        ["--years", "2006", "--n-journals", "20", "--seeds", "1", "--exponents", "1"])
    assert "n=20, years 2006:2006, top decile = top 2" in capsys.readouterr().out
