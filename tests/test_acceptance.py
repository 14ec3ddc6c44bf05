"""End-to-end acceptance checks, one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion inline.  Tolerances are stated next to each assertion; the
oracle implementations here are written from the definitions and share no
code with the library.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from citerank.cli import main
from citerank.compare import (
    concentration,
    density_ellipse,
    pearson_log,
    rank,
    spearman,
)
from citerank.corpus import write_corpus
from citerank.eigenrank import (
    EigenSettings,
    build_matrix,
    dense_oracle_scores,
    eigen_scores,
)
from citerank.metrics import MetricVector, impact_factor
from citerank.syngen import GenSettings, generate

from conftest import build_corpus, citation_dict, seeded_corpus


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL - {label}")
        raise
    print(f"\ncriterion {number}: PASS - {label}")


def l1(a: MetricVector, b: MetricVector) -> float:
    assert set(a.scores) == set(b.scores)
    return sum(abs(a.scores[j] - b.scores[j]) for j in a.scores)


# ---------------------------------------------------------------------------
# independent from-definition oracles (quadratic; no library code)


def oracle_average_ranks(values):
    ranks = []
    for v in values:
        greater = sum(1 for w in values if w > v)
        equal = sum(1 for w in values if w == v)
        ranks.append(greater + (equal + 1) / 2)
    return ranks


def oracle_pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return sxy / math.sqrt(sxx * syy)


def oracle_spearman(xs, ys):
    return oracle_pearson(oracle_average_ranks(xs), oracle_average_ranks(ys))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_sparse_route_matches_dense_oracle():
    """100 seeded corpora, n <= 10: L1(eigen, dense oracle) < 1e-8, < 5 s total."""
    with criterion(1, "eigen_scores matches dense_oracle_scores (L1 < 1e-8, 100 corpora, < 5 s)"):
        settings = EigenSettings()
        started = time.perf_counter()
        worst = 0.0
        for seed in range(100):
            matrix, articles = build_matrix(seeded_corpus(seed))
            assert matrix.order <= 10
            gap = l1(
                eigen_scores(matrix, articles, settings),
                dense_oracle_scores(matrix, articles, settings),
            )
            worst = max(worst, gap)
            assert gap < 1e-8
        elapsed = time.perf_counter() - started
        print(f"  worst L1 gap {worst:.3e}, elapsed {elapsed:.2f} s", end="")
        assert elapsed < 5.0


def test_criterion_2_normalization_and_symmetry():
    """Scores sum to 100 within 1e-9; fully symmetric networks come out uniform."""
    with criterion(2, "score normalization (sum 100 within 1e-9) and symmetric uniformity"):
        for seed in range(50):
            matrix, articles = build_matrix(seeded_corpus(seed))
            total = sum(eigen_scores(matrix, articles).scores.values())
            assert abs(total - 100.0) <= 1e-9
        for n in (2, 3, 4, 6, 10):
            ids = [f"J{i}" for i in range(n)]
            corpus = build_corpus(
                [(jid, {2006: 12}) for jid in ids],
                [(a, b, 2006, 2005, 2) for a in ids for b in ids if a != b],
            )
            matrix, articles = build_matrix(corpus)
            scores = eigen_scores(matrix, articles).scores
            assert abs(sum(scores.values()) - 100.0) <= 1e-9
            for value in scores.values():
                assert abs(value - 100.0 / n) <= 1e-9


def test_criterion_3_bundled_rank_reproduction(
    top20_eigen, top20_citations, top20_impact, published_ranks
):
    """rank() reproduces the published rank columns' orderings exactly, < 1 s."""
    with criterion(3, "bundled 2006 medicine rank orderings reproduced exactly (< 1 s)"):
        started = time.perf_counter()
        columns = {
            "eigenfactor": top20_eigen,
            "total_citations": top20_citations,
            "impact_factor": top20_impact,
        }
        for name, vector in columns.items():
            table = rank(vector, tie_policy="min")
            computed_order = [row.journal for row in table.rows]
            published_order = sorted(
                vector.scores, key=lambda jid: published_ranks[jid][name]
            )
            assert computed_order == published_order
        # named spot checks
        eigen_table = rank(top20_eigen, tie_policy="min")
        by_eigen = {row.journal: row.rank for row in eigen_table.rows}
        assert by_eigen["VACCINE"] == 10
        citation_order = [row.journal for row in rank(top20_citations, "min").rows]
        assert citation_order.index("VACCINE") > citation_order.index("AM J MED")
        impact_order = [row.journal for row in rank(top20_impact, "min").rows]
        assert top20_impact.scores["LARYNGOSCOPE"] == 1.736
        assert top20_impact.scores["STAT MED"] == 1.737
        assert impact_order.index("LARYNGOSCOPE") > impact_order.index("STAT MED")
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0


def test_criterion_4_correlation_oracles(top20_eigen, top20_citations, top20_impact):
    """Library rho vs from-definition oracles on the bundled columns, 1e-12."""
    with criterion(4, "spearman and pearson_log match from-definition oracles to 1e-12"):
        frozen = {
            ("eigenfactor", "total_citations"): (0.9353383458646617, 0.976090837237942),
            ("eigenfactor", "impact_factor"): (0.806015037593985, 0.9047404436966477),
            ("total_citations", "impact_factor"): (0.7684210526315789, 0.8457573873952041),
        }
        vectors = {
            "eigenfactor": top20_eigen,
            "total_citations": top20_citations,
            "impact_factor": top20_impact,
        }
        for (name_x, name_y), (frozen_spearman, frozen_pearson) in frozen.items():
            x, y = vectors[name_x], vectors[name_y]
            ids = sorted(set(x.scores) & set(y.scores))
            xs = [x.scores[j] for j in ids]
            ys = [y.scores[j] for j in ids]
            assert len(ids) == 20
            oracle_s = oracle_spearman(xs, ys)
            oracle_p = oracle_pearson(
                [math.log10(v) for v in xs], [math.log10(v) for v in ys]
            )
            assert abs(spearman(x, y) - oracle_s) <= 1e-12
            assert abs(pearson_log(x, y) - oracle_p) <= 1e-12
            # frozen values pin both routes against silent drift
            assert abs(oracle_s - frozen_spearman) <= 1e-14
            assert abs(oracle_p - frozen_pearson) <= 1e-14


def _strictly_increasing_transforms(rng):
    scale = float(rng.uniform(0.5, 8.0))
    shift = float(rng.uniform(-100.0, 100.0))
    transforms = [
        lambda v: v,
        lambda v: scale * v + shift,
        lambda v: v ** 3,
        lambda v: math.atan(v),
        lambda v: math.exp(v / 200.0),
    ]
    return transforms[int(rng.integers(len(transforms)))]


def _non_negative(values):
    low = min(values)
    return [v - low for v in values] if low < 0 else list(values)


def test_criterion_5_invariance_suite():
    """1000 exact spearman transform cases; pearson_log and rank rescale."""
    with criterion(5, "invariance suite (monotone transforms, positive rescaling)"):
        rng = np.random.default_rng(2025)
        pool = np.arange(-500, 500)
        for _ in range(1000):
            n = int(rng.integers(4, 16))
            xs = [float(v) for v in rng.choice(pool, size=n, replace=False)]
            ys = [float(v) for v in rng.choice(pool, size=n, replace=False)]
            ids = [f"J{i}" for i in range(n)]
            fx = _strictly_increasing_transforms(rng)
            fy = _strictly_increasing_transforms(rng)
            base = spearman(
                MetricVector("custom", dict(zip(ids, _non_negative(xs)))),
                MetricVector("custom", dict(zip(ids, _non_negative(ys)))),
            )
            mapped = spearman(
                MetricVector("custom", dict(zip(ids, _non_negative([fx(v) for v in xs])))),
                MetricVector("custom", dict(zip(ids, _non_negative([fy(v) for v in ys])))),
            )
            assert mapped == base  # exact: ranks are untouched

        for case in range(50):
            n = 25
            ids = [f"J{i}" for i in range(n)]
            x = MetricVector("custom", dict(zip(ids, rng.lognormal(0.0, 1.0, n))))
            y = MetricVector("custom", dict(zip(ids, rng.lognormal(0.5, 0.7, n))))
            base = pearson_log(x, y)
            factor = float(rng.lognormal(0.0, 2.0))
            scaled_x = MetricVector("custom", {j: factor * v for j, v in x.scores.items()})
            scaled_y = MetricVector("custom", {j: factor * v for j, v in y.scores.items()})
            assert abs(pearson_log(scaled_x, y) - base) <= 1e-12
            assert abs(pearson_log(x, scaled_y) - base) <= 1e-12

            table = rank(x, tie_policy="min")
            scaled_table = rank(scaled_x, tie_policy="min")
            assert [(r.journal, r.rank) for r in table.rows] == [
                (r.journal, r.rank) for r in scaled_table.rows
            ]


def test_criterion_6_concentration_consistency(top20_citations):
    """Top-5 concentration: 177505/558116 within 1e-3 of 0.318, and the
    share agrees with the 0.16/0.51 ratio within 0.01."""
    with criterion(6, "top-5 citation concentration consistent with published shares"):
        ordered = sorted(top20_citations.scores.items(), key=lambda kv: -kv[1])
        top5 = MetricVector("total_citations", dict(ordered[:5]), "top 5 by citations")
        assert sum(top5.scores.values()) == 558116.0
        assert top5.scores["NEW ENGL J MED"] == 177505.0
        ((_, share),) = concentration(top5, [1])
        assert abs(share - 177505.0 / 558116.0) == 0.0
        assert abs(share - 0.318) <= 1e-3
        assert abs(share - 0.16 / 0.51) <= 0.01


def test_criterion_7_impact_factor_contract():
    """Quotient examples and integer scale invariance exact; zero-denominator
    journals omitted and reported, over 50 randomized corpora."""
    with criterion(7, "impact factor quotients, scale invariance, omission reporting"):
        corpus = build_corpus(
            [("A", {2004: 2, 2005: 3}), ("B", {2005: 4})],
            [("B", "A", 2006, 2005, 6), ("B", "A", 2006, 2004, 4)],
        )
        assert impact_factor(corpus, 2006).scores["A"] == 2.0
        assert impact_factor(corpus, 2006).scores["B"] == 0.0

        rng = np.random.default_rng(99)
        for _ in range(50):
            seed = int(rng.integers(1 << 31))
            base = seeded_corpus(seed)
            gutted = {jid for jid in base.journals if rng.random() < 0.4}
            corpus = build_corpus(
                [
                    (
                        jid,
                        {2006: journal.articles_by_year[2006]}
                        if jid in gutted
                        else journal.articles_by_year,
                    )
                    for jid, journal in base.journals.items()
                ],
                [key + (count,) for key, count in citation_dict(base).items()],
            )
            vector = impact_factor(corpus, 2006)
            assert set(corpus.journals) - set(vector.scores) == gutted
            for jid in sorted(gutted):
                assert jid in vector.provenance

            factor = int(rng.integers(2, 10))
            scaled = build_corpus(
                [
                    (jid, {y: factor * n for y, n in j.articles_by_year.items()})
                    for jid, j in corpus.journals.items()
                ],
                [key + (factor * count,) for key, count in citation_dict(corpus).items()],
            )
            assert impact_factor(scaled, 2006).scores == vector.scores


def test_criterion_8_ellipse_closed_form_and_coverage():
    """Identity covariance gives radius sqrt(-2 ln 0.05) within 1e-6; Monte
    Carlo coverage of 100k lognormal points lands in [0.945, 0.955]."""
    with criterion(8, "ellipse closed form (1e-6) and Monte Carlo coverage window"):
        s = math.sqrt(1.5)
        coords = [(s, 0.0), (-s, 0.0), (0.0, s), (0.0, -s)]
        x = MetricVector(
            "custom", {f"P{i}": 10.0 ** cx for i, (cx, _) in enumerate(coords)}
        )
        y = MetricVector(
            "custom", {f"P{i}": 10.0 ** cy for i, (_, cy) in enumerate(coords)}
        )
        ellipse = density_ellipse(x, y, coverage=0.95)
        expected = math.sqrt(-2.0 * math.log(0.05))
        assert abs(ellipse.semi_axes[0] - expected) <= 1e-6
        assert abs(ellipse.semi_axes[1] - expected) <= 1e-6

        rng = np.random.default_rng(0)
        n = 100_000
        lx = rng.normal(2.0, 0.5, n)
        ly = rng.normal(1.0, 0.8, n) + 0.6 * (lx - 2.0)
        mx = MetricVector(
            "custom", {f"J{i}": float(v) for i, v in enumerate(10.0 ** lx)}
        )
        my = MetricVector(
            "custom", {f"J{i}": float(v) for i, v in enumerate(10.0 ** ly)}
        )
        fitted = density_ellipse(mx, my, coverage=0.95)
        cos = math.cos(fitted.orientation_radians)
        sin = math.sin(fitted.orientation_radians)
        dx, dy = lx - fitted.center[0], ly - fitted.center[1]
        u = (cos * dx + sin * dy) / fitted.semi_axes[0]
        v = (-sin * dx + cos * dy) / fitted.semi_axes[1]
        covered = float(((u * u + v * v) <= 1.0).mean())
        print(f"  Monte Carlo coverage {covered:.5f}", end="")
        assert 0.945 <= covered <= 0.955


def test_criterion_9_determinism_and_scale(tmp_path):
    """Bit-identical reruns, and the full pipeline over 10,000 journals and
    about a million citation records in under 10 seconds."""
    with criterion(9, "bit-identical outputs; 10k-journal / ~1M-record pipeline < 10 s"):
        corpus = generate(
            GenSettings(
                n_journals=10_000, years=(2002, 2006), skew_exponent=0.6,
                mean_out_citations=100.0, seed=42,
            )
        )
        n_records = corpus.n_records
        assert corpus.n_journals == 10_000
        assert 900_000 <= n_records <= 1_100_000
        journals_csv = tmp_path / "journals.csv"
        citations_csv = tmp_path / "citations.csv"
        write_corpus(corpus, journals_csv, citations_csv)

        def run_report(out_dir):
            argv = [
                "report",
                "--journals", str(journals_csv),
                "--citations", str(citations_csv),
                "--census-year", "2006",
                "--out", str(out_dir),
            ]
            started = time.perf_counter()
            assert main(argv) == 0
            return time.perf_counter() - started

        elapsed = run_report(tmp_path / "run1")
        run_report(tmp_path / "run2")
        first = {p.name: p.read_bytes() for p in sorted((tmp_path / "run1").iterdir())}
        second = {p.name: p.read_bytes() for p in sorted((tmp_path / "run2").iterdir())}
        assert first == second
        print(f"  {n_records} records, pipeline {elapsed:.2f} s", end="")
        assert elapsed < 10.0
