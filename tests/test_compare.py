"""Rank tables, correlations, concentration, gaps, and density ellipses.

The correlation tests lean on constructions whose float arithmetic is
provably exact (powers of ten under log10, slope-two log relations, well
separated integer values), so `==` assertions are safe where the
contract says exact.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.stats import rankdata

from citerank.compare import (
    TIE_POLICIES,
    EllipseParams,
    _descending_ranks,
    check_coverage,
    compare_metrics,
    concentration,
    rank,
    rank_gaps,
    spearman,
    vector_stats,
)
from citerank.errors import ComparisonError
from citerank.metrics import MetricVector

from conftest import RankRow, rank_rows


def vec(scores, name="custom"):
    return MetricVector.from_scores(name, dict(scores), "test stub")


def pearson_log(x, y):
    return compare_metrics(x, y).pearson_log_rho


# ---------------------------------------------------------------------------
# from-definition oracles (quadratic, no shared code with the library)


def oracle_average_ranks(values):
    ranks = []
    for v in values:
        greater = sum(1 for w in values if w > v)
        equal = sum(1 for w in values if w == v)
        ranks.append(greater + (equal + 1) / 2)
    return ranks


def oracle_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return sxy / math.sqrt(sxx * syy)


def oracle_spearman(xs, ys):
    return oracle_pearson(oracle_average_ranks(xs), oracle_average_ranks(ys))


def oracle_spearman_shortcut(xs, ys):
    """6*sum(d^2) formula; valid only when both inputs are tie-free."""
    rx = oracle_average_ranks(xs)
    ry = oracle_average_ranks(ys)
    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def test_pairing_tells_an_id_from_the_same_id_with_a_trailing_nul():
    x = vec({"a": 1.0, "a\u0000": 2.0, "b": 3.0, "c": 4.0})
    y = vec({"a": 10.0, "a\u0000": 1000.0, "b": 100.0, "d": 5.0})
    report = compare_metrics(x, y)
    assert report.n == 3
    assert report.omitted == ("c", "d")
    ids, lx, ly = report.scatter
    assert ids == ["a", "a\u0000", "b"]
    assert lx.tolist() == np.log10([1.0, 2.0, 3.0]).tolist()
    assert ly.tolist() == [1.0, 3.0, 2.0]


# ---------------------------------------------------------------------------
# rank


def test_rank_direct_ordering():
    table = rank(vec({"A": 3.0, "B": 1.0, "C": 2.0}))
    assert rank_rows(table) == (
        RankRow("A", 3.0, 1),
        RankRow("C", 2.0, 2),
        RankRow("B", 1.0, 3),
    )


def test_rank_average_tie_policy():
    table = rank(vec({"A": 5.0, "B": 5.0, "C": 1.0}), tie_policy="average")
    assert [(r.journal, r.rank) for r in rank_rows(table)] == [("A", 1.5), ("B", 1.5), ("C", 3.0)]


def test_rank_min_tie_policy():
    table = rank(vec({"A": 5.0, "B": 5.0, "C": 1.0}), tie_policy="min")
    assert [(r.journal, r.rank) for r in rank_rows(table)] == [("A", 1), ("B", 1), ("C", 3)]
    assert all(isinstance(r.rank, int) for r in rank_rows(table))


def test_rank_breaks_display_ties_by_id():
    table = rank(vec({"zz": 2.0, "aa": 2.0, "mm": 2.0}))
    assert [r.journal for r in rank_rows(table)] == ["aa", "mm", "zz"]


def test_rank_rejects_empty_and_bad_policy():
    with pytest.raises(ComparisonError):
        rank(vec({}))
    with pytest.raises(ComparisonError):
        rank(vec({"A": 1.0}), tie_policy="dense")


def test_rank_rescale_invariance_exact():
    scores = {"A": 3.5, "B": 1.25, "C": 2.75, "D": 2.75}
    for factor in (0.25, 2.0, 8.0):  # powers of two scale exactly
        base = rank(vec(scores), tie_policy="average")
        scaled = rank(vec({j: factor * v for j, v in scores.items()}), tie_policy="average")
        assert [(r.journal, r.rank) for r in rank_rows(base)] == [
            (r.journal, r.rank) for r in rank_rows(scaled)
        ]


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=12, unique=True))
def test_rank_min_policy_is_permutation_without_ties(values):
    scores = {f"J{i}": float(v) for i, v in enumerate(values)}
    table = rank(vec(scores), tie_policy="min")
    assert sorted(r.rank for r in rank_rows(table)) == list(range(1, len(values) + 1))


def test_rank_bundled_eigen_column_matches_published_order(top20_eigen, published_ranks):
    table = rank(top20_eigen, tie_policy="min")
    assert [r.rank for r in rank_rows(table)] == list(range(1, 21))
    for row in rank_rows(table):
        assert published_ranks[row.journal]["eigenfactor"] == row.rank


# ---------------------------------------------------------------------------
# spearman


def test_spearman_identical_orderings():
    x = vec({"a": 1.0, "b": 5.0, "c": 3.0, "d": 4.0})
    y = vec({"a": 10.0, "b": 50.0, "c": 30.0, "d": 40.0})
    assert spearman(x, y) == 1.0


def test_spearman_reversed_orderings():
    x = vec({"a": 1.0, "b": 2.0, "c": 3.0})
    y = vec({"a": 3.0, "b": 2.0, "c": 1.0})
    assert spearman(x, y) == -1.0


def test_spearman_uses_intersection_only():
    x = vec({"a": 1.0, "b": 2.0, "c": 3.0, "only_x": 9.0})
    y = vec({"a": 2.0, "b": 4.0, "c": 6.0, "only_y": 1.0})
    assert spearman(x, y) == 1.0


def test_spearman_requires_three_common_journals():
    with pytest.raises(ComparisonError, match=">= 3 common"):
        spearman(vec({"a": 1.0, "b": 2.0}), vec({"a": 1.0, "b": 2.0}))


def test_spearman_rejects_constant_input():
    x = vec({"a": 2.0, "b": 2.0, "c": 2.0})
    y = vec({"a": 1.0, "b": 2.0, "c": 3.0})
    with pytest.raises(ComparisonError, match="zero variance"):
        spearman(x, y)


@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 7.0]), max_size=30),
       st.sampled_from(TIE_POLICIES))
def test_descending_ranks_match_scipy_rankdata(values, tie_policy):
    values = np.array(values, dtype=float)
    ranks = _descending_ranks(values)
    expected = rankdata(-values, method="average")
    assert ranks.tolist() == expected.tolist()
    assert ranks.dtype.kind == expected.dtype.kind
    if len(values):
        # ids in index order, so the table's ties fall in index order too
        table = rank(vec({f"j{i:02d}": v for i, v in enumerate(values)}), tie_policy)
        expected = rankdata(-values, method=tie_policy)[np.argsort(-values, kind="stable")]
        assert table.ranks.tolist() == expected.tolist()
        assert table.ranks.dtype.kind == expected.dtype.kind


def test_average_ranks_with_ties():
    table = rank(vec({"a": 7.0, "b": 1.0, "c": 7.0, "d": 3.0}), tie_policy="average")
    ranks = {row.journal: row.rank for row in rank_rows(table)}
    assert [ranks[jid] for jid in "abcd"] == [1.5, 4.0, 1.5, 3.0]


score_pool = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 7.5, 10.0])


@given(
    st.integers(3, 8).flatmap(
        lambda n: st.tuples(
            st.lists(score_pool, min_size=n, max_size=n),
            st.lists(score_pool, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_spearman_matches_definition_oracle(pair):
    """Library vs quadratic from-definition oracle, ties included, to 1e-12."""
    xs, ys = pair
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    ids = [f"J{i}" for i in range(len(xs))]
    x = vec(dict(zip(ids, xs)))
    y = vec(dict(zip(ids, ys)))
    assert spearman(x, y) == pytest.approx(oracle_spearman(xs, ys), abs=1e-12)
    if len(set(xs)) == len(xs) and len(set(ys)) == len(ys):
        assert spearman(x, y) == pytest.approx(oracle_spearman_shortcut(xs, ys), abs=1e-12)


MONOTONE_TRANSFORMS = [
    lambda v: v,
    lambda v: 2.0 * v + 5.0,
    lambda v: 0.5 * v - 3.0,
    lambda v: v ** 3,
    lambda v: math.atan(v),
    lambda v: math.exp(v / 50.0),
]


def shifted(scores):
    """MetricVector requires non-negative scores; shifting leaves ranks alone."""
    low = min(scores.values())
    offset = -low if low < 0 else 0.0
    return vec({j: v + offset for j, v in scores.items()})


@given(
    st.lists(st.integers(-100, 100), min_size=4, max_size=12, unique=True),
    st.lists(st.integers(-100, 100), min_size=12, max_size=12, unique=True),
    st.integers(0, len(MONOTONE_TRANSFORMS) - 1),
    st.integers(0, len(MONOTONE_TRANSFORMS) - 1),
)
@settings(max_examples=200, deadline=None)
def test_spearman_invariant_under_increasing_transforms(xs, ys, ti, tj):
    """Strictly increasing transforms leave ranks, hence rho, bit-identical."""
    n = len(xs)
    ids = [f"J{i}" for i in range(n)]
    ys = ys[:n]
    fx, fy = MONOTONE_TRANSFORMS[ti], MONOTONE_TRANSFORMS[tj]
    x = dict(zip(ids, map(float, xs)))
    y = dict(zip(ids, map(float, ys)))
    baseline = spearman(shifted(x), shifted(y))
    transformed = spearman(
        shifted({j: fx(v) for j, v in x.items()}),
        shifted({j: fy(v) for j, v in y.items()}),
    )
    assert transformed == baseline


def test_spearman_symmetry_exact():
    x = vec({"a": 1.0, "b": 7.0, "c": 3.0, "d": 3.0, "e": 9.5})
    y = vec({"a": 4.0, "b": 2.0, "c": 8.0, "d": 1.0, "e": 6.25})
    assert spearman(x, y) == spearman(y, x)


# ---------------------------------------------------------------------------
# log-Pearson correlation


def test_pearson_log_power_law_is_exactly_one():
    x = vec({"a": 10.0, "b": 100.0, "c": 1000.0})
    y = vec({"a": 1e3, "b": 1e5, "c": 1e7})  # y = 10 * x^2 on the dot
    assert pearson_log(x, y) == 1.0


def test_pearson_log_inverse_power_law_is_exactly_minus_one():
    x = vec({"a": 10.0, "b": 100.0, "c": 1000.0})
    y = vec({"a": 1e7, "b": 1e5, "c": 1e3})
    assert pearson_log(x, y) == -1.0


def test_pearson_log_rescale_invariance():
    rng = np.random.default_rng(9)
    ids = [f"J{i}" for i in range(40)]
    x = vec(dict(zip(ids, rng.lognormal(0.0, 1.0, 40))))
    y = vec(dict(zip(ids, rng.lognormal(1.0, 0.5, 40))))
    base = pearson_log(x, y)
    for c in (0.001, 3.7, 1e6):
        scaled = vec({j: c * v for j, v in x.scores.items()})
        assert pearson_log(scaled, y) == pytest.approx(base, abs=1e-12)
        scaled_y = vec({j: c * v for j, v in y.scores.items()})
        assert pearson_log(x, scaled_y) == pytest.approx(base, abs=1e-12)


def test_pearson_log_symmetry_exact():
    x = vec({"a": 3.0, "b": 7.0, "c": 11.0, "d": 2.5})
    y = vec({"a": 40.0, "b": 2.0, "c": 8.0, "d": 19.0})
    assert pearson_log(x, y) == pearson_log(y, x)


def test_pearson_log_drops_non_positive_pairs():
    x = vec({"a": 1.0, "b": 2.0, "c": 3.0, "d": 0.0, "e": 5.0})
    y = vec({"a": 1.0, "b": 4.0, "c": 9.0, "d": 2.0, "e": 0.0})
    report = compare_metrics(x, y)
    assert report.scatter[0] == ["a", "b", "c"]
    assert report.omitted == ("d", "e")
    assert pearson_log(x, y) == pytest.approx(1.0, abs=1e-12)


def test_pearson_log_omission_merges_missing_ids():
    x = vec({"a": 1.0, "b": 2.0, "c": 3.0, "e": 5.0, "only_x": 4.0})
    y = vec({"a": 1.0, "b": 4.0, "c": 0.0, "e": 8.0, "only_y": 2.0})
    assert compare_metrics(x, y).omitted == ("c", "only_x", "only_y")


def test_pearson_log_requires_three_positive_pairs():
    x = vec({"a": 1.0, "b": 2.0, "c": 0.0})
    y = vec({"a": 1.0, "b": 4.0, "c": 9.0})
    with pytest.raises(ComparisonError, match="positive common pairs"):
        pearson_log(x, y)


def test_pearson_log_bounded_by_one():
    rng = np.random.default_rng(4)
    ids = [f"J{i}" for i in range(100)]
    x = vec(dict(zip(ids, rng.lognormal(0.0, 1.0, 100))))
    y = vec(dict(zip(ids, (v * rng.lognormal(0.0, 0.01) for v in x.scores.values()))))
    rho = pearson_log(x, y)
    assert -1.0 <= rho <= 1.0


# ---------------------------------------------------------------------------
# bundled top-20 columns vs frozen oracle values
#
# The constants below were produced by the from-definition oracles in this
# file, run over the bundled 2006 medicine data before the library's
# implementations existed; they pin both routes.

FROZEN_RHO = {
    ("eigenfactor", "total_citations"): {
        "spearman": 0.9353383458646617,
        "pearson_log": 0.976090837237942,
    },
    ("eigenfactor", "impact_factor"): {
        "spearman": 0.806015037593985,
        "pearson_log": 0.9047404436966477,
    },
    ("total_citations", "impact_factor"): {
        "spearman": 0.7684210526315789,
        "pearson_log": 0.8457573873952041,
    },
}


def _pair_vectors(name_x, name_y, top20_eigen, top20_citations, top20_impact):
    by_name = {
        "eigenfactor": top20_eigen,
        "total_citations": top20_citations,
        "impact_factor": top20_impact,
    }
    return by_name[name_x], by_name[name_y]


@pytest.mark.parametrize("pair", sorted(FROZEN_RHO))
def test_bundled_columns_match_frozen_oracles(
    pair, top20_eigen, top20_citations, top20_impact
):
    x, y = _pair_vectors(*pair, top20_eigen, top20_citations, top20_impact)
    frozen = FROZEN_RHO[pair]
    assert spearman(x, y) == pytest.approx(frozen["spearman"], abs=1e-12)
    assert pearson_log(x, y) == pytest.approx(frozen["pearson_log"], abs=1e-12)
    # and the oracles recompute to the same values from the raw columns
    ids = sorted(set(x.scores) & set(y.scores))
    xs = [x.scores[j] for j in ids]
    ys = [y.scores[j] for j in ids]
    assert oracle_spearman(xs, ys) == pytest.approx(frozen["spearman"], abs=1e-12)
    assert oracle_pearson(
        [math.log10(v) for v in xs], [math.log10(v) for v in ys]
    ) == pytest.approx(frozen["pearson_log"], abs=1e-12)


# ---------------------------------------------------------------------------
# concentration


def test_concentration_uniform_case():
    scores = vec({f"J{i}": 3.0 for i in range(10)})
    assert concentration(scores, [1]) == [(1, 0.1)]


def test_concentration_whole_is_whole():
    scores = vec({"a": 5.0, "b": 1.0, "c": 2.25})
    assert concentration(scores, [3]) == [(3, 1.0)]


def test_concentration_oversized_k_clamps():
    scores = vec({"a": 5.0, "b": 1.0})
    assert concentration(scores, [17]) == [(17, 1.0)]


def test_concentration_rejects_bad_inputs():
    with pytest.raises(ComparisonError, match="k must be >= 1"):
        concentration(vec({"a": 1.0}), [0])
    with pytest.raises(ComparisonError, match="total score is 0"):
        concentration(vec({"a": 0.0, "b": 0.0}), [1])


@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.integers(1, 40), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_concentration_shares_monotone_in_k(values, ks):
    assume(sum(values) > 0.0)
    scores = vec({f"J{i}": v for i, v in enumerate(values)})
    shares = dict(concentration(scores, sorted(set(ks))))
    ordered = [shares[k] for k in sorted(shares)]
    assert all(0.0 <= s <= 1.0 for s in ordered)
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))
    assert dict(concentration(scores, [len(values)]))[len(values)] == 1.0


# ---------------------------------------------------------------------------
# rank_gaps


def test_rank_gaps_direct_subtraction():
    gaps = rank_gaps(vec({"A": 0.7, "B": 0.5, "C": 0.45}))
    assert gaps == [0.7 - 0.5, 0.5 - 0.45]
    assert gaps == pytest.approx([0.2, 0.05])


def test_rank_gaps_all_equal_is_all_zero():
    assert rank_gaps(vec({"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0})) == [0.0, 0.0, 0.0]


def test_rank_gaps_requires_two_journals():
    with pytest.raises(ComparisonError):
        rank_gaps(vec({"a": 1.0}))


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=25))
@settings(max_examples=150, deadline=None)
def test_rank_gaps_non_negative_and_telescoping(values):
    scores = vec({f"J{i}": v for i, v in enumerate(values)})
    gaps = rank_gaps(scores)
    assert len(gaps) == len(values) - 1
    assert all(g >= 0.0 for g in gaps)
    # each difference and the running sum round at ulp(1e6) scale at worst
    assert sum(gaps) == pytest.approx(max(values) - min(values), abs=1e-7)


def test_rank_gaps_bundled_eigen_first_gap(top20_eigen):
    gaps = rank_gaps(top20_eigen)
    assert len(gaps) == 19
    assert gaps[0] == pytest.approx(0.2181, abs=1e-12)


def test_vector_stats_are_the_vectors_concentration_and_gaps(top20_eigen):
    stats = vector_stats(top20_eigen, (1, 5, 10))
    assert stats == {"metric_name": "eigenfactor",
                     "concentration": concentration(top20_eigen, (1, 5, 10)),
                     "rank_gaps": rank_gaps(top20_eigen)}
    shares = [share for _, share in stats["concentration"]]
    assert shares == sorted(shares)


# ---------------------------------------------------------------------------
# density ellipse


SQRT_CHI2_95 = math.sqrt(-2.0 * math.log(0.05))


def identity_covariance_vectors():
    s = math.sqrt(1.5)  # sample covariance (ddof=1) of these 4 points is identity
    coords = [(s, 0.0), (-s, 0.0), (0.0, s), (0.0, -s)]
    x = vec({f"P{i}": 10.0 ** cx for i, (cx, _) in enumerate(coords)})
    y = vec({f"P{i}": 10.0 ** cy for i, (_, cy) in enumerate(coords)})
    return x, y


def test_ellipse_identity_covariance_closed_form():
    x, y = identity_covariance_vectors()
    ellipse = compare_metrics(x, y, coverage=0.95).ellipse
    assert ellipse.semi_axes[0] == pytest.approx(SQRT_CHI2_95, abs=1e-6)
    assert ellipse.semi_axes[1] == pytest.approx(SQRT_CHI2_95, abs=1e-6)
    assert ellipse.center[0] == pytest.approx(0.0, abs=1e-12)
    assert ellipse.center[1] == pytest.approx(0.0, abs=1e-12)
    assert not ellipse.degenerate
    assert ellipse.coverage == 0.95


def test_ellipse_collinear_data_is_degenerate():
    x = vec({"a": 10.0, "b": 100.0, "c": 1000.0, "d": 10000.0})
    y = vec({"a": 100.0, "b": 10000.0, "c": 1000000.0, "d": 100000000.0})
    ellipse = compare_metrics(x, y).ellipse
    assert ellipse.degenerate
    assert ellipse.semi_axes[1] == 0.0
    assert ellipse.orientation_radians == pytest.approx(math.atan2(2.0, 1.0), abs=1e-9)


def test_ellipse_orientation_in_half_open_range():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ids = [f"J{i}" for i in range(30)]
        x = vec(dict(zip(ids, rng.lognormal(0.0, 1.0, 30))))
        y = vec(dict(zip(ids, rng.lognormal(0.0, 1.0, 30))))
        angle = compare_metrics(x, y).ellipse.orientation_radians
        assert -math.pi / 2 < angle <= math.pi / 2


def test_ellipse_coverage_monte_carlo_small():
    """Fraction of sample points inside the fitted 95% ellipse."""
    rng = np.random.default_rng(2)
    n = 10_000
    lx = rng.normal(1.0, 0.4, n)
    ly = 0.8 * lx + rng.normal(0.0, 0.6, n)
    x = vec({f"J{i}": float(v) for i, v in enumerate(10.0 ** lx)})
    y = vec({f"J{i}": float(v) for i, v in enumerate(10.0 ** ly)})
    ellipse = compare_metrics(x, y, coverage=0.95).ellipse
    cos = math.cos(ellipse.orientation_radians)
    sin = math.sin(ellipse.orientation_radians)
    dx, dy = lx - ellipse.center[0], ly - ellipse.center[1]
    u = (cos * dx + sin * dy) / ellipse.semi_axes[0]
    v = (-sin * dx + cos * dy) / ellipse.semi_axes[1]
    inside = (u * u + v * v) <= 1.0
    assert 0.93 <= inside.mean() <= 0.97


def test_ellipse_requires_three_positive_pairs():
    x = vec({"a": 1.0, "b": 2.0, "c": 0.0})
    y = vec({"a": 1.0, "b": 2.0, "c": 3.0})
    with pytest.raises(ComparisonError, match="positive common pairs"):
        compare_metrics(x, y)


def test_ellipse_coverage_validation():
    x, y = identity_covariance_vectors()
    with pytest.raises(ComparisonError, match="coverage"):
        compare_metrics(x, y, coverage=1.0)
    with pytest.raises(ComparisonError, match="coverage"):
        check_coverage(0.0)


def test_ellipse_params_axis_order_validation():
    with pytest.raises(ComparisonError, match="semi-axes"):
        EllipseParams((0.0, 0.0), (1.0, 2.0), 0.0, coverage=0.95)


# ---------------------------------------------------------------------------
# compare_metrics report


def test_compare_metrics_bundled_report(top20_eigen, top20_citations):
    report = compare_metrics(top20_eigen, top20_citations)
    assert report.n == 20
    assert report.omitted == ()
    assert report.spearman_rho == pytest.approx(
        FROZEN_RHO[("eigenfactor", "total_citations")]["spearman"], abs=1e-12
    )
    assert report.pearson_log_rho == pytest.approx(
        FROZEN_RHO[("eigenfactor", "total_citations")]["pearson_log"], abs=1e-12
    )
    assert abs(report.pearson_log_rho) <= 1.0 and abs(report.spearman_rho) <= 1.0
    assert report.ellipse.coverage == 0.95


def test_compare_metrics_reports_omissions():
    x = vec({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "only_x": 1.0})
    y = vec({"a": 2.0, "b": 4.0, "c": 6.0, "d": 0.0, "only_y": 1.0})
    report = compare_metrics(x, y)
    assert report.n == 4  # intersection size, before positivity filtering
    assert report.omitted == ("d", "only_x", "only_y")
