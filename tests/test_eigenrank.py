"""Cross-citation matrix construction and the damped power iteration.

The sparse iteration (`eigen_scores`) and the dense brute-force reference
(`dense_oracle_scores`) are independent routes to the same fixed point;
several tests here assert their agreement rather than hand-computed
values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank.corpus import CitationWindow, Corpus, Journal
from citerank.eigenrank import (
    DENSE_ORACLE_MAX_ORDER,
    ArticleVector,
    EigenSettings,
    build_matrix,
    dense_oracle_scores,
    eigen_scores,
)
from citerank.errors import ConvergenceError, MatrixBuildError

from conftest import build_corpus, citation_dict, seeded_corpus


def mutual_pair():
    return build_corpus(
        [("A", {2006: 10}), ("B", {2006: 10})],
        [("A", "B", 2006, 2005, 1), ("B", "A", 2006, 2005, 1)],
    )


def column(matrix, journal_id):
    dense = matrix.matrix.toarray()
    j = matrix.journal_ids.index(journal_id)
    return {jid: dense[i, j] for i, jid in enumerate(matrix.journal_ids) if dense[i, j]}


# ---------------------------------------------------------------------------
# build_matrix


def test_build_matrix_mutual_pair():
    matrix, articles = build_matrix(mutual_pair())
    assert matrix.journal_ids == ("A", "B")
    assert matrix.matrix.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert articles.weights == {"A": 0.5, "B": 0.5}
    assert not matrix.dangling.any()


def test_build_matrix_lists_dangling_columns():
    corpus = build_corpus(
        [("A", {2006: 1}), ("B", {2006: 1}), ("C", {2006: 1})],
        [("A", "B", 2006, 2005, 4)],
    )
    matrix, _ = build_matrix(corpus)
    dangling_ids = [jid for jid, d in zip(matrix.journal_ids, matrix.dangling) if d]
    assert dangling_ids == ["B", "C"]


def test_build_matrix_normalizes_and_zeroes_diagonal():
    corpus = build_corpus(
        [("A", {2006: 1}), ("B", {2006: 1}), ("C", {2006: 1})],
        [
            ("A", "B", 2006, 2005, 3),
            ("A", "C", 2006, 2005, 1),
            ("A", "A", 2006, 2005, 9),  # self-loop, dropped
        ],
    )
    matrix, _ = build_matrix(corpus, exclude_self=True)
    assert column(matrix, "A") == {"B": 0.75, "C": 0.25}
    assert np.diagonal(matrix.matrix.toarray()).tolist() == [0.0, 0.0, 0.0]


def test_build_matrix_include_self_keeps_diagonal():
    corpus = build_corpus(
        [("A", {2006: 1}), ("B", {2006: 1})],
        [("A", "A", 2006, 2005, 1), ("A", "B", 2006, 2005, 3)],
    )
    matrix, _ = build_matrix(corpus, exclude_self=False)
    assert column(matrix, "A") == {"A": 0.25, "B": 0.75}


def test_build_matrix_window_restricts_edges():
    corpus = build_corpus(
        [("A", {2004: 3, 2005: 5, 2006: 2}), ("B", {2004: 4, 2005: 6, 2006: 1})],
        [("A", "B", 2006, 2005, 1), ("A", "B", 2005, 2004, 1)],
    )
    matrix, articles = build_matrix(corpus, CitationWindow.cited(2006, span=1))
    assert column(matrix, "A") == {"B": 1.0}
    dangling_ids = [jid for jid, d in zip(matrix.journal_ids, matrix.dangling) if d]
    assert dangling_ids == ["B"]
    # article shares come from the window's publication years (2005 only)
    assert articles.weights == {"A": 5 / 11, "B": 6 / 11}


def test_build_matrix_requires_journals():
    with pytest.raises(MatrixBuildError, match="no journals"):
        build_matrix(build_corpus([], []))


def test_build_matrix_requires_articles_in_window():
    corpus = build_corpus([("A", {2006: 5}), ("B", {2006: 3})], [])
    with pytest.raises(MatrixBuildError, match="article"):
        build_matrix(corpus, CitationWindow.cited(2006, span=2))


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_build_matrix_column_stochastic_property(seed):
    matrix, articles = build_matrix(seeded_corpus(seed))
    dense = matrix.matrix.toarray()
    sums = dense.sum(axis=0)
    for j in range(matrix.order):
        if matrix.dangling[j]:
            assert sums[j] == 0.0
        else:
            assert abs(sums[j] - 1.0) <= 1e-12
    assert ((dense >= 0.0) & (dense <= 1.0)).all()
    assert abs(sum(articles.weights.values()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# settings and vector validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"alpha": -0.3},
        {"tolerance": 0.0},
        {"max_iterations": 0},
    ],
)
def test_eigen_settings_validation(kwargs):
    with pytest.raises(ValueError):
        EigenSettings(**kwargs)


def test_article_vector_must_sum_to_one():
    with pytest.raises(MatrixBuildError, match="sum to 1"):
        ArticleVector({"A": 0.7, "B": 0.7})


def test_article_vector_alignment_requires_same_journals():
    vector = ArticleVector({"A": 0.5, "B": 0.5})
    with pytest.raises(MatrixBuildError, match="differ"):
        vector.aligned(("A", "C"))


# ---------------------------------------------------------------------------
# eigen_scores


def test_symmetric_pair_splits_evenly():
    matrix, articles = build_matrix(mutual_pair())
    for alpha in (0.2, 0.5, 0.85, 0.99):
        scores = eigen_scores(matrix, articles, EigenSettings(alpha=alpha)).scores
        assert scores["A"] == pytest.approx(50.0, abs=1e-9)
        assert scores["B"] == pytest.approx(50.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_fully_symmetric_network_is_uniform(n):
    ids = [f"J{i}" for i in range(n)]
    corpus = build_corpus(
        [(jid, {2006: 10}) for jid in ids],
        [
            (a, b, 2006, 2005, 3)
            for a in ids
            for b in ids
            if a != b
        ],
    )
    matrix, articles = build_matrix(corpus)
    scores = eigen_scores(matrix, articles).scores
    for jid in ids:
        assert scores[jid] == pytest.approx(100.0 / n, abs=1e-9)


def test_single_journal_takes_all_weight():
    corpus = build_corpus([("solo", {2006: 4})], [("solo", "solo", 2006, 2005, 2)])
    matrix, articles = build_matrix(corpus)  # self-loop excluded, column dangling
    assert eigen_scores(matrix, articles).scores == {"solo": 100.0}
    assert dense_oracle_scores(matrix, articles).scores == {"solo": 100.0}


def test_scores_sum_to_100(toy_corpus):
    matrix, articles = build_matrix(toy_corpus)
    scores = eigen_scores(matrix, articles).scores
    assert sum(scores.values()) == pytest.approx(100.0, abs=1e-9)


def test_no_citations_in_window_scores_by_article_share():
    # every column dangling: flow is pure dangling redistribution
    corpus = build_corpus([("A", {2005: 30}), ("B", {2005: 10})], [])
    matrix, articles = build_matrix(corpus)
    scores = eigen_scores(matrix, articles).scores
    assert scores["A"] == pytest.approx(75.0, abs=1e-9)
    assert scores["B"] == pytest.approx(25.0, abs=1e-9)


def test_provenance_records_iterations_and_alpha():
    matrix, articles = build_matrix(mutual_pair())
    vector = eigen_scores(matrix, articles, EigenSettings(alpha=0.85))
    assert vector.metric_name == "eigenfactor"
    assert "alpha=0.85" in vector.provenance
    assert "iterations=" in vector.provenance


def test_non_convergence_raises_with_residual():
    matrix, articles = build_matrix(seeded_corpus(5))
    with pytest.raises(ConvergenceError) as exc:
        eigen_scores(matrix, articles, EigenSettings(tolerance=1e-15, max_iterations=2))
    assert exc.value.iterations == 2
    assert exc.value.residual > exc.value.tolerance
    assert "residual" in str(exc.value)


def test_deterministic_repeat_is_bit_identical():
    matrix, articles = build_matrix(seeded_corpus(17))
    first = eigen_scores(matrix, articles).scores
    second = eigen_scores(matrix, articles).scores
    assert first == second


# ---------------------------------------------------------------------------
# dense oracle agreement


def l1_distance(a, b):
    assert set(a.scores) == set(b.scores)
    return sum(abs(a.scores[j] - b.scores[j]) for j in a.scores)


def test_oracle_agreement_random_4_journals():
    corpus = seeded_corpus(123, n=4)
    matrix, articles = build_matrix(corpus)
    assert l1_distance(eigen_scores(matrix, articles),
                       dense_oracle_scores(matrix, articles)) < 1e-8


def test_oracle_agreement_random_5_journals():
    corpus = seeded_corpus(321, n=5)
    matrix, articles = build_matrix(corpus)
    assert l1_distance(eigen_scores(matrix, articles),
                       dense_oracle_scores(matrix, articles)) < 1e-8


@given(st.integers(0, 5_000), st.sampled_from([0.5, 0.85, 0.95]))
@settings(max_examples=25, deadline=None)
def test_oracle_agreement_property(seed, alpha):
    matrix, articles = build_matrix(seeded_corpus(seed))
    settings_ = EigenSettings(alpha=alpha)
    assert l1_distance(
        eigen_scores(matrix, articles, settings_),
        dense_oracle_scores(matrix, articles, settings_),
    ) < 1e-8


def test_dense_oracle_rejects_large_matrices():
    n = DENSE_ORACLE_MAX_ORDER + 1
    corpus = build_corpus(
        [(f"J{i}", {2006: 1}) for i in range(n)],
        [(f"J{i}", f"J{(i + 1) % n}", 2006, 2005, 1) for i in range(n)],
    )
    matrix, articles = build_matrix(corpus)
    with pytest.raises(MatrixBuildError, match="order"):
        dense_oracle_scores(matrix, articles)


# ---------------------------------------------------------------------------
# structural invariances


def test_count_scale_invariance():
    base = seeded_corpus(77)
    scaled = build_corpus(
        [(jid, j.articles_by_year) for jid, j in base.journals.items()],
        [key + (7 * count,) for key, count in citation_dict(base).items()],
    )
    m1, a1 = build_matrix(base)
    m2, a2 = build_matrix(scaled)
    s1 = eigen_scores(m1, a1).scores
    s2 = eigen_scores(m2, a2).scores
    for jid in s1:
        assert s1[jid] == pytest.approx(s2[jid], abs=1e-9)


def test_permutation_equivariance():
    """Relabeling journals (which reorders the matrix) permutes scores only."""
    base = seeded_corpus(88)
    relabel = {jid: f"Z{9 - i}_{jid}" for i, jid in enumerate(sorted(base.journals))}
    renamed = build_corpus(
        [(relabel[jid], j.articles_by_year) for jid, j in base.journals.items()],
        [
            (relabel[citing], relabel[cited], cy, py, count)
            for (citing, cited, cy, py), count in citation_dict(base).items()
        ],
    )
    m1, a1 = build_matrix(base)
    m2, a2 = build_matrix(renamed)
    assert m1.journal_ids != tuple(relabel[j] for j in m1.journal_ids)  # order changed
    s1 = eigen_scores(m1, a1).scores
    s2 = eigen_scores(m2, a2).scores
    for jid, score in s1.items():
        assert s2[relabel[jid]] == pytest.approx(score, abs=1e-12)
