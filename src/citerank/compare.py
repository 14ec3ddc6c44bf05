"""Rank tables and paired-metric statistics.

All log transforms in this module use base 10, so correlation inputs,
scatter coordinates, and fitted ellipse parameters live on the same axes.
Correlations are computed over the intersection of the two vectors;
journals missing from either side, and non-positive values under the log
transform, are omitted and reported rather than shifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import _positions
from .errors import ComparisonError
from .metrics import MetricVector


@dataclass(frozen=True, eq=False)
class RankTable:
    """Journals ordered by score (descending, ties by id) with explicit ranks.

    `journals`, `scores` and `ranks` are aligned, in rank order.
    """

    metric_name: str
    journals: tuple[str, ...]
    scores: np.ndarray
    ranks: np.ndarray


# How `rank` gives tied journals a rank: "min" gives a tied group the smallest
# of its positions (integer ranks), "average" the mean of them.
TIE_POLICIES = ("average", "min")


def check_coverage(coverage: float) -> float:
    """The ellipse's coverage probability, which must lie in (0, 1)."""
    if not 0.0 < coverage < 1.0:
        raise ComparisonError(f"coverage must be in (0, 1), got {coverage}")
    return coverage


def check_k(k: int) -> int:
    """A concentration k, which must be at least 1."""
    if k < 1:
        raise ComparisonError(f"concentration k must be >= 1, got {k}")
    return k


@dataclass(frozen=True)
class EllipseParams:
    """Equal-density contour of a fitted bivariate normal."""

    center: tuple[float, float]
    semi_axes: tuple[float, float]  # (major, minor)
    orientation_radians: float  # angle of the major axis, in (-pi/2, pi/2]
    coverage: float
    degenerate: bool = False

    def __post_init__(self):
        major, minor = self.semi_axes
        if not major >= minor >= 0.0:
            raise ComparisonError(f"semi-axes must satisfy major >= minor >= 0, got {self.semi_axes}")


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Paired-metric statistics for one (x, y) metric pair.

    `n` is the size of the x/y intersection (the Spearman sample);
    `omitted` lists journals missing from either vector plus those dropped
    from the log-based statistics for non-positive values.  `scatter` holds
    the plot-ready points: (ids, log10 x, log10 y) of the positive common pairs.
    """

    x_name: str
    y_name: str
    pearson_log_rho: float
    spearman_rho: float
    n: int
    omitted: tuple[str, ...]
    ellipse: EllipseParams
    scatter: tuple[list[str], np.ndarray, np.ndarray]


def rank(scores: MetricVector, tie_policy: str = "min") -> RankTable:
    """Rank journals by score, largest first; rank 1 = largest score."""
    if tie_policy not in TIE_POLICIES:
        raise ComparisonError(f"tie_policy must be one of {TIE_POLICIES}, got {tie_policy!r}")
    if not len(scores):
        raise ComparisonError("cannot rank an empty metric vector")
    # The values are in id order, so a stable sort breaks ties by id.
    order = np.argsort(-scores.values, kind="stable")
    ordered = scores.values[order]
    journals = tuple(np.array(scores.ids, dtype=object)[order].tolist())
    return RankTable(scores.metric_name, journals, ordered, _sorted_ranks(ordered, tie_policy))


def _descending_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 for the largest value; tied values share the mean of their positions.

    These are `scipy.stats.rankdata(-values)`, computed here because
    importing scipy.stats takes about 0.8 s (2 vCPUs), a third of a `report`
    on a million citation records.
    """
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = _sorted_ranks(values[order], "average")
    return ranks


def _sorted_ranks(ordered: np.ndarray, tie_policy: str) -> np.ndarray:
    """The ranks under `tie_policy` of values already in descending order."""
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.flatnonzero(np.r_[starts, True])  # each tie group's first position, then n
    group = np.cumsum(starts) - 1
    low, high = bounds[group] + 1, bounds[group + 1]
    return low if tie_policy == "min" else (low + high) / 2.0


def _paired(
    x: MetricVector, y: MetricVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Intersection of the two vectors in sorted id order, plus missing ids.

    The ids are matched by position in object arrays of Python strings;
    numpy's fixed-width strings would drop trailing NULs, and ids may
    contain NUL.
    """
    x_ids, y_ids = np.array(x.ids, dtype=object), np.array(y.ids, dtype=object)
    at, in_x = _positions(x_ids, y_ids)
    in_y = np.zeros(len(x_ids), dtype=bool)
    in_y[at[in_x]] = True
    missing = sorted(x_ids[~in_y].tolist() + y_ids[~in_x].tolist())
    return y_ids[in_x], x.values[at[in_x]], y.values[in_x], missing


def _pearson(xv: np.ndarray, yv: np.ndarray, what: str) -> float:
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sx2 = float((xc * xc).sum())
    sy2 = float((yc * yc).sum())
    if sx2 == 0.0 or sy2 == 0.0:
        raise ComparisonError(f"zero variance in {what}; correlation undefined")
    rho = float((xc * yc).sum()) / math.sqrt(sx2 * sy2)
    return max(-1.0, min(1.0, rho))


def spearman(x: MetricVector, y: MetricVector) -> float:
    """Pearson correlation of average-policy ranks over the common journals.

    Requires at least 3 journals present in both vectors.
    """
    _, xv, yv, _ = _paired(x, y)
    return _spearman(xv, yv)


def _spearman(xv: np.ndarray, yv: np.ndarray) -> float:
    if len(xv) < 3:
        raise ComparisonError(f"spearman needs >= 3 common journals, got {len(xv)}")
    return _pearson(_descending_ranks(xv), _descending_ranks(yv), "ranks (all scores tied)")


def _positive_logs(common, xv, yv, missing):
    """The `_paired` journals with strictly positive values on both sides, as
    (ids, log10 x, log10 y, omitted); omitted covers the ids missing from
    either vector or dropped for a non-positive value."""
    positive = (xv > 0.0) & (yv > 0.0)
    omitted = sorted(missing + common[~positive].tolist())
    return common[positive].tolist(), np.log10(xv[positive]), np.log10(yv[positive]), omitted


def _pearson_log(lx: np.ndarray, ly: np.ndarray) -> float:
    if len(lx) < 3:
        raise ComparisonError(f"pearson_log needs >= 3 positive common pairs, got {len(lx)}")
    return _pearson(lx, ly, "log-transformed scores")


def concentration(
    scores: MetricVector, ks: Sequence[int]
) -> list[tuple[int, float]]:
    """share(k) = sum of the top-k scores / sum of all scores.

    k larger than the vector covers the whole vector (share 1.0).
    """
    values = _descending(scores.values).tolist()
    total = sum(values)
    if total <= 0.0:
        raise ComparisonError("concentration undefined: total score is 0")
    return [(check_k(k), sum(values[:k]) / total) for k in ks]


def rank_gaps(scores: MetricVector) -> list[float]:
    """Differences between consecutively ranked scores, largest pair first."""
    if len(scores) < 2:
        raise ComparisonError("rank_gaps needs at least 2 journals")
    values = _descending(scores.values)
    return (values[:-1] - values[1:]).tolist()


def vector_stats(scores: MetricVector, ks: Sequence[int]) -> dict:
    """The statistics of one vector alone: its name, its concentration shares
    at `ks` and its rank gaps."""
    return {"metric_name": scores.metric_name, "concentration": concentration(scores, ks),
            "rank_gaps": rank_gaps(scores)}


def _descending(values: np.ndarray) -> np.ndarray:
    """The values, largest first; equal values (0.0 and -0.0) keep their order."""
    return -np.sort(-values, kind="stable")


# Relative eigenvalue floor below which the fitted covariance counts as singular.
_DEGENERATE_RATIO = 1e-12


def _ellipse(lx: np.ndarray, ly: np.ndarray, coverage: float) -> EllipseParams:
    """Equal-density ellipse of a bivariate normal fitted to at least 3 points.

    Semi-axes are sqrt(eigenvalue * c) of the sample covariance with
    c = -2 ln(1 - coverage), the chi-square(2) quantile at `coverage`.
    Collinear data yields a degenerate ellipse with minor axis 0.
    """
    scale = -2.0 * math.log(1.0 - check_coverage(coverage))
    center = (float(lx.mean()), float(ly.mean()))
    cov = np.cov(lx, ly, ddof=1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    minor_val, major_val = (max(float(v), 0.0) for v in eigenvalues)
    degenerate = major_val <= 0.0 or minor_val <= major_val * _DEGENERATE_RATIO
    if degenerate:
        minor_val = 0.0
    major, minor = math.sqrt(major_val * scale), math.sqrt(minor_val * scale)
    vx, vy = float(eigenvectors[0, 1]), float(eigenvectors[1, 1])
    if vx < 0.0 or (vx == 0.0 and vy < 0.0):
        vx, vy = -vx, -vy
    orientation = math.atan2(vy, vx)
    return EllipseParams(center, (major, minor), orientation, coverage, degenerate)


def compare_metrics(x: MetricVector, y: MetricVector, coverage: float = 0.95) -> ComparisonReport:
    """Full paired report: correlations, ellipse and the scatter points, all
    from one pairing of the two vectors."""
    common, xv, yv, missing = _paired(x, y)
    spearman_rho = _spearman(xv, yv)
    ids, lx, ly, omitted = _positive_logs(common, xv, yv, missing)
    pearson_rho = _pearson_log(lx, ly)
    ellipse = _ellipse(lx, ly, coverage)
    return ComparisonReport(
        x_name=x.metric_name,
        y_name=y.metric_name,
        pearson_log_rho=pearson_rho,
        spearman_rho=spearman_rho,
        n=len(common),
        omitted=tuple(omitted),
        ellipse=ellipse,
        scatter=(ids, lx, ly),
    )
