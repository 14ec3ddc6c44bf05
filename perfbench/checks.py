"""Output checks that share no code with the citerank library.

Expected values are recomputed from the input CSVs with plain numpy; the
outputs are read back from the metric JSON, rank TSV, pair report and
scatter files.  `report.json` is never read, because its format is meant
to change.  Every check returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

# Metric files in the order `report` compares them; every pair is reported.
METRICS = ("eigenfactor", "total_citations", "impact_factor")
PAIRS = tuple((x, y) for i, x in enumerate(METRICS) for y in METRICS[i + 1 :])

SPEARMAN_TOL = 1e-9
EIGEN_SUM_TOL = 1e-9
# Rank TSVs print six significant digits.
TSV_SCORE_RTOL = 1e-5


@dataclass(frozen=True)
class Expected:
    """What a correct run on one input corpus must produce."""

    journal_ids: tuple[str, ...]
    total_citations: dict[str, float]
    impact_factor: dict[str, float]
    rows: int


def read_journals(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = [row for row in csv.reader(f) if row]
    return rows[1:]


def read_citations(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(id pairs as strings, years as int64 pairs, counts as int64)."""
    ids = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), dtype=str,
                     quotechar='"', ndmin=2)
    nums = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3, 4), dtype=np.int64,
                      quotechar='"', ndmin=2)
    return ids, nums[:, :2], nums[:, 2]


def expected_outputs(journals_csv, citations_csv, census_year: int) -> Expected:
    journal_rows = read_journals(journals_csv)
    ids = np.array(sorted({row[0] for row in journal_rows}))
    articles = {}
    for jid, _name, year, count in journal_rows:
        if year:
            articles[(jid, int(year))] = int(count)

    pair_ids, years, counts = read_citations(citations_csv)
    index = np.searchsorted(ids, pair_ids)
    n = len(ids)

    totals = np.zeros(n, dtype=np.int64)
    np.add.at(totals, index[:, 1], counts)

    in_window = (years[:, 0] == census_year) & (
        (years[:, 1] == census_year - 1) | (years[:, 1] == census_year - 2)
    )
    numerators = np.zeros(n, dtype=np.int64)
    np.add.at(numerators, index[in_window, 1], counts[in_window])
    impact = {}
    for i, jid in enumerate(ids.tolist()):
        denominator = articles.get((jid, census_year - 1), 0) + articles.get(
            (jid, census_year - 2), 0
        )
        if denominator:
            impact[jid] = int(numerators[i]) / denominator

    return Expected(
        journal_ids=tuple(ids.tolist()),
        total_citations={jid: float(t) for jid, t in zip(ids.tolist(), totals.tolist())},
        impact_factor=impact,
        rows=len(counts),
    )


def digest_dir(out_dir) -> str:
    """SHA-256 over every file's relative name and bytes, in name order."""
    root = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _load_scores(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    return {jid: float(v) for jid, v in payload["scores"].items()}


def _check_exact(name: str, got: dict[str, float], want: dict[str, float]) -> list[str]:
    if set(got) != set(want):
        return [f"{name}: scored journals differ from the inputs "
                f"({len(got)} scored, {len(want)} expected)"]
    wrong = [jid for jid in want if got[jid] != want[jid]]
    if wrong:
        jid = wrong[0]
        return [f"{name}: {len(wrong)} scores differ, e.g. {jid}: {got[jid]!r} != {want[jid]!r}"]
    return []


def _check_rank_tsv(name: str, path: Path, scores: dict[str, float]) -> list[str]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f, delimiter="\t"))
    if not rows or rows[0] != ["rank", "journal", "score"]:
        return [f"{path.name}: bad header"]
    body = rows[1:]
    if len(body) != len(scores) or {r[1] for r in body if len(r) == 3} != set(scores):
        return [f"{path.name}: {len(body)} rows, expected one per scored journal ({len(scores)})"]
    previous = math.inf
    previous_rank = 0.0
    for position, (rank_s, jid, score_s) in enumerate(body, start=1):
        value = scores[jid]
        if value > previous:
            return [f"{path.name}: row {position} ({jid}) breaks non-increasing score order"]
        rank_value = float(rank_s)
        expected_rank = previous_rank if value == previous else float(position)
        if rank_value != expected_rank:
            return [f"{path.name}: row {position} has rank {rank_s}, expected {expected_rank:g}"]
        if not math.isclose(float(score_s), value, rel_tol=TSV_SCORE_RTOL, abs_tol=1e-300):
            return [f"{path.name}: row {position} score {score_s} != {value!r}"]
        previous, previous_rank = value, rank_value
    return []


def _check_pair(out: Path, x: str, y: str, vectors: dict[str, dict[str, float]]) -> list[str]:
    name = f"{x}_vs_{y}"
    with open(out / f"{name}.report.json", encoding="utf-8") as f:
        report = json.load(f)
    common = sorted(set(vectors[x]) & set(vectors[y]))
    if report["n"] != len(common):
        return [f"{name}: n={report['n']}, expected {len(common)} common journals"]
    xv = np.array([vectors[x][j] for j in common])
    yv = np.array([vectors[y][j] for j in common])
    rho = float(spearmanr(xv, yv).statistic)
    if not abs(report["spearman_rho"] - rho) <= SPEARMAN_TOL:
        return [f"{name}: spearman_rho {report['spearman_rho']!r} != recomputed {rho!r}"]
    positive = int(((xv > 0) & (yv > 0)).sum())
    with open(out / f"{name}.scatter.tsv", encoding="utf-8") as f:
        scatter_rows = sum(1 for line in f if line.strip()) - 1
    if scatter_rows != positive:
        return [f"{name}.scatter.tsv: {scatter_rows} rows, expected {positive} positive pairs"]
    return []


def check_report(out_dir, expected: Expected) -> list[str]:
    """Problems in a `citerank report` output directory."""
    out = Path(out_dir)
    problems: list[str] = []
    try:
        vectors = {m: _load_scores(out / f"{m}.metric.json") for m in METRICS}
        problems += _check_exact("total_citations", vectors["total_citations"],
                                 expected.total_citations)
        problems += _check_exact("impact_factor", vectors["impact_factor"],
                                 expected.impact_factor)
        eigen = vectors["eigenfactor"]
        if set(eigen) != set(expected.journal_ids):
            problems.append("eigenfactor: scored journals differ from the inputs")
        if any(not v >= 0.0 for v in eigen.values()):
            problems.append("eigenfactor: negative or NaN score")
        eigen_sum = math.fsum(eigen.values())
        if not abs(eigen_sum - 100.0) <= EIGEN_SUM_TOL:
            problems.append(f"eigenfactor: scores sum to {eigen_sum!r}, not 100")
        for m in METRICS:
            problems += _check_rank_tsv(m, out / f"{m}.ranks.tsv", vectors[m])
        for x, y in PAIRS:
            problems += _check_pair(out, x, y, vectors)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
