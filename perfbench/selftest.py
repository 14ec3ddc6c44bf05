"""Prove the benchmark's output checks are not vacuous.

    python3 perfbench/selftest.py

Runs `citerank report` on a small generated corpus, then feeds the
benchmark's Judge (the code that decides whether a run failed) damaged
copies of the outputs: a corrupted metric file, a reordered rank TSV,
truncated and missing outputs, and a non-zero exit.
Each damaged output must count as a failed run twice over: as the first
run (caught by the checks) and after a good run (caught by the digest).
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
import run


def _corrupt_metric(out: Path) -> None:
    path = out / "total_citations.metric.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    jid = next(iter(payload["scores"]))
    payload["scores"][jid] += 1.0
    path.write_text(json.dumps(payload), encoding="utf-8")


def _scale_eigenfactor(out: Path) -> None:
    path = out / "eigenfactor.metric.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["scores"] = {j: v * 1.001 for j, v in payload["scores"].items()}
    path.write_text(json.dumps(payload), encoding="utf-8")


def _reorder_ranks(out: Path) -> None:
    path = out / "eigenfactor.ranks.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines), encoding="utf-8")


def _shift_spearman(out: Path) -> None:
    path = out / "eigenfactor_vs_total_citations.report.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["spearman_rho"] -= 1e-6
    path.write_text(json.dumps(payload), encoding="utf-8")


def _truncate(name: str):
    def damage(out: Path) -> None:
        path = out / name
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    return damage


def _delete(name: str):
    def damage(out: Path) -> None:
        (out / name).unlink()

    return damage


REPORT_DAMAGE = {
    "corrupted metric file": _corrupt_metric,
    "eigenfactor not summing to 100": _scale_eigenfactor,
    "reordered rank TSV": _reorder_ranks,
    "wrong spearman_rho": _shift_spearman,
    "truncated rank TSV": _truncate("impact_factor.ranks.tsv"),
    "truncated metric file": _truncate("eigenfactor.metric.json"),
    "truncated scatter TSV": _truncate("total_citations_vs_impact_factor.scatter.tsv"),
    "missing pair report": _delete("eigenfactor_vs_impact_factor.report.json"),
}


def main() -> int:
    work = run.WORK_DIR / f"selftest-{time.time_ns()}"
    inputs, log = work / "input", work / "child.log"
    env = run.child_env()
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    failures = []

    def citerank(*args: str) -> int:
        return run.spawn(run.citerank_argv(list(args)), env, log, deadline).code

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        verdict = "failed" if problems else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: run {verdict}"
              + (f" ({problems[0][:100]})" if problems else ""))
        if not ok:
            failures.append(label)

    work.mkdir(parents=True)
    try:
        if citerank("gen", "--journals", "300", "--years", run.YEARS, "--mean-out", "30",
                    "--skew", "0.6", "--seed", "5", "--out", str(inputs)) != 0:
            print(f"gen failed: {log.read_text(encoding='utf-8')}")
            return 1
        journals, citations = str(inputs / "journals.csv"), str(inputs / "citations.csv")
        expected = checks.expected_outputs(journals, citations, run.CENSUS_YEAR)
        out = work / "report"
        code = citerank("report", "--journals", journals, "--citations", citations,
                        "--out", str(out), "--census-year", str(run.CENSUS_YEAR))
        good = run.Judge(checks.check_report, expected)
        expect("unchanged output", good.problems(code, out, log), False)
        for label, damage in REPORT_DAMAGE.items():
            copy = work / "report-damaged"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            damage(copy)
            fresh = run.Judge(checks.check_report, expected)
            expect(f"{label}, as first run", fresh.problems(0, copy, log), True)
            expect(f"{label}, after a good run", good.problems(0, copy, log), True)
        expect("non-zero exit", good.problems(1, out, log), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(failures)} of the cases misbehaved" if failures
          else "selftest: every damaged output counts as a failed run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
