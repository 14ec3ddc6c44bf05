"""citerank benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates the workload's
input corpus with `citerank gen` (seeded from --seed), then runs
`citerank report` on it as a child process, one at a time, until the
commands' own wall time adds up to --seconds.  Every run's output files are
checked against values recomputed from the inputs (see checks.py) and
digested; a run whose digest differs from the first run's counts as failed.

The host's speed drifts, so every untraced `report`, and the set-up's
`gen` runs, are followed by a fixed reference job (hostspeed.py), and the
times reported are scaled by it: a wall time times REFERENCE_S over the
wall time of the reference job right after it.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the runs alternate untraced and traced (see traced.py) and it
reports the per-layer metrics.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
YEARS = "2002:2006"
CENSUS_YEAR = 2006
SETUP_REPEATS = 3
REFERENCE_JOB = HERE / "hostspeed.py"
# hostspeed.py's median wall time on the 2-vCPU host BASELINE.json was
# recorded on; scaled times are in seconds of that host at that speed.
REFERENCE_S = 2.0
# Every run, set-up included, must end well inside three minutes.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    journals: int
    mean_out: float
    skew: float
    base_seed: int  # gen --seed is base_seed + --seed


WORKLOADS = {
    # Criterion 9's corpus, about 997k merged records: parsing dominates.
    "report-records": Workload(10_000, 100.0, 0.6, 42),
    # 50k journals, about 199k records: the per-journal layers dominate.
    "report-journals": Workload(50_000, 4.0, 1.0, 7),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Finished:
    code: int
    wall_s: float
    peak_rss_mb: float


@dataclass(frozen=True)
class Run:
    """One run of the command: traced or not, how it ended, its verdict."""

    traced: bool
    finished: Finished
    spans: dict | None
    ok: bool
    reference_s: float | None  # the reference job right after it (untraced runs)

    @property
    def scaled_s(self) -> float:
        return scale(self.finished.wall_s, self.reference_s)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _await_group_exit(pgid: int, timeout_s: float = 10.0) -> None:
    """Wait until no process of the group is left (the reaper collects them)."""
    give_up = time.monotonic() + timeout_s
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv: list[str], env: dict, log_path: Path, deadline: float) -> Finished:
    """Run argv to completion through launch.py, in its own process group.

    Wall time (spawn to exit) and peak RSS come from the launcher, which
    keeps the benchmark's own memory out of the command's `ru_maxrss`.  At
    the deadline, or if this process is interrupted, the whole group is
    killed and waited for.
    """
    result_path = log_path.with_name(log_path.name + ".result.json")
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(result_path), *argv]
    with open(log_path, "wb") as log:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(launcher[0], launcher, env, file_actions=actions, setpgroup=0)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (pid,))
        timer.start()
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            _kill_group(pid)
            os.waitpid(pid, 0)
            _await_group_exit(pid)
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    timer.join()
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not result_path.exists():
        _await_group_exit(pid)
        return Finished(code or 1, elapsed, 0.0)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return Finished(result["code"], result["wall_s"], result["peak_rss_mb"])


def _log_tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def scale(wall_s: float, reference_s: float) -> float:
    """A wall time in seconds of the reference host at its reference speed."""
    return wall_s * REFERENCE_S / reference_s


def child_env() -> dict:
    """This process's environment with the checkout's sources on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def citerank_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "citerank.cli", *args]


class Judge:
    """Decides whether one run of the command succeeded.

    A run fails on a non-zero exit, when its output fails the checks, or
    when its output bytes differ from the first run's.  Identical bytes
    get the first verdict, so the checks run once per distinct output.
    """

    def __init__(self, check, expected: checks.Expected):
        self.check = check
        self.expected = expected
        self.reference: str | None = None
        self.verdicts: dict[str, list[str]] = {}

    def problems(self, code: int, out: Path, log: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {_log_tail(log)}"]
        digest = checks.digest_dir(out)
        if self.reference is None:
            self.reference = digest
            self.verdicts[digest] = self.check(out, self.expected)
        return self.verdicts.get(digest, ["output bytes differ from the first run"])


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
        self.traces = WORK_DIR / "traces"
        self.inputs = self.work / "input"
        self.out = self.work / "out"
        self.log = self.work / "child.log"
        self.reference_log = self.work / "reference.log"
        self.env = child_env()

    def run_id(self, what: str) -> str:
        return f"{self.name}-seed{self.seed}-pid{os.getpid()}-{what}"

    def citerank(self, args: list[str], trace_as: str | None = None) -> tuple[Finished, dict | None]:
        if trace_as is None:
            argv = citerank_argv(args)
        else:
            spans = self.traces / f"{trace_as}.json"
            argv = [sys.executable, str(HERE / "traced.py"), str(spans), trace_as, "--", *args]
        finished = spawn(argv, self.env, self.log, self.deadline)
        doc = None
        if trace_as is not None and finished.code == 0:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            if not Path(doc["citerank"]).resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"traced run imported citerank from {doc['citerank']}")
        return finished, doc

    def gen_args(self) -> list[str]:
        w = self.workload
        return ["gen", "--journals", str(w.journals), "--years", YEARS,
                "--mean-out", str(w.mean_out), "--skew", str(w.skew),
                "--seed", str(w.base_seed + self.seed), "--out", str(self.inputs)]

    def command_args(self) -> list[str]:
        return ["report",
                "--journals", str(self.inputs / "journals.csv"),
                "--citations", str(self.inputs / "citations.csv"),
                "--out", str(self.out),
                "--census-year", str(CENSUS_YEAR)]

    def reference(self) -> float:
        """Wall time of the reference job, run now."""
        finished = spawn([sys.executable, str(REFERENCE_JOB)], self.env, self.reference_log,
                         self.deadline)
        if finished.code != 0:
            raise BenchError(f"reference job exited {finished.code}: "
                             f"{_log_tail(self.reference_log)}")
        return finished.wall_s

    def setup(self) -> tuple[list[float], float | None, dict | None]:
        """Generate the inputs; time each `gen`, and check gen is deterministic.

        Returns the `gen` times, the reference job's time right after them
        (untraced only) and the traced run's spans.
        """
        times, digests, doc = [], set(), None
        for _ in range(1 if self.trace else SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            finished, doc = self.citerank(self.gen_args(),
                                          self.run_id("gen") if self.trace else None)
            if finished.code != 0:
                raise BenchError(f"gen exited {finished.code}: {_log_tail(self.log)}")
            times.append(finished.wall_s)
            digests.add(checks.digest_dir(self.inputs))
        if len(digests) != 1:
            raise BenchError("gen wrote different bytes for the same seed")
        return times, None if self.trace else self.reference(), doc

    def measure(self, expected: checks.Expected) -> list[Run]:
        """Closed loop: run the command until it has run for --seconds; judge every run.

        Only the commands' own wall time counts toward --seconds, so the
        number of runs does not depend on how long the checks or the
        reference jobs take.
        """
        judge = Judge(checks.check_report, expected)
        runs: list[Run] = []
        busy = 0.0
        while len(runs) < (2 if self.trace else 1) or busy < self.seconds:
            if time.monotonic() >= self.deadline:
                break
            traced = self.trace and len(runs) % 2 == 1
            shutil.rmtree(self.out, ignore_errors=True)
            finished, doc = self.citerank(self.command_args(),
                                          self.run_id(f"op{len(runs)}") if traced else None)
            reference_s = None if self.trace else self.reference()
            problems = judge.problems(finished.code, self.out, self.log)
            for problem in problems:
                print(f"run {len(runs)} failed: {problem}", file=sys.stderr)
            runs.append(Run(traced, finished, doc, not problems, reference_s))
            busy += finished.wall_s
        return runs

    def result(self) -> dict:
        started = time.monotonic()
        setup_times, setup_reference_s, gen_doc = self.setup()
        expected = checks.expected_outputs(self.inputs / "journals.csv",
                                           self.inputs / "citations.csv", CENSUS_YEAR)
        measuring = time.monotonic()
        runs = self.measure(expected)
        failed = sum(1 for r in runs if not r.ok)
        plain = [r for r in runs if r.ok and not r.traced] or [
            r for r in runs if not r.traced]
        walls = [r.finished.wall_s for r in plain]
        q1, raw_wall_s, q3 = _quartiles(walls)
        print(f"workload {self.name}: citerank report, "
              f"gen --seed {self.workload.base_seed + self.seed}, {expected.rows} input rows")
        print(f"error_rate {failed / len(runs):.4g} ({failed} failed of {len(runs)} runs)")
        print(f"run walls: {' '.join(f'{r.finished.wall_s:.3f}' for r in runs)} s; "
              f"set-up and expected values {measuring - started:.1f} s, "
              f"loop and checks {time.monotonic() - measuring:.1f} s")
        print(f"raw wall (not scaled) median {raw_wall_s:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}")

        if not self.trace:
            print(f"reference job: after set-up {setup_reference_s:.3f} s, after runs "
                  f"{' '.join(f'{r.reference_s:.3f}' for r in plain)} s "
                  f"(REFERENCE_S {REFERENCE_S} s)")
            sq1, wall_s, sq3 = _quartiles([r.scaled_s for r in plain])
            rss = statistics.median(r.finished.peak_rss_mb for r in plain)
            setup_s = scale(statistics.median(setup_times), setup_reference_s)
            print(f"wall_s {wall_s:.4f} s (scaled, median of {len(plain)}; "
                  f"q1 {sq1:.4f}, q3 {sq3:.4f})")
            print(f"peak_rss_mb {rss:.1f} MB (median of {len(plain)})")
            print(f"setup_s {setup_s:.4f} s (scaled, median of {len(setup_times)} gen runs; "
                  f"raw {' '.join(f'{t:.3f}' for t in setup_times)} s)")
            metrics = {"wall_s": (wall_s, "s"), "peak_rss_mb": (rss, "MB"),
                       "setup_s": (setup_s, "s")}
        else:
            metrics, absent = self.layer_metrics(runs, expected, gen_doc, raw_wall_s)
            for name, (value, unit) in metrics.items():
                print(f"{name} {value:.6g} {unit}")
            if absent:
                print(f"absent (reported as 0): {', '.join(sorted(absent))}")
        return {
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def layer_metrics(self, runs, expected, gen_doc, untraced_wall_s):
        tables = []
        absent: set[str] = set()
        for run in runs:
            if run.traced and run.ok:
                values, missing = layers.command_layers(run.spans, expected.rows)
                tables.append(values)
                absent.update(missing)
        if not tables:
            raise BenchError("no traced run succeeded")
        setup_values, missing = layers.setup_layers(gen_doc)
        absent.update(missing)
        traced_walls = [r.finished.wall_s for r in runs if r.traced and r.ok]
        metrics = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
        metrics.update(setup_values)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced_wall_s
        return {name: (value, layers.unit_of(name)) for name, value in metrics.items()}, absent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _terminate(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "citerank" / "cli.py").is_file():
        print(f"perfbench: no citerank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.work.mkdir(parents=True, exist_ok=True)
    bench.traces.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.result()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
