"""Scenario benchmark of adiasim: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it needs ``src/adiasim``).  A closed
loop with one client: each scenario run is one ``adiasim run`` in a fresh
child interpreter, started only after the previous one ended, with BLAS
threads capped at the number of usable CPUs.  Rounds of the workload's
scenario runs repeat until ``--seconds`` have passed (at least
MIN_ROUNDS rounds); metrics are medians over rounds.

Times are in reference seconds: each child times a fixed probe loop just
before and just after its run (child.probe), and its wall and CPU times
are scaled by speed_scale() of the mean probe time; setup_s by that of
the run's median probe time.  On a shared host the same run
takes from 0.7x to 1.3x its median from one minute to the next; the
scaling removes most of that.  Unscaled medians are printed alongside.

--trace 0 reports wall_s, cpu_s, setup_s and peak_rss_mb.
--trace 1 alternates traced and plain rounds and reports the per-layer
metrics of the traced ones plus trace.overhead_s.  Both check every
output against independent references (checks.py) after the timed loop,
and print one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2         # the byte-identity check compares two runs
MIN_TRACED_ROUNDS = 2
MIN_SETUPS = 3
TIME_LIMIT_S = 110.0   # once the minimum is met, no round may be projected past this
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"
# Probe time (child.probe) that defines a reference second: its median on
# a shared 2-CPU x86-64 host (Python 3.11, numpy 2.4).
PROBE_REFERENCE_S = 0.33
# Times scale with (PROBE_REFERENCE_S / probe time) ** PROBE_EXPONENT.  The
# program's time moves about half as much as the probe's when the host's
# speed changes (table1-lindblad ran at 0.75x its usual time while the
# probe ran at 0.58x), and a full correction overshoots in such phases.
PROBE_EXPONENT = 0.5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    cap = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env.pop("ADIASIM_OUT_DIR", None)
    return env


class Bench:
    """Runs one workload's scenario runs in child interpreters and keeps score."""

    def __init__(self, root: str, workload, seed: int, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.workload = workload
        self.seed = seed
        self.runs = workload.runs(seed)
        self.env = child_env(self.src)
        self.child = os.path.join(HERE, "child.py")
        self.configs = []
        os.makedirs(os.path.join(work, "cfg"))
        for i, run in enumerate(self.runs):
            path = os.path.join(work, "cfg", f"{i}-{run.scenario}.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(run.config_text())
            self.configs.append(path)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, dict] = {}
        self.rounds = 0

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, self.child, *args], cwd=self.work, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def setup_once(self) -> float:
        """Fresh interpreter: import adiasim.cli and validate every config."""
        t0 = time.perf_counter()
        proc = self._child(["setup", self.src, *self.configs])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.problems.append(f"[setup] exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return elapsed

    def round(self, traced: bool) -> dict | None:
        """One scenario run per config; None when any of them failed."""
        index = self.rounds
        self.rounds += 1
        total = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "peak_rss_mb": 0.0,
                 "probe_s": [], "bytes": 0}
        sums: dict = {}
        ok = True
        for i, run in enumerate(self.runs):
            out = os.path.join("out", str(i))
            shutil.rmtree(os.path.join(self.work, out), ignore_errors=True)
            result = os.path.join(self.work, f"result-{i}.json")
            if os.path.exists(result):
                os.remove(result)
            args = ["run", self.src, self.configs[i], out, result]
            if traced:
                run_id = f"{self.workload.name}-s{self.seed}-r{index}-{run.scenario}"
                args.append(os.path.join(self.work, f"{run_id}.spans.json"))
            self.attempted += 1
            proc = self._child(args)
            payload = None
            if proc.returncode == 0 and os.path.exists(result):
                with open(result, encoding="utf-8") as handle:
                    payload = json.load(handle)
            if payload is None or payload["code"] != 0:
                self.failed += 1
                ok = False
                self.problems.append(f"[run] {run.scenario} round {index} failed: "
                                     f"{proc.stderr.strip()[-500:]}")
                continue
            out_dir = os.path.join(self.work, out)
            digest = checks.digest_dir(out_dir)
            total["bytes"] += sum(os.path.getsize(os.path.join(out_dir, name)) for name in digest)
            if i not in self.digests:
                self.digests[i] = digest
                os.replace(out_dir, os.path.join(self.work, "keep", str(i)))
            else:
                self.problems += checks.check_identical(
                    self.digests[i], digest, f"[identical] {run.scenario} round {index}")
            scale = speed_scale(statistics.fmean(payload["probe_s"]))
            total["wall_s"] += payload["wall_s"] * scale
            total["cpu_s"] += payload["cpu_s"] * scale
            total["raw_wall_s"] += payload["wall_s"]
            total["probe_s"] += payload["probe_s"]
            total["peak_rss_mb"] = max(total["peak_rss_mb"], payload["peak_rss_mb"])
            for key, value in payload.get("spans", {}).items():
                timed = key.split(":")[0] in spans.TIME_KINDS
                sums[key] = sums.get(key, 0) + (value * scale if timed else value)
        if not ok:
            return None
        total["sums"] = sums
        return total

    def verify(self) -> None:
        """References and checks, once per invocation, outside the timed loop."""
        if len(self.digests) != len(self.runs):
            self.problems.append("[run] no complete round to check")
            return
        for i, run in enumerate(self.runs):
            for case in checks.cases(run, os.path.join(self.work, "keep", str(i))):
                checks.compute_references(case)
                self.problems += checks.run_checks(case)


def speed_scale(probe_s: float) -> float:
    """Factor that turns seconds measured next to this probe time into reference seconds."""
    return (PROBE_REFERENCE_S / probe_s) ** PROBE_EXPONENT


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` (one whole round) until ``seconds`` passed and it ran ``minimum`` times."""
    start, count = time.perf_counter(), 0
    while True:
        t0 = time.perf_counter()
        step()
        count += 1
        now = time.perf_counter()
        elapsed, last = now - start, now - t0
        if count >= minimum and (elapsed >= seconds or elapsed + last > TIME_LIMIT_S):
            return


def measure(bench: Bench, seconds: float) -> dict:
    setups, rounds = [], []

    def step():
        if len(setups) < MIN_SETUPS:
            setups.append(bench.setup_once())
        rounds.append(bench.round(traced=False))

    repeat(step, seconds, MIN_ROUNDS)
    while len(setups) < MIN_SETUPS:
        setups.append(bench.setup_once())
    done = [r for r in rounds if r is not None]
    if not done:
        return {}
    probe = _median([p for r in done for p in r["probe_s"]])
    print(f"rounds: {len(rounds)} ({len(done)} complete), setups: {len(setups)}; "
          f"unscaled wall_s {_median([r['raw_wall_s'] for r in done])!r} s, "
          f"unscaled setup_s {_median(setups)!r} s, probe {probe!r} s")
    return {"wall_s": _median([r["wall_s"] for r in done]),
            "cpu_s": _median([r["cpu_s"] for r in done]),
            "setup_s": _median(setups) * speed_scale(probe),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in done])}


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Traced rounds with a plain round between each two of them."""
    plain, traced = [], []

    def step():
        if traced:
            plain.append(bench.round(traced=False))
        traced.append(bench.round(traced=True))

    repeat(step, seconds, MIN_TRACED_ROUNDS)
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    if not plain or not traced:
        return {}
    per_round = [spans.layer_metrics(r["sums"], r["bytes"]) for r in traced]
    for m in per_round[1:]:
        differ = [k for k in spans.COUNT_METRICS if m[k] != per_round[0][k]]
        if differ:
            bench.problems.append(f"[counts] traced rounds disagree on {', '.join(differ)}")
    print(f"rounds: {len(plain)} plain, {len(traced)} traced; "
          f"spans per traced round: {traced[0]['sums'].get('spans', 0)}")
    metrics = {k: (per_round[0][k] if k in spans.COUNT_METRICS
                   else _median([m[k] for m in per_round]))
               for k in spans.PER_LAYER if k != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                   - _median([r["wall_s"] for r in plain]))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adiasim", "cli.py")):
        print(f"perfbench: no adiasim sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "keep"))
    try:
        bench = Bench(root, workload, args.seed, work)
        print(f"host: cpus={os.cpu_count()} usable={blas_threads()} "
              f"blas_threads={blas_threads()} python={platform.python_version()} "
              f"numpy={np.__version__} scipy={scipy.__version__}")
        print(f"workload: {workload.name} seed={args.seed} scenario runs per round: "
              f"{', '.join(r.scenario for r in bench.runs)}")
        if args.trace:
            metrics, units = measure_traced(bench, args.seconds), spans.PER_LAYER
        else:
            metrics, units = measure(bench, args.seconds), END_TO_END
        bench.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    for problem in bench.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not bench.problems and len(metrics) == len(units)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]!r} {unit}")
    print(f"attempted={bench.attempted} failed={bench.failed} correct={correct}")
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
