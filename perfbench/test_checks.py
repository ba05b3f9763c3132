"""Self-test of the benchmark's correctness checks.

    python3 -m pytest perfbench/test_checks.py

Runs each workload's scenario runs once from the source tree's ``src/``
(about a minute), then shows that every check passes on the real output
and fails on a perturbed copy of it: a flipped correlator sign, a shifted
column (eigenvalues, times, populations) or an edited report field.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, bench_run.WORK_DIR, "selftest")


@pytest.fixture(scope="module")
def cases():
    shutil.rmtree(WORK, ignore_errors=True)
    out = {}
    for name, workload in WORKLOADS.items():
        work = os.path.join(WORK, name)
        os.makedirs(os.path.join(work, "keep"))
        bench = bench_run.Bench(ROOT, workload, 0, work)
        assert bench.round(traced=False) is not None, bench.problems
        for i, run in enumerate(bench.runs):
            for case in checks.cases(run, os.path.join(work, "keep", str(i))):
                checks.compute_references(case)
                out[case.label] = case
    yield out
    shutil.rmtree(WORK, ignore_errors=True)


def _copy(case, tag: str):
    target = os.path.join(WORK, "perturbed", f"{case.label}-{tag}")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(case.directory, target)
    return replace(case, directory=target)


def _edit_column(path: str, column: str, fn) -> None:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.startswith("{"):
        payload = json.loads(text)
        k = payload["columns"].index(column)
        for row in payload["rows"]:
            row[k] = fn(row[k])
        text = json.dumps(payload) + "\n"
    else:
        lines = text.splitlines()
        head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        k = lines[head].split(",").index(column)
        for i in range(head + 1, len(lines)):
            cells = lines[i].split(",")
            cells[k] = format(fn(float(cells[k])), ".16e")
            lines[i] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def flip(file: str, column: str):
    return lambda case: _edit_column(case.path(file), column, lambda v: -v)


def shift(file: str, column: str, delta: float):
    return lambda case: _edit_column(case.path(file), column, lambda v: v + delta)


def edit(file: str, keys: tuple, fn):
    def apply(case):
        with open(case.path(file), encoding="utf-8") as handle:
            report = json.load(handle)
        node = report
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = fn(node[keys[-1]])
        with open(case.path(file), "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    return apply


F4 = "fig4_trace_tad30.csv"
T5 = "table1_trace_tad5.csv"
PERTURBATIONS = [
    ("fig4", "time_grid", shift(F4, "t_us", 1e-3)),
    ("fig4", "ranges", shift(F4, "fidelity_01", 0.5)),
    ("fig4", "eigenvalues", shift(F4, "e2_mhz", 0.05)),
    ("fig4", "energy_estimator", flip(F4, "ix_01")),
    ("fig4", "unitary_reference", flip(F4, "ix_01")),
    ("fig4", "crossing_report", edit("fig4_report.json", ("crossing", "per_t_ad", "10", "gamma"),
                                     lambda v: v * 1.01)),
    ("fig4", "crossing_report", edit("fig4_report.json",
                                     ("crossing", "per_t_ad", "30", "p_diabatic_measured_01"),
                                     lambda v: v + 0.01)),
    ("fig3a", "crossing_report", edit("fig3a_report.json", ("crossing", "min_gap_mhz"),
                                      lambda v: v * 1.001)),
    ("fig3b", "unitary_reference", flip("fig3b_trace_tad30.csv", "iy_10")),
    ("fig3b", "eigenvalues", shift("fig3b_trace_tad30.csv", "e4_mhz", -0.05)),
    ("table1", "lindblad_reference", flip(T5, "ix_11")),
    ("table1", "energy_estimator", flip("table1_trace_tad20.csv", "xx_00")),
    ("table1", "mitigation", edit("table1_report.json", ("states", "00", "extrapolated"),
                                  lambda v: v + 1e-3)),
    ("table1", "mitigation", flip("table1_trace_tad10.csv", "ix_11")),
    ("fig1", "ranges", shift("fig1_chirped_trace.json", "iz", 2.0)),
    ("fig1", "fig1_frames", flip("fig1_chirped_trace.json", "ix")),
    ("fig1", "fig1_frames", flip("fig1_constant_trace.json", "iy_rotated")),
    ("fig1", "fig1_sampled", flip("fig1_constant_trace.json", "iz")),
    ("fig1", "fig1_summary", edit("fig1_report.json", ("summary", "final_ix_chirped"),
                                  lambda v: v - 0.01)),
    ("chevron", "chevron_map", shift("chevron_map.json", "p10", 0.01)),
    ("chevron", "chevron_fits", edit("chevron_report.json", ("rabi_fit", "j_mhz"),
                                     lambda v: v * 1.01)),
    ("chevron", "chevron_fits", edit("chevron_report.json", ("coupling_fit", "b3_fit"),
                                     lambda v: v + 1e-6)),
]


def test_every_check_passes_on_real_output(cases):
    for case in cases.values():
        assert checks.run_checks(case) == [], case.label


def test_every_check_is_perturbed(cases):
    names = {name for case in cases.values() for name in checks.checks_for(case)}
    assert names <= {name for _, name, _ in PERTURBATIONS}


@pytest.mark.parametrize("label,name,perturb", PERTURBATIONS,
                         ids=[f"{label}-{name}-{i}" for i, (label, name, _) in
                              enumerate(PERTURBATIONS)])
def test_check_fails_on_perturbed_output(cases, label, name, perturb):
    case = _copy(cases[label], name)
    perturb(case)
    assert checks.checks_for(case)[name](case), f"{name} passed a perturbed {label} output"


def test_identical_fails_on_perturbed_output(cases):
    case = _copy(cases["fig4"], "identical")
    before = checks.digest_dir(case.directory)
    assert checks.check_identical(before, checks.digest_dir(cases["fig4"].directory), "x") == []
    flip(F4, "ix_01")(case)
    assert checks.check_identical(before, checks.digest_dir(case.directory), "x")


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_refuses_a_tree_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig4-durations",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
