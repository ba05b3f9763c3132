"""Correctness checks of a workload's output files.

Each check reads the files a scenario run wrote and compares them with the
references of references.py, or with a property the method must satisfy.
A check returns a list of problems; an empty list means it passed.  Nothing
is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import references as ref
from workloads import ScenarioRun

REF_TOL = 1e-4      # RK4 at dt = 2 ns against DOP853: about 2e-6 measured at 30 us
EXACT_TOL = 1e-9    # quantities the program computes in closed form
SLOPE_RTOL = 2e-3   # window fit of the bare slope on the program's grid
RANGE_SLACK = 1e-9
HOEFFDING_DELTA = 1e-12  # false-alarm probability of one sampled-value test


@dataclass
class Case:
    """The outputs of one scenario label, with the inputs that made them."""

    label: str
    run: ScenarioRun
    params: dict
    directory: str
    refs: dict = field(default_factory=dict)

    @property
    def ext(self) -> str:
        return self.run.fmt

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def trace(self, t_ad: float) -> dict[str, np.ndarray]:
        return read_trace(self.path(f"{self.label}_trace_tad{tad_tag(t_ad)}.{self.ext}"))

    def report(self) -> dict:
        with open(self.path(f"{self.label}_report.json"), encoding="utf-8") as handle:
            return json.load(handle)


def tad_tag(t_ad: float) -> str:
    return f"{t_ad:g}".replace(".", "p").replace("-", "m")


def read_trace(path: str) -> dict[str, np.ndarray]:
    """Columns of a CSV or JSON trace file as float arrays."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.startswith("{"):
        payload = json.loads(text)
        columns, rows = payload["columns"], payload["rows"]
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        columns = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    return {name: data[:, i] for i, name in enumerate(columns)}


def digest_dir(directory: str) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, directory)] = hashlib.sha256(handle.read()).hexdigest()
    return out


def check_identical(first: dict[str, str], other: dict[str, str], what: str) -> list[str]:
    """Outputs are byte-identical between runs, as the README promises."""
    if first == other:
        return []
    differ = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
    return [f"{what}: outputs differ from the first run in {', '.join(differ)}"]


def hoeffding(shots: int, terms: float = 1.0) -> float:
    """Deviation a mean of ``shots`` +-1 outcomes exceeds with prob. <= delta.

    ``terms`` is the sum of squared weights when several independent means
    are combined linearly (rotated minus chirped: cos^2 + sin^2 + 1 = 2).
    """
    return math.sqrt(2.0 * terms * math.log(2.0 / HOEFFDING_DELTA) / shots)


def _cmp(problems: list[str], what: str, got, want, tol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    err = np.abs(got - want)
    bad = ~(err <= tol)
    if np.any(bad):
        i = int(np.argmax(np.where(bad, err, -1.0)))
        problems.append(f"{what}: {int(bad.sum())} value(s) off by more than {tol:.1e}; "
                        f"worst {got.flat[i]!r} vs {want.flat[i]!r}")


# ----------------------------------------------------------------- sweeps

def _corr(trace: dict, state: str) -> dict[str, np.ndarray]:
    return {lab: trace[f"{lab.lower()}_{state}"] for lab in ref.CORRELATORS}


def check_time_grid(case: Case) -> list[str]:
    problems: list[str] = []
    for t_ad in case.run.t_ad:
        _cmp(problems, f"{case.label} t_ad={t_ad:g} t_us", case.trace(t_ad)["t_us"],
             ref.sample_times(t_ad, case.run.n_samples), EXACT_TOL * t_ad)
    return problems


def check_ranges(case: Case) -> list[str]:
    """Every correlator lies in [-1, 1] and every fidelity in [0, 1]."""
    problems = []
    names = ([f"fig1_{frame}_trace.{case.ext}" for frame in ("chirped", "constant")]
             if case.label == "fig1" else
             [f"{case.label}_trace_tad{tad_tag(t)}.{case.ext}" for t in case.run.t_ad])
    corr = {lab.lower() for lab in ref.CORRELATORS}
    corr |= {f"{lab}_{st}" for lab in corr for st in case.run.states}
    for name in names:
        for col, values in read_trace(case.path(name)).items():
            if col.startswith("fidelity_"):
                lo, hi = 0.0, 1.0
            elif col in corr:
                lo, hi = -1.0, 1.0
            else:
                continue
            if np.any(values < lo - RANGE_SLACK) or np.any(values > hi + RANGE_SLACK):
                problems.append(f"{name} {col}: values outside [{lo}, {hi}] "
                                f"(min {values.min()!r}, max {values.max()!r})")
    return problems


def check_eigenvalues(case: Case) -> list[str]:
    """e1..e4 are, as a set, the eigenvalues of H(t) at every sample time."""
    problems: list[str] = []
    for t_ad in case.run.t_ad:
        tr = case.trace(t_ad)
        levels = np.sort(np.stack([tr[f"e{k}_mhz"] for k in (1, 2, 3, 4)], axis=1), axis=1)
        want = ref.sorted_levels(case.params, t_ad, ref.sample_times(t_ad, case.run.n_samples))
        _cmp(problems, f"{case.label} t_ad={t_ad:g} eigenvalues", levels, want, EXACT_TOL)
    return problems


def end_contributions(p: dict, c: dict) -> dict[str, np.ndarray]:
    """The estimator's transverse and coupling terms at s = 1."""
    return {"x1": 0.5 * p["x1"] * c["XI"], "x2": 0.5 * p["x2"] * c["IX"],
            "xx": 0.25 * p["j"] * c["XX"], "yy": 0.25 * p["j"] * c["YY"]}


def six_term_energy(p: dict, s: np.ndarray, c: dict) -> np.ndarray:
    """E = (1-s)(z1<ZI> + z2<IZ>)/2 + s(x1<XI> + x2<IX>)/2 + s j(<XX> + <YY>)/4."""
    return ((1 - s) * 0.5 * (p["z1"] * c["ZI"] + p["z2"] * c["IZ"])
            + s * 0.5 * (p["x1"] * c["XI"] + p["x2"] * c["IX"])
            + s * p["j"] * 0.25 * (c["XX"] + c["YY"]))


def check_energy_estimator(case: Case) -> list[str]:
    problems: list[str] = []
    for t_ad in case.run.t_ad:
        tr = case.trace(t_ad)
        for st in case.run.states:
            _cmp(problems, f"{case.label} t_ad={t_ad:g} energy_{st}", tr[f"energy_{st}_mhz"],
                 six_term_energy(case.params, tr["t_us"] / t_ad, _corr(tr, st)), EXACT_TOL)
    return problems


def check_unitary_reference(case: Case) -> list[str]:
    """Correlators at every sample time against a DOP853 solve."""
    problems: list[str] = []
    for t_ad in case.run.t_ad:
        tr = case.trace(t_ad)
        for st, states in case.refs["unitary"][t_ad].items():
            want = ref.correlators(states)
            for lab, got in _corr(tr, st).items():
                _cmp(problems, f"{case.label} t_ad={t_ad:g} <{lab}>_{st}", got, want[lab], REF_TOL)
    return problems


def check_lindblad_reference(case: Case) -> list[str]:
    """Shortest duration: correlators against a DOP853 Lindblad solve."""
    problems: list[str] = []
    t_ad = min(case.run.t_ad)
    tr = case.trace(t_ad)
    for st, rhos in case.refs["lindblad"].items():
        want = ref.correlators(rhos)
        for lab, got in _corr(tr, st).items():
            _cmp(problems, f"{case.label} t_ad={t_ad:g} <{lab}>_{st}", got, want[lab], REF_TOL)
    return problems


def check_crossing_report(case: Case) -> list[str]:
    """Gap, crossing time and slope against the reference; LZ fields recomputed."""
    problems: list[str] = []
    crossing = case.report().get("crossing", {})
    try:
        a, t_c = crossing["min_gap_mhz"], crossing["crossing_time_us"]
        slope, per_t = crossing["slope_mhz_per_us"], crossing["per_t_ad"]
        slope_t = crossing["slope_times_t_ad_mhz"]
    except KeyError as exc:
        return [f"{case.label} report: crossing field {exc} missing ({crossing.get('error')})"]
    t0 = case.run.t_ad[0]
    a_ref, tc_ref = case.refs["gap"]
    _cmp(problems, f"{case.label} min_gap_mhz", a, a_ref, 1e-7)
    _cmp(problems, f"{case.label} crossing_time_us", t_c, tc_ref, 1e-6 * t0)
    _cmp(problems, f"{case.label} slope_mhz_per_us", slope,
         ref.bare_slope(case.params, t0, tc_ref), SLOPE_RTOL * abs(slope))
    _cmp(problems, f"{case.label} slope_times_t_ad_mhz", slope_t, slope * t0, EXACT_TOL * abs(slope_t))
    if sorted(per_t) != sorted(f"{t:g}" for t in case.run.t_ad):
        problems.append(f"{case.label} per_t_ad keys {sorted(per_t)}")
        return problems
    for t_ad in case.run.t_ad:
        entry = per_t[f"{t_ad:g}"]
        gamma, p_lz = ref.lz(a, slope * t0 / t_ad)
        _cmp(problems, f"{case.label} t_ad={t_ad:g} gamma", entry["gamma"], gamma, EXACT_TOL * gamma)
        _cmp(problems, f"{case.label} t_ad={t_ad:g} p_diabatic_lz", entry["p_diabatic_lz"], p_lz,
             EXACT_TOL)
        fid = case.trace(t_ad)
        for st, states in case.refs["unitary"][t_ad].items():
            pops = ref.end_populations(case.params, t_ad, states[-1])
            _cmp(problems, f"{case.label} t_ad={t_ad:g} p_diabatic_measured_{st}",
                 entry[f"p_diabatic_measured_{st}"], pops[2], REF_TOL)
            _cmp(problems, f"{case.label} t_ad={t_ad:g} p_adiabatic_measured_{st}",
                 entry[f"p_adiabatic_measured_{st}"], pops[1], REF_TOL)
            _cmp(problems, f"{case.label} t_ad={t_ad:g} end_fidelity_{st}",
                 entry[f"end_fidelity_{st}"], fid[f"fidelity_{st}"][-1], EXACT_TOL)
    return problems


def check_mitigation(case: Case) -> list[str]:
    """table1: zero-duration extrapolation redone with numpy.polyfit (degree 2)."""
    problems: list[str] = []
    report = case.report()["states"]
    t_ads = np.array(case.run.t_ad)
    ends = {t: case.trace(t) for t in case.run.t_ad}
    h_end = ref.sweep_hamiltonian(case.params, 1.0, 1.0)
    h_end_nozz = ref.sweep_hamiltonian(dict(case.params, zz=0.0), 1.0, 1.0)
    levels = {"with_zz": np.linalg.eigvalsh(h_end), "without_zz": np.linalg.eigvalsh(h_end_nozz)}
    for st in case.run.states:
        entry = report[st]
        terms = {t: end_contributions(case.params, {k: v[-1] for k, v in _corr(tr, st).items()})
                 for t, tr in ends.items()}
        measured = {f"{t:g}": sum(terms[t].values()) for t in case.run.t_ad}
        for key, value in measured.items():
            _cmp(problems, f"table1 {st} measured_by_t_ad[{key}]",
                 entry["measured_by_t_ad"].get(key, math.nan), value, EXACT_TOL)
        _cmp(problems, f"table1 {st} shortest_t_ad_value", entry["shortest_t_ad_value"],
             measured[f"{min(case.run.t_ad):g}"], EXACT_TOL)
        per_term = {}
        for term in ("x1", "x2", "xx", "yy"):
            values = np.array([terms[t][term] for t in case.run.t_ad])
            per_term[term] = float(np.polyval(np.polyfit(t_ads, values, 2), 0.0))
            _cmp(problems, f"table1 {st} per_term[{term}]", entry["per_term"].get(term, math.nan),
                 per_term[term], 1e-8)
        _cmp(problems, f"table1 {st} extrapolated", entry["extrapolated"],
             sum(per_term.values()), 1e-8)
        for t, tr in ends.items():
            _cmp(problems, f"table1 {st} end_passage_fidelity[{t:g}]",
                 entry["end_passage_fidelity_by_t_ad"].get(f"{t:g}", math.nan),
                 tr[f"fidelity_{st}"][-1], EXACT_TOL)
        index = {"00": 0, "11": 3}.get(st)
        if index is not None:
            for key, lv in levels.items():
                _cmp(problems, f"table1 {st} exact[{key}]", entry["exact"][key], lv[index],
                     EXACT_TOL)
    return problems


# ----------------------------------------------------------------- frames

def _fig1(case: Case) -> tuple[dict, dict]:
    return (read_trace(case.path(f"fig1_chirped_trace.{case.ext}")),
            read_trace(case.path(f"fig1_constant_trace.{case.ext}")))


def check_fig1_frames(case: Case) -> list[str]:
    """The constant-frame ix/iy rotated by theta(t) match the chirped frame."""
    problems: list[str] = []
    chirped, constant = _fig1(case)
    z, t_ad = case.params["z2"], case.run.t_ad[0]
    theta = ref.frame_angle(z, constant["t_us"], t_ad)
    _cmp(problems, "fig1 theta_rad", constant["theta_rad"], theta, EXACT_TOL)
    c, s = np.cos(theta), np.sin(theta)
    _cmp(problems, "fig1 ix_rotated", constant["ix_rotated"],
         c * constant["ix"] + s * constant["iy"], EXACT_TOL)
    _cmp(problems, "fig1 iy_rotated", constant["iy_rotated"],
         -s * constant["ix"] + c * constant["iy"], EXACT_TOL)
    tol = hoeffding(case.run.shots, 2.0) if case.run.shots else 1e-6
    _cmp(problems, "fig1 rotated ix vs chirped ix", constant["ix_rotated"], chirped["ix"], tol)
    _cmp(problems, "fig1 rotated iy vs chirped iy", constant["iy_rotated"], chirped["iy"], tol)
    return problems


def check_fig1_sampled(case: Case) -> list[str]:
    """Each correlator within a binomial (Hoeffding) bound of its exact value."""
    problems: list[str] = []
    tol = hoeffding(case.run.shots) if case.run.shots else REF_TOL
    for frame, tr in zip(("chirped", "constant"), _fig1(case)):
        want = ref.correlators(case.refs["frames"][frame])
        for lab in ref.CORRELATORS:
            _cmp(problems, f"fig1 {frame} <{lab}>", tr[lab.lower()], want[lab], tol)
    return problems


def check_fig1_summary(case: Case) -> list[str]:
    problems: list[str] = []
    summary = case.report()["summary"]
    chirped, constant = _fig1(case)
    want = {"z_mhz": case.params["z2"], "x_mhz": case.params["x2"], "t_ad_us": case.run.t_ad[0],
            "max_abs_iy_chirped": np.abs(chirped["iy"]).max(),
            "final_ix_chirped": chirped["ix"][-1],
            "max_abs_iy_rotated": np.abs(constant["iy_rotated"]).max(),
            "final_ix_rotated": constant["ix_rotated"][-1],
            "max_abs_iy_constant_raw": np.abs(constant["iy"]).max()}
    for key, value in want.items():
        _cmp(problems, f"fig1 summary {key}", summary.get(key, math.nan), value, EXACT_TOL)
    return problems


def check_chevron_map(case: Case) -> list[str]:
    """p10 on the map grid against the generalized Rabi formula."""
    problems: list[str] = []
    info = case.report()["map"]
    data = read_trace(case.path(f"chevron_map.{case.ext}"))
    j, f0 = case.params["j"], info["f_center_mhz"]
    _cmp(problems, "chevron j_true_mhz", info["j_true_mhz"], j, 0.0)
    f_axis = f0 + np.linspace(-info["detuning_span_mhz"], info["detuning_span_mhz"],
                              info["n_frequencies"])
    t_axis = ref.sample_times(case.run.t_ad[0], case.run.n_samples)
    f_grid, t_grid = (g.ravel() for g in np.meshgrid(f_axis, t_axis, indexing="ij"))
    _cmp(problems, "chevron f_tc_mhz", data["f_tc_mhz"], f_grid, EXACT_TOL * f0)
    _cmp(problems, "chevron t_us", data["t_us"], t_grid, EXACT_TOL)
    _cmp(problems, "chevron p10", data["p10"], ref.rabi_population(j, f_grid - f0, t_grid),
         EXACT_TOL)
    return problems


def check_chevron_fits(case: Case) -> list[str]:
    """The fits recover the synthetic truth the map and amplitude data came from."""
    problems: list[str] = []
    report = case.report()
    j, f0 = case.params["j"], report["map"]["f_center_mhz"]
    rabi = report["rabi_fit"]
    _cmp(problems, "chevron j_mhz", rabi["j_mhz"], j, 5e-3 * j)
    _cmp(problems, "chevron f_res_mhz", rabi["f_res_mhz"], f0, 1e-2)
    _cmp(problems, "chevron j_error_relative", rabi["j_error_relative"],
         abs(rabi["j_mhz"] - j) / j, EXACT_TOL)
    _cmp(problems, "chevron f_res_error_mhz", rabi["f_res_error_mhz"],
         abs(rabi["f_res_mhz"] - f0), EXACT_TOL)
    for col in report["column_frequencies"]:
        omega = math.hypot(j, col["f_tc_mhz"] - f0)
        _cmp(problems, f"chevron omega at {col['f_tc_mhz']:.3f} MHz", col["omega_mhz"], omega,
             1e-2 * omega)
    for block, names in (("coupling_fit", ("b1", "b3")), ("dispersive_fit_q1", ("c2", "c4"))):
        for name in names:
            _cmp(problems, f"chevron {block} {name}", report[block][f"{name}_fit"],
                 report[block][f"{name}_true"], EXACT_TOL)
    return problems


SWEEP_CHECKS = {"time_grid": check_time_grid, "ranges": check_ranges,
                "eigenvalues": check_eigenvalues, "energy_estimator": check_energy_estimator}
UNITARY_CHECKS = {"unitary_reference": check_unitary_reference,
                  "crossing_report": check_crossing_report}
NOISY_CHECKS = {"lindblad_reference": check_lindblad_reference, "mitigation": check_mitigation}
FIG1_CHECKS = {"ranges": check_ranges, "fig1_frames": check_fig1_frames,
               "fig1_sampled": check_fig1_sampled, "fig1_summary": check_fig1_summary}
CHEVRON_CHECKS = {"chevron_map": check_chevron_map, "chevron_fits": check_chevron_fits}


def cases(run: ScenarioRun, directory: str) -> list[Case]:
    """The labels a scenario run writes, each with its schedule parameters."""
    if run.scenario == "fig3":
        return [Case("fig3a", run, dict(run.fields, j=0.0), directory),
                Case("fig3b", run, dict(run.fields), directory)]
    return [Case(run.scenario, run, dict(run.fields), directory)]


def checks_for(case: Case) -> dict:
    if case.label == "fig1":
        return FIG1_CHECKS
    if case.label == "chevron":
        return CHEVRON_CHECKS
    return {**SWEEP_CHECKS, **(NOISY_CHECKS if case.run.noise else UNITARY_CHECKS)}


def compute_references(case: Case) -> None:
    """Fill ``case.refs``: every independent solve its checks need."""
    run, p = case.run, case.params
    if case.label == "fig1":
        case.refs["frames"] = ref.solve_frames(p["z2"], p["x2"], run.t_ad[0], run.n_samples,
                                               run.states[0])
    elif case.label == "chevron":
        return
    elif run.noise:
        case.refs["lindblad"] = ref.solve_lindblad(p, min(run.t_ad), run.states,
                                                   run.n_samples, run.noise)
    else:
        case.refs["unitary"] = {t: ref.solve_sweep(p, t, run.states, run.n_samples)
                                for t in run.t_ad}
        case.refs["gap"] = ref.minimum_gap(p, run.t_ad[0])


def run_checks(case: Case) -> list[str]:
    problems = []
    for name, check in checks_for(case).items():
        try:
            problems += [f"[{name}] {msg}" for msg in check(case)]
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"[{name}] {case.label}: unreadable output ({type(exc).__name__}: {exc})")
    return problems
