"""Built-in scenario runs and their data files.

Every scenario writes deterministic text files into the configured output
directory: trace files (one per protocol duration) with the sampled
correlators, estimated energies, exact eigenvalues and passage fidelities,
plus a JSON report with the scenario's derived quantities (crossing
analysis, mitigation table, calibration fits, frame-rotation summary).
The files of a run are published together once all are written, so a
failed run leaves the directory as it was.

Trace files embed the effective configuration in their header, prefixed
``# cfg:`` in CSV mode or under the ``"config"`` key in JSON mode, so a
file can be traced back to — and re-run from — the exact settings that
produced it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os

import numpy as np

from ._version import __version__
from .analysis import TrackedLevels, crossing_report, level_weights, lz_probability, pauli_fidelity, tracked_levels
from .calibration import CouplingModel, chevron_map, fit_coupling, fit_dispersive, fit_rabi, oscillation_frequency
from .config import ScenarioConfig, validate_config
from .dynamics import basis_state, propagate_lindblad, propagate_unitary
from .mitigation import END_TERMS, mitigate_energy
from .operators import PAULI_LABELS_2Q, Z, embed_1q, pauli_vector
from .schedule import ProtocolSchedule, frame_rotation_angle
from .tomography import CORRELATOR_LABELS, ENERGY_TERMS, energy_terms, measure_correlators, rotate_correlators

__all__ = ["Unwritable", "NonFiniteOutput", "run_scenario", "read_trace_config",
           "CHEVRON_F_CENTER"]

# Calibration-scenario constants: swap resonance and synthetic
# amplitude-model truth used for the round-trip fits.
CHEVRON_F_CENTER = 1097.0  # MHz
CHEVRON_DETUNING_SPAN = 6.0  # MHz, scanned symmetrically around the resonance
CHEVRON_N_FREQ = 41
# The Rabi fit resolves j only above one Fourier bin, j >= 1/t_ad: at
# t_ad = 8 and 160 samples its error is 3.1 % at j*t_ad = 1 and 4.8 % at 0.8.
CHEVRON_MIN_J_T_AD = 1.0
_TRUTH_B1, _TRUTH_B3 = 2.2, 1.5
_TRUTH_C2 = (-0.09, -0.035)
_TRUTH_C4 = (-0.02, -0.008)
_IX_IY = [CORRELATOR_LABELS.index("IX"), CORRELATOR_LABELS.index("IY")]


class Unwritable(OSError):
    """Raised when an output path cannot be created or written."""


class NonFiniteOutput(ValueError):
    """Raised instead of writing a NaN or infinite value to an output file."""


def _fmt_tad(t_ad: float) -> str:
    return f"{t_ad:g}".replace(".", "p").replace("-", "m")


def _make_dirs(path: str) -> list[str]:
    """Create directory ``path`` and its missing parents; return those created, deepest first."""
    missing = []
    level = os.path.abspath(path)
    while not os.path.isdir(level):
        missing.append(level)
        level = os.path.dirname(level)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise Unwritable(f"cannot create output directory {path}: {exc}") from exc
    return missing


def _staged(path: str) -> str:
    """The hidden name under which ``path`` is written until its run succeeds."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.partial")


def _write_text(path: str, chunks) -> None:
    """Write the byte strings of ``chunks`` in turn to the staged name of
    ``path`` (see ``_Outputs``)."""
    try:
        with open(_staged(path), "wb") as handle:
            # writelines drops each chunk before it takes the next.
            handle.writelines(chunks)
    except OSError as exc:
        raise Unwritable(f"cannot write {path}: {exc}") from exc


def _json_text(path: str, payload: dict, indent: int | None = None) -> str:
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"refusing to write {path}: {exc}") from exc


def _write_json(path: str, payload: dict, indent: int | None = None) -> None:
    _write_text(path, [(_json_text(path, payload, indent) + "\n").encode()])


# Rows of a trace formatted and written at a time: the writer's memory.
_BLOCK_ROWS = 4096
# Decimal exponents E that _decimal_digits covers: 1e-99 <= |v| < 1e100.
_E_MIN, _E_MAX = -99, 99


def _power_of_ten(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi is the double nearest to it, lo the one nearest to the rest."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    den = 10**-k
    hi = 1 / den  # int true division rounds correctly
    num, hi_den = hi.as_integer_ratio()
    return hi, (hi_den - num * den) / (hi_den * den)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two halves of at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# Rows hi, lo and the two halves of hi, of 10**(16 - E) for E = _E_MIN .. _E_MAX.
_POWERS = np.array([_power_of_ten(16 - e) for e in range(_E_MIN, _E_MAX + 1)]).T
_POWERS = np.vstack([_POWERS, _split(_POWERS[0])])
# The text "0000" .. "9999" of k at index k, and "e-99" .. "e+99" of E at
# index E - _E_MIN, each as the bytes of a uint32 word.
_GROUPS = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_GROUPS = _GROUPS.astype(np.uint8).view(np.uint32)[:, 0]
_EXPONENTS = np.array([b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)]).view(np.uint32)


def _decimal_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each value's scaled magnitude y = |v| * 10**(16 - E), E = floor(log10 |v|),
    as the int64 D nearest to it plus the rest y - D, with E and where D is safe.

    y lies in [1e16, 1e17), so D has 17 digits.  y is p + tail:
    p = |v| * hi is a double above 2**53, hence an integer; Dekker's exact
    product gives its rounding error, and |v| * lo adds the rest of the
    power of ten, so tail, and with it the rest, is within 1e-14.  D is not
    safe when it is not safely inside (1e16, 1e17) (log10 off by one next to
    a power of ten, or a carry into the next power), or when E lies outside
    [_E_MIN, _E_MAX].  Zero is safe, with D = E = 0 and rest 0.  The arrays
    are built in place: a temporary as large as the values costs more than
    the arithmetic on it.
    """
    a = np.abs(values)
    with np.errstate(divide="ignore"):
        exponent = np.log10(a)
    np.floor(exponent, out=exponent)
    covered = (exponent >= _E_MIN) & (exponent <= _E_MAX)
    # A value not covered takes the placeholder 1.0, so that nothing overflows.
    uncovered = np.flatnonzero(~covered)
    a[uncovered], exponent[uncovered] = 1.0, 0.0
    exponent = exponent.astype(np.int64)
    hi, lo, hh, hl = np.take(_POWERS, exponent - _E_MIN, axis=1)
    p = a * hi
    a_hi, a_lo = _split(a)
    # tail = ((a_hi*hh - p) + a_hi*hl + a_lo*hh) + a_lo*hl + a*lo, term by term.
    tail = a_hi * hh
    tail -= p
    tail += a_hi * hl
    hh *= a_lo
    tail += hh
    hl *= a_lo
    tail += hl
    lo *= a
    tail += lo
    rounded = np.rint(tail)
    tail -= rounded
    digits = p.astype(np.int64)
    digits += rounded.astype(np.int64)
    zero = np.flatnonzero(values == 0.0)
    digits[zero], tail[zero] = 0, 0.0
    safe = (digits > 10**16) & (digits < 10**17 - 1) & covered
    safe[zero] = True
    return digits, tail, exponent, safe


def _write_texts(fields: np.ndarray, where: np.ndarray, texts: list[str]) -> None:
    """Overwrite the rows ``where`` of the (values, bytes) array ``fields`` by
    ``texts``, padded with zero bytes."""
    if texts:
        fields[where] = np.array(texts, f"S{fields.shape[1]}").view(np.uint8).reshape(len(texts), -1)


def _text(slots: np.ndarray) -> np.ndarray:
    """The bytes of ``slots`` without their zero bytes, as a uint8 array."""
    # translate scans the bytes faster than a boolean mask selects them.
    return np.frombuffer(slots.tobytes().translate(None, b"\0"), np.uint8)


def _lines(block: np.ndarray, comma: bytes, newline: bytes) -> np.ndarray:
    """The rows of a 2-D float array as uint8 bytes: each value written as
    format(v, ".16e"), followed by ``comma``, or by ``newline`` at the end of
    its row (each at most 4 bytes).

    Each value fills a slot of seven 4-byte words: "-d." and padding, four
    groups of 4 digits, "e-dd" and the separator; its zero bytes are padding.
    ``_decimal_digits`` gives the digits; format() itself writes the values
    where they are not exact: not safe, or with a rest within 1e-9 of a half
    (a tie, or too close to tell); its text, at most 24 bytes, overwrites
    the first six words.
    """
    values = block.ravel()
    digits, rest, exponent, safe = _decimal_digits(values)
    high = digits // 10**8
    lead = high // 10**8
    # The 16 digits after the lead, as two lanes of 8 and each lane as two groups of 4.
    lanes = np.empty((2, values.size), np.int32)
    np.subtract(high, lead * 10**8, out=lanes[0], casting="unsafe")
    np.subtract(digits, high * 10**8, out=lanes[1], casting="unsafe")
    quotients = lanes // 10**4
    lanes -= quotients * 10**4
    out = np.empty((values.size, 7), np.uint32)
    out[:, 0] = np.signbit(values) * ord("-") | (lead + ord("0")) << 8 | ord(".") << 16
    out[:, 1:5:2] = np.take(_GROUPS, quotients).T
    out[:, 2:5:2] = np.take(_GROUPS, lanes).T
    out[:, 5] = np.take(_EXPONENTS, exponent - _E_MIN)
    inexact = np.flatnonzero(~safe | (np.abs(rest) >= 0.5 - 1e-9))
    _write_texts(out.view(np.uint8)[:, :24], inexact, [format(v, ".16e") for v in values[inexact].tolist()])
    separators = out.reshape(block.shape + (7,))[..., 6]
    separators[:, :-1] = int.from_bytes(comma, "little")
    separators[:, -1] = int.from_bytes(newline, "little")
    return _text(out)


def _write_trace(path: str, config: ScenarioConfig, label: str, t_ad: float,
                 columns: list[str], table: np.ndarray) -> None:
    """Write the (rows, columns) array ``table`` as a CSV or JSON trace.

    Both hold each value as format(v, ".16e"): 17 significant digits, which
    read back as the same double, in a fixed layout.
    """
    if not np.isfinite(table).all():
        raise NonFiniteOutput(f"refusing to write {path}: a trace value is not finite")
    if config.format == "json":
        head = _json_text(path, {
            "format": "adiasim-trace",
            "version": __version__,
            "scenario": label,
            "t_ad_us": t_ad,
            "seed": config.seed,
            "config": config.to_text(),
            "columns": columns,
        })
        # "rows" is the last key.  Each row ends "], [", and the last row's
        # ", [" gives way to the closing "]}".
        head = f'{head[:-1]}, "rows": [['
        comma, newline, cut, end = b", ", b"], [", -3, b"]}\n"
    else:
        lines = [
            f"# adiasim-trace version={__version__}",
            f"# scenario={label} t_ad_us={t_ad!r} seed={config.seed}",
        ]
        lines.extend(f"# cfg: {cfg_line}" for cfg_line in config.to_text().splitlines())
        lines.append(",".join(columns))
        head = "\n".join(lines) + "\n"
        comma, newline, cut, end = b",", b"\n", None, b""
    # No block is held in a local: each is dropped once it is written.
    body = (_lines(table[k:k + _BLOCK_ROWS], comma, newline)[:None if k + _BLOCK_ROWS < len(table) else cut]
            for k in range(0, len(table), _BLOCK_ROWS))
    _write_text(path, itertools.chain([head.encode()], body, [end]))


def read_trace_config(path: str) -> ScenarioConfig:
    """Recover the effective configuration embedded in a trace file.

    Only the header is read, which the writer puts first: a CSV trace up to
    its column line, a JSON trace up to its last key, "rows".  A leading
    UTF-8 byte-order mark is skipped, as in ``config.read_config_text``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.read(1)
        if first == "\ufeff":
            first = handle.read(1)
        if first == "{":
            # Inside a JSON string a quote is escaped, so '"rows":' is the key.
            # Each read doubles the text, so the searches cost O(its length).
            head = first + handle.read(4095)
            while '"rows":' not in head and (more := handle.read(len(head))):
                head += more
            head = head.partition('"rows":')[0].rstrip().removesuffix(",")
            text = json.loads(head + "}")["config"]
        else:
            lines = itertools.takewhile(lambda line: line.startswith("#"),
                                        itertools.chain([first + handle.readline()], handle))
            # A blank line may have lost its trailing space: "# cfg:"[7:] is "".
            text = "\n".join(line[len("# cfg: "):].rstrip("\n") for line in lines
                              if line.startswith("# cfg:"))
    config, errors = validate_config(text)
    if config is None:
        raise ValueError(f"embedded config in {path} is invalid: {'; '.join(errors)}")
    return config


class _Outputs:
    """The files of one run, published together when the run succeeds.

    The output directory is created with its missing parents.  Each file is
    written under its staged name; ``publish`` renames every one onto its
    final name and ``discard`` removes them and the directories created, so
    a failed run leaves the file system as it was.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: list[str] = []
        self.created = _make_dirs(out_dir)

    def _path(self, name: str) -> str:
        self.paths.append(os.path.join(self.out_dir, name))
        return self.paths[-1]

    def trace(self, config: ScenarioConfig, label: str, stem: str, t_ad: float,
              columns: list[str], table: np.ndarray) -> None:
        """Write ``stem`` plus the format's extension; its header echoes ``config``."""
        ext = "json" if config.format == "json" else "csv"
        _write_trace(self._path(f"{stem}.{ext}"), config, label, t_ad, columns, table)

    def report(self, label: str, payload: dict) -> None:
        _write_json(self._path(f"{label}_report.json"),
                    {"scenario": label, "version": __version__, **payload}, indent=2)

    def publish(self) -> list[str]:
        for path in self.paths:
            try:
                os.replace(_staged(path), path)
            except OSError as exc:
                raise Unwritable(f"cannot write {path}: {exc}") from exc
        return self.paths

    def discard(self) -> None:
        for path in self.paths:
            with contextlib.suppress(OSError):  # a staged file may not exist yet
                os.remove(_staged(path))
        for directory in self.created:
            with contextlib.suppress(OSError):  # left alone if something else is in it
                os.rmdir(directory)


def _measure(config: ScenarioConfig, r: np.ndarray, *key: int) -> np.ndarray:
    """Correlator columns of a trajectory's Pauli vectors, sampled under the
    stream key (seed, *key) that no other trajectory of the run shares."""
    return measure_correlators(r, config.shots, (config.seed, *key))


def _run_durations(config: ScenarioConfig, label: str, out: _Outputs, *sweep: int) -> tuple:
    """Simulate and write one trace per duration.

    Every duration sweeps the same H(s) on the same n_samples + 1 points of
    s, so one set of tracked levels serves all, and so do the generators
    that the propagators build for the first duration and keep for the
    schedule and noise model of this run.  Returns those levels, each
    state's start level and the end record, two arrays indexed [duration,
    state]: the (6,) estimator terms of the last sample, whose sum is the
    trace's last energy, and the (4,) populations of levels 1..4 at s = 1,
    the start level's being the last passage fidelity.  Each duration's
    trajectory is dropped before the next is propagated.  The shots of
    (duration, state) are drawn under the stream key ``(seed, *sweep,
    duration, state)``: a run of two sweeps gives the second the prefix 1
    after the seed.
    """
    noise = config.noise_model()
    schedule = config.schedule()
    levels = tracked_levels(schedule, np.linspace(0.0, 1.0, config.n_samples + 1))
    energies, vectors = levels.energies, levels.vectors
    psi0 = np.array([basis_state(state) for state in config.initial_states])
    # Each state follows the tracked level it overlaps most at s = 0.
    start_levels = np.argmax(np.abs(vectors[0].conj().T @ psi0.T) ** 2, axis=0) + 1
    shape = (len(config.t_ad), len(config.initial_states))
    end_terms, end_populations = np.empty(shape + (len(ENERGY_TERMS),)), np.empty(shape + (4,))
    # Levels 1..4 at s = 1 as (16, 4) weights; a one-row read keeps a stack's bits.
    end_weights = np.hstack([level_weights(vectors[-1:], k) for k in (1, 2, 3, 4)])

    columns = ["t_us"] + [f"e{k}_mhz" for k in (1, 2, 3, 4)]
    for state in config.initial_states:
        columns.append(f"energy_{state}_mhz")
        columns.extend(f"{term.lower()}_{state}" for term in PAULI_LABELS_2Q)
        columns.append(f"fidelity_{state}")
    # One table, refilled for each duration: t, the tracked levels, then
    # each state's energy, correlators and passage fidelity.
    table = np.empty((len(energies), len(columns)))
    table[:, 1:5] = energies
    n_pauli = len(PAULI_LABELS_2Q)

    def write_trace(t_ad_index: int, t_ad: float) -> None:
        # Pure states become Pauli vectors one state at a time: no (n, k, 16) stack.
        if noise is None:
            traj = propagate_unitary(schedule, t_ad, psi0, config.dt_us, config.n_samples)
            read = pauli_vector
        else:
            traj = propagate_lindblad(schedule, t_ad, psi0, noise, config.dt_us,
                                      config.n_samples)
            read = np.asarray
        table[:, 0] = traj.times
        for state_index, level in enumerate(start_levels):
            r = read(traj.states[:, state_index])
            values = _measure(config, r, *sweep, t_ad_index, state_index)
            terms = energy_terms(values, schedule, traj.times / t_ad)
            first = 5 + state_index * (n_pauli + 2)
            table[:, first] = terms.sum(axis=1)
            table[:, first + 1:first + 1 + n_pauli] = values[:, :n_pauli]
            table[:, first + 1 + n_pauli] = pauli_fidelity(r, level_weights(vectors, level))
            end_terms[t_ad_index, state_index] = terms[-1]
            end_populations[t_ad_index, state_index] = pauli_fidelity(r[-1:], end_weights)
        out.trace(config, label, f"{label}_trace_tad{_fmt_tad(t_ad)}", t_ad, columns, table)

    for t_ad_index, t_ad in enumerate(config.t_ad):
        write_trace(t_ad_index, t_ad)
    return levels, start_levels, end_terms, end_populations


def _crossing_payload(config: ScenarioConfig, levels: TrackedLevels, start_levels: np.ndarray,
                      end_populations: np.ndarray) -> dict:
    """Crossing analysis plus per-duration LZ-vs-simulation comparison.

    The crossing analysis reads the sweep's tracked levels; the measured
    populations, sorted levels 3 (diabatic) and 2 (adiabatic) at s = 1, and
    the end fidelities are entries of its end record (``_run_durations``).
    """
    try:
        a, s_c, slope = crossing_report(config.schedule(), levels)
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    # The report's times and slopes in us are those of the first duration.
    t_ad0 = config.t_ad[0]
    payload = {
        "min_gap_mhz": a,
        "crossing_time_us": s_c * t_ad0,
        "slope_mhz_per_us": slope / t_ad0,
        "slope_times_t_ad_mhz": slope,
        "per_t_ad": {},
    }
    diabatic, adiabatic = np.argsort(levels.energies[-1])[[2, 1]]
    for i, t_ad in enumerate(config.t_ad):
        gamma, p_diabatic = lz_probability(a, slope / t_ad)
        entry = {"gamma": gamma, "p_diabatic_lz": p_diabatic}
        for j, label in enumerate(config.initial_states):
            populations = end_populations[i, j].tolist()
            entry[f"p_diabatic_measured_{label}"] = populations[diabatic]
            entry[f"p_adiabatic_measured_{label}"] = populations[adiabatic]
            entry[f"end_fidelity_{label}"] = populations[start_levels[j] - 1]
        payload["per_t_ad"][f"{t_ad:g}"] = entry
    return payload


def _run_sweep(config: ScenarioConfig, label: str, out: _Outputs, *sweep: int) -> None:
    levels, start_levels, _, end_populations = _run_durations(config, label, out, *sweep)
    out.report(label, {"crossing": _crossing_payload(config, levels, start_levels, end_populations)})


def _run_fig3(config: ScenarioConfig, label: str, out: _Outputs) -> None:
    _run_sweep(config.with_(j=0.0), "fig3a", out)
    _run_sweep(config, "fig3b", out, 1)


def _run_table1(config: ScenarioConfig, label: str, out: _Outputs) -> None:
    _, start_levels, end_terms, end_populations = _run_durations(config, label, out)

    # Exact end-of-protocol reference levels, with and without the static
    # ZZ term: both variants are reported and the one closer to the
    # extrapolated value is flagged.
    schedule = config.schedule()
    eig_with = np.linalg.eigvalsh(schedule.hamiltonian(1.0))
    eig_without = np.linalg.eigvalsh(schedule.with_(zz=0.0).hamiltonian(1.0))
    exact_levels = {
        "00": {"with_zz": float(eig_with[0]), "without_zz": float(eig_without[0])},
        "11": {"with_zz": float(eig_with[3]), "without_zz": float(eig_without[3])},
    }

    order = np.argsort(config.t_ad)
    keys = [f"{config.t_ad[k]:g}" for k in order]
    states_report = {}
    for j, state in enumerate(config.initial_states):
        measured, per_term, residuals = mitigate_energy(config.t_ad, end_terms[:, j])
        fidelities = end_populations[:, j, start_levels[j] - 1]
        extrapolated = float(per_term.sum())
        entry = {
            "measured_by_t_ad": dict(zip(keys, measured[order].tolist())),
            "shortest_t_ad_value": float(measured[order[0]]),
            "extrapolated": extrapolated,
            "per_term": dict(zip(END_TERMS, per_term.tolist())),
            "fit_residuals": dict(zip(END_TERMS, residuals.tolist())),
            "end_passage_fidelity_by_t_ad": dict(zip(keys, fidelities[order].tolist())),
            # Mixing diabatic and adiabatic runs in one extrapolation is unreliable.
            "warning": ("runs straddle the diabatic/adiabatic boundary (end passage "
                        "fidelities span 0.5); zero-time extrapolation mixes regimes"
                        if fidelities.min() < 0.5 <= fidelities.max() else None),
        }
        exact = exact_levels.get(state)
        if exact is not None:
            closer = min(exact, key=lambda k: abs(exact[k] - extrapolated))
            entry["exact"] = dict(exact, closer_to_extrapolated=closer,
                                  selected_value=exact[closer])
        states_report[state] = entry

    out.report(label, {
        "noise": {
            "enabled": config.noise_enabled,
            # An infinite T1 or T2 disables its channel; JSON writes it as null.
            "t1_us": [t if math.isfinite(t) else None for t in config.t1_us],
            "t2_us": [t if math.isfinite(t) else None for t in config.t2_us],
            "nth": list(config.nth),
        },
        "states": states_report,
    })


def _run_fig1(config: ScenarioConfig, label: str, out: _Outputs) -> None:
    z, x = config.z2, config.x2
    t_ad = config.t_ad[0]
    psi0 = basis_state(config.initial_states[0])

    # In the chirped frame the sweep is a schedule with qubit 1 idle.  The
    # constant frame turns about Z on qubit 2 by theta(t), whose rate
    # 2*pi*z*(1 - s) is the chirped frame's Z term, so its states are the
    # chirped ones times exp(+i theta IZ / 2): one phase per amplitude.
    traj = propagate_unitary(ProtocolSchedule(z1=0.0, z2=z, x1=0.0, x2=x), t_ad, psi0,
                             config.dt_us, config.n_samples)
    theta = frame_rotation_angle(z, traj.times, t_ad)
    iz = np.diag(embed_1q(Z, 2)).real
    constant = np.exp(0.5j * theta[:, None] * iz) * traj.states
    summary: dict[str, float] = {"z_mhz": z, "x_mhz": x, "t_ad_us": t_ad}
    frames = (("chirped", traj.states), ("constant", constant))
    n_pauli = len(PAULI_LABELS_2Q)
    # One table for both frames: t, the correlators, then the constant
    # frame's theta and rotated IX, IY; the chirped trace is its first columns.
    table = np.empty((len(traj.times), n_pauli + 4))
    table[:, 0] = traj.times
    table[:, n_pauli + 1] = theta
    for frame_index, (frame, states) in enumerate(frames):
        values = _measure(config, pauli_vector(states), frame_index, 0)
        columns = ["t_us"] + [term.lower() for term in PAULI_LABELS_2Q]
        table[:, 1:n_pauli + 1] = values[:, :n_pauli]
        ix_iy = raw_ix_iy = values[:, _IX_IY]
        if frame == "constant":
            columns += ["theta_rad", "ix_rotated", "iy_rotated"]
            ix_iy = rotate_correlators(values, theta)[:, _IX_IY]
            table[:, n_pauli + 2:] = ix_iy
        out.trace(config, label, f"{label}_{frame}_trace", t_ad, columns, table[:, :len(columns)])
        tag = "rotated" if frame == "constant" else frame
        summary[f"max_abs_iy_{tag}"] = float(np.max(np.abs(ix_iy[:, 1])))
        summary[f"final_ix_{tag}"] = float(ix_iy[-1, 0])
        if frame == "constant":
            summary["max_abs_iy_constant_raw"] = float(np.max(np.abs(raw_ix_iy[:, 1])))

    out.report(label, {"summary": summary})


def _unresolved_rabi(j: float, t_ad: float, n_samples: int) -> str | None:
    """Why the chevron map's Rabi fit cannot recover ``j``, or None.

    Its columns oscillate at sqrt(j^2 + delta^2), |delta| <= the detuning
    span, sampled at n_samples / t_ad: the edge columns must stay below the
    Nyquist limit, and j must be resolved against 1/t_ad.
    """
    reasons = []
    edge, nyquist = math.hypot(j, CHEVRON_DETUNING_SPAN), n_samples / (2.0 * t_ad)
    if edge >= nyquist:
        reasons.append(f"edge column frequency sqrt(j^2 + {CHEVRON_DETUNING_SPAN:g}^2) = "
                       f"{edge:.6g} MHz reaches the Nyquist limit n_samples / (2 t_ad) = "
                       f"{nyquist:.6g} MHz")
    if j * t_ad < CHEVRON_MIN_J_T_AD:
        reasons.append(f"j * t_ad = {j * t_ad:.6g} is below {CHEVRON_MIN_J_T_AD:g}: j is "
                       f"under the Fourier resolution 1/t_ad = {1.0 / t_ad:.6g} MHz")
    return "; ".join(reasons) or None


# An extreme j or t_ad overflows; the writers refuse what is not finite.
@np.errstate(over="ignore", invalid="ignore")
def _run_chevron(config: ScenarioConfig, label: str, out: _Outputs) -> None:
    j_true = config.j
    t_ad = config.t_ad[0]
    cmap = chevron_map(
        j_true,
        (-CHEVRON_DETUNING_SPAN, CHEVRON_DETUNING_SPAN),
        (0.0, t_ad),
        (CHEVRON_N_FREQ, config.n_samples + 1),
        f_center=CHEVRON_F_CENTER,
    )
    columns = ["f_tc_mhz", "t_us", "p10"]
    # One row per (frequency, time), frequency-major.
    table = np.empty(cmap.populations.shape + (len(columns),))
    table[..., 0] = cmap.f_tc[:, None]
    table[..., 1] = cmap.times
    table[..., 2] = cmap.populations
    out.trace(config, label, f"{label}_map", t_ad, columns, table.reshape(-1, len(columns)))

    omegas = list(zip(cmap.f_tc.tolist(), oscillation_frequency(cmap.times, cmap.populations).tolist()))
    j_fit, f_res_fit, residual = fit_rabi(omegas)

    amps = np.linspace(0.0, 1.0, 11)
    truth = CouplingModel(_TRUTH_B1, _TRUTH_B3, _TRUTH_C2, _TRUTH_C4)
    j_data = [truth.coupling(a) for a in amps]
    b1_fit, b3_fit, j_res = fit_coupling(amps, j_data)
    shift_data_q1 = [truth.dispersive_shift(a, 1) for a in amps]
    c2_fit, c4_fit, shift_res = fit_dispersive(amps, shift_data_q1)

    rabi_fit = {
        "j_mhz": j_fit,
        "f_res_mhz": f_res_fit,
        "residual": residual,
        "j_error_relative": abs(j_fit - j_true) / j_true,
        "f_res_error_mhz": abs(f_res_fit - CHEVRON_F_CENTER),
    }
    # Exit 0 stays, with the reason the fitted j is not to be trusted.
    if unresolved := _unresolved_rabi(j_true, t_ad, config.n_samples):
        rabi_fit["unresolved"] = unresolved

    out.report(label, {
        "map": {
            "j_true_mhz": j_true,
            "f_center_mhz": CHEVRON_F_CENTER,
            "detuning_span_mhz": CHEVRON_DETUNING_SPAN,
            "n_frequencies": CHEVRON_N_FREQ,
            "n_times": config.n_samples + 1,
        },
        "rabi_fit": rabi_fit,
        "column_frequencies": [{"f_tc_mhz": f, "omega_mhz": w} for f, w in omegas],
        "coupling_fit": {
            "b1_true": _TRUTH_B1, "b3_true": _TRUTH_B3,
            "b1_fit": b1_fit, "b3_fit": b3_fit, "residual": j_res,
        },
        "dispersive_fit_q1": {
            "c2_true": _TRUTH_C2[0], "c4_true": _TRUTH_C4[0],
            "c2_fit": c2_fit, "c4_fit": c4_fit, "residual": shift_res,
        },
        "resonance_shift_at_full_amplitude_mhz": truth.resonance_shift(1.0),
    })


# The runner of each scenario, called with its config, its name and the outputs.
_RUNNERS = {"fig1": _run_fig1, "chevron": _run_chevron, "table1": _run_table1, "fig3": _run_fig3,
            "fig3a": _run_sweep, "fig3b": _run_sweep, "fig4": _run_sweep, "custom": _run_sweep}


def run_scenario(config: ScenarioConfig) -> list[str]:
    """Execute a scenario; return the list of written file paths.

    A run that fails leaves the output directory as it was, and creates none.
    """
    runner = _RUNNERS.get(config.name)
    if runner is None:
        raise ValueError(f"unknown scenario {config.name!r}")
    out = _Outputs(config.out_dir)
    try:
        runner(config, config.name, out)
        return out.publish()
    except BaseException:
        out.discard()
        raise
