"""One fresh interpreter, as a CLI user starts it.

    child.py setup SRC CONFIG...               import adiasim.cli, validate configs
    child.py run SRC CONFIG OUT RESULT [SPANS]  one ``adiasim run``, timed after import

``run`` writes a JSON result: exit code, wall and CPU seconds of the run
(after import), the process's peak resident memory, and the time of a
fixed speed probe taken just before and just after the run.  With SPANS
(``<run id>.spans.json``) it first wraps the layers' functions (see
spans.py), and adds the span summary to the result and the spans to SPANS.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

PROBE_STEPS = 4000
_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([-1, 1])}
_P2 = {a + b: np.kron(_PAULI[a], _PAULI[b]).astype(complex)
       for a, b in ("ZI", "IZ", "XI", "IX", "XX", "YY", "ZZ")}


def _probe_h(s: float) -> np.ndarray:
    h = (1.0 - s) * 0.5 * (2.0 * _P2["ZI"] + 1.0 * _P2["IZ"])
    h = h + s * 0.5 * (1.5 * _P2["XI"] + 5.0 * _P2["IX"])
    h = h + s * 0.25 * (_P2["XX"] + _P2["YY"])
    return h + 0.05 * _P2["ZZ"]


def probe() -> float:
    """Seconds for a fixed RK4 sweep of a two-qubit Hamiltonian.

    The loop is written like the program's hot path (H(t) rebuilt from
    Pauli products at every stage, interpreter overhead around tiny numpy
    products), so its time says how fast this host runs such code at the
    moment.  It never calls adiasim.
    """
    w, dt, t_end = -2j * math.pi, 1e-3, 3.0
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    t0 = time.perf_counter()
    for k in range(PROBE_STEPS):
        s = k * dt / t_end
        h_mid = _probe_h(s + 0.5 * dt / t_end)
        k1 = w * (_probe_h(s) @ psi)
        k2 = w * (h_mid @ (psi + 0.5 * dt * k1))
        k3 = w * (h_mid @ (psi + 0.5 * dt * k2))
        k4 = w * (_probe_h(s + dt / t_end) @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - t0


def _import_cli(src: str):
    import adiasim.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"adiasim imported from {cli.__file__}, not from {src}")
    return cli


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup(src: str, configs: list[str]) -> int:
    cli = _import_cli(src)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["validate", path]) for path in configs]
    return max(codes)


def run(src: str, config: str, out: str, result: str, spans: str | None) -> int:
    cli = _import_cli(src)
    tracer = None
    if spans is not None:
        from spans import Tracer

        tracer = Tracer(os.path.basename(spans).removesuffix(".spans.json"))
        tracer.install()
    before = probe()
    cpu0, t0 = _cpu(), time.perf_counter()
    code = cli.main(["run", config, "--out", out])
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    payload = {"code": code, "wall_s": wall, "cpu_s": cpu, "probe_s": [before, probe()],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        payload["spans"] = tracer.summary()
        tracer.dump(spans)
    with open(result, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) >= 3:
        return setup(argv[1], argv[2:])
    if argv[:1] == ["run"] and len(argv) in (5, 6):
        return run(*argv[1:5], argv[5] if len(argv) == 6 else None)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
