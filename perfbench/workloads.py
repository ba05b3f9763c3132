"""Benchmark workloads: the scenario runs of each one, generated from a seed.

Every workload is a list of scenario runs.  Each run is one ``adiasim run``
of a complete config file written by the benchmark; the program receives
nothing but that text.  The seed scales every nonzero schedule field by
an independent factor drawn uniformly from [0.98, 1.02] (rounded to four
decimals), and for sampled workloads it is also the shot-sampling seed.
The amount of work (durations, step size, samples, states) does not
depend on the seed, so neither do the per-layer counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

JITTER = 0.02
SHOTS = 10000  # frames-sampled shot count per correlator

# Paper presets: the parameters of the built-in scenarios the README lists.
_FIG3 = dict(z1=2.5, z2=1.5, x1=2.0, x2=4.1, j=1.7, zz=0.2)
_FIG4 = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j=1.3, zz=0.2)
_FIG1 = dict(z1=0.0, z2=3.0, x1=0.0, x2=2.7, j=0.0, zz=0.0)
_CHEVRON = dict(z1=0.0, z2=0.0, x1=0.0, x2=0.0, j=2.0, zz=0.0)
TABLE1_NOISE = dict(t1_us=(50.0, 50.0), t2_us=(40.0, 40.0), nth=(0.01, 0.01))


@dataclass(frozen=True)
class ScenarioRun:
    """One ``adiasim run`` invocation and the inputs its checks need."""

    scenario: str
    fields: dict  # schedule fields z1, z2, x1, x2, j, zz [MHz]
    t_ad: tuple[float, ...]
    states: tuple[str, ...]
    n_samples: int = 300
    dt_us: float = 0.002
    shots: int = 0
    seed: int = 0
    noise: dict | None = None
    fmt: str = "csv"

    def config_text(self) -> str:
        pair = lambda v: ", ".join(repr(float(x)) for x in v)
        lines = ["[scenario]", f"name = {self.scenario}",
                 f"initial_states = {', '.join(self.states)}", "", "[schedule]"]
        lines += [f"{k} = {self.fields[k]!r}" for k in ("z1", "z2", "x1", "x2", "j", "zz")]
        lines += [f"t_ad = {pair(self.t_ad)}", "", "[noise]"]
        if self.noise is None:
            lines.append("enabled = false")
        else:
            lines += ["enabled = true"] + [f"{k} = {pair(self.noise[k])}"
                                           for k in ("t1_us", "t2_us", "nth")]
        lines += ["", "[simulation]", f"dt_us = {self.dt_us!r}",
                  f"n_samples = {self.n_samples}", f"shots = {self.shots}",
                  f"seed = {self.seed}", "", "[output]", "directory = out",
                  f"format = {self.fmt}"]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], list[ScenarioRun]]

    def runs(self, seed: int) -> list[ScenarioRun]:
        return self.make(seed)


def _jitter(preset: dict, rng: random.Random) -> dict:
    return {k: round(v * (1.0 + rng.uniform(-JITTER, JITTER)), 4) if v else 0.0
            for k, v in preset.items()}


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _fig4(seed: int) -> list[ScenarioRun]:
    return [ScenarioRun("fig4", _jitter(_FIG4, _rng("fig4", seed)),
                        (5.0, 10.0, 20.0, 30.0), ("01",))]


def _fig3(seed: int) -> list[ScenarioRun]:
    return [ScenarioRun("fig3", _jitter(_FIG3, _rng("fig3", seed)), (30.0,),
                        ("01", "10", "11"))]


def _table1(seed: int) -> list[ScenarioRun]:
    return [ScenarioRun("table1", _jitter(_FIG4, _rng("table1", seed)),
                        (5.0, 10.0, 20.0, 30.0), ("00", "11"), noise=TABLE1_NOISE)]


def _frames(seed: int) -> list[ScenarioRun]:
    rng = _rng("frames", seed)
    # adiasim does not validate the seed, and numpy's SeedSequence rejects
    # negative ones, so the shot seed is taken mod 2**32.
    shot_seed = seed % 2**32
    return [
        ScenarioRun("fig1", _jitter(_FIG1, rng), (10.0,), ("01",), shots=SHOTS,
                    seed=shot_seed, fmt="json"),
        ScenarioRun("chevron", _jitter(_CHEVRON, rng), (8.0,), (), n_samples=160,
                    shots=SHOTS, seed=shot_seed, fmt="json"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("fig4-durations",
             "one state, four durations of one shape: spectral analysis per duration, "
             "where a per-shape eigensystem cache shows", _fig4),
    Workload("fig3-states",
             "two shapes, three initial states at 30 us: unitary RK4 dominates, "
             "where batching across states shows", _fig3),
    Workload("table1-lindblad",
             "noisy 16x16 Lindblad path from |00> and |11> over four durations "
             "plus mitigation; unitary-only changes should not move it", _table1),
    Workload("frames-sampled",
             "fig1 and chevron: custom H(t) callables, shot sampling, frame rotation, "
             "calibration fits, JSON; bypasses schedule and analysis", _frames),
)}
