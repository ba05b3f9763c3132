"""Spans around the calls into each adiasim module, recorded from outside.

``Tracer.install`` replaces the public functions of every layer module,
wherever a module of the package refers to them, with wrappers that record
a span: name, start, end and parent.  Spans stay in memory and are written
when the run ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.  The program's own files are untouched;
the wrappers live only in the traced child interpreter.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter

import numpy as np

LAYERS = ("schedule", "dynamics", "analysis", "tomography", "mitigation",
          "calibration", "scenarios", "config", "cli")
PROPAGATORS = {"propagate_unitary": "unitary", "propagate_lindblad": "lindblad",
               "propagate_custom": "custom"}
# Factories whose returned callable is a frame Hamiltonian H(t).
FRAME_FACTORIES = ("chirped_frame_hamiltonian", "constant_frame_hamiltonian")
# Private helpers traced by name: the writers of output files and the
# tracked eigensystem builder.  Missing ones are skipped.
EXTRA = {("scenarios", "_write_trace"): "scenarios.write",
         ("scenarios", "_write_text"): "scenarios.write",
         ("analysis", "_tracked_eigensystem"): "analysis.eigensystem",
         ("cli", "main"): "cli.main"}
HAMILTONIAN = "schedule.hamiltonian"
# Summary keys that hold seconds (the rest are counts).
TIME_KINDS = ("total", "self", "layer_self")


def rk4_steps(t_ad: float, dt: float, n_samples: int) -> int:
    """Documented step rule: ceil(t_ad / n_samples / dt) steps per interval."""
    return n_samples * max(1, math.ceil(t_ad / n_samples / dt - 1e-9))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.steps = 0

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        stack, ids, parents = self.stack, self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    def _wrap_propagator(self, name: str, fn):
        sig = inspect.signature(fn)
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            t_ad = a["t_ad"] if "t_ad" in a else a["schedule"].t_ad
            self.steps += rk4_steps(t_ad, a["dt"], a["n_samples"])
            return inner(*args, **kwargs)

        return counted

    def _wrap_factory(self, name: str, fn):
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap(HAMILTONIAN, inner(*args, **kwargs))

        return factory

    def install(self) -> None:
        """Wrap every layer's public functions in all adiasim modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "adiasim" or name.startswith("adiasim.")}
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"adiasim.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr in PROPAGATORS:
                    replace[id(fn)] = self._wrap_propagator(name, fn)
                elif attr in FRAME_FACTORIES:
                    replace[id(fn)] = self._wrap_factory(name, fn)
                else:
                    replace[id(fn)] = self.wrap(name, fn)
        for (layer, attr), name in EXTRA.items():
            fn = getattr(modules.get(f"adiasim.{layer}"), attr, None)
            if inspect.isfunction(fn) and id(fn) not in replace:
                replace[id(fn)] = self.wrap(name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        sched_cls = getattr(modules.get("adiasim.schedule"), "ProtocolSchedule", None)
        if sched_cls is not None:
            sched_cls.hamiltonian = self.wrap(HAMILTONIAN, sched_cls.hamiltonian)

    def summary(self) -> dict:
        """Additive per-run quantities; ``layer_metrics`` turns sums into metrics."""
        n = len(self.name_ids)
        ids = np.asarray(self.name_ids, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        layer_of = [name.split(".")[0] for name in self.names]
        out = {"spans": n, "rk4_steps": self.steps}
        for code, name in enumerate(self.names):
            mask = ids == code
            out[f"count:{name}"] = int(np.count_nonzero(mask))
            out[f"total:{name}"] = float(dur[mask].sum())
            out[f"self:{name}"] = float(self_time[mask].sum())
        for layer in LAYERS:
            out[f"layer_self:{layer}"] = float(sum(
                self_time[ids == code].sum() for code, name in enumerate(self.names)
                if layer_of[code] == layer))
        if HAMILTONIAN in self.names:
            h_mask = (ids == self.names.index(HAMILTONIAN)) & has_parent
            parent_layers = [layer_of[c] for c in ids[parents[h_mask]]]
            for layer in LAYERS:
                out[f"hamiltonian_from:{layer}"] = parent_layers.count(layer)
        return out

    def dump(self, path: str) -> None:
        """Write the run's spans, each [name index, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "spans": [[i, s, e, p] for i, s, e, p in
                                 zip(self.name_ids, self.starts, self.ends, self.parents)]},
                      handle)


PER_LAYER = {**{f"{layer}.self_s": "s" for layer in LAYERS},
             "schedule.hamiltonian_calls": "count",
             "schedule.hamiltonian_calls.dynamics": "count",
             "schedule.hamiltonian_calls.analysis": "count",
             "dynamics.unitary_s": "s", "dynamics.lindblad_s": "s", "dynamics.custom_s": "s",
             "dynamics.trajectories": "count", "dynamics.rk4_steps": "count",
             "dynamics.steps_per_s": "1/s",
             "analysis.spectral_traces": "count", "analysis.eigensystems": "count",
             "analysis.passage_fidelity_calls": "count", "analysis.crossing_reports": "count",
             "tomography.tomograms": "count", "tomography.energy_estimates": "count",
             "scenarios.write_s": "s", "scenarios.bytes_written": "bytes",
             "config.validate_s": "s", "trace.overhead_s": "s"}
COUNT_METRICS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes"))


def layer_metrics(sums: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one workload round from its summed span summaries.

    Covers every PER_LAYER metric except trace.overhead_s, which needs the
    plain rounds too.
    """
    get = lambda key: sums.get(key, 0)
    prop_s = {kind: get(f"total:dynamics.{fn}") for fn, kind in PROPAGATORS.items()}
    busy = sum(prop_s.values())
    m = {f"{layer}.self_s": get(f"layer_self:{layer}") for layer in LAYERS}
    m.update({
        "schedule.hamiltonian_calls": get(f"count:{HAMILTONIAN}"),
        "schedule.hamiltonian_calls.dynamics": get("hamiltonian_from:dynamics"),
        "schedule.hamiltonian_calls.analysis": get("hamiltonian_from:analysis"),
        "dynamics.unitary_s": prop_s["unitary"],
        "dynamics.lindblad_s": prop_s["lindblad"],
        "dynamics.custom_s": prop_s["custom"],
        "dynamics.trajectories": sum(get(f"count:dynamics.{fn}") for fn in PROPAGATORS),
        "dynamics.rk4_steps": get("rk4_steps"),
        "dynamics.steps_per_s": get("rk4_steps") / busy if busy > 0 else 0.0,
        "analysis.spectral_traces": get("count:analysis.spectral_trace"),
        "analysis.eigensystems": get("count:analysis.eigensystem"),
        "analysis.passage_fidelity_calls": get("count:analysis.passage_fidelity"),
        "analysis.crossing_reports": get("count:analysis.crossing_report"),
        "tomography.tomograms": get("count:tomography.measure_tomogram"),
        "tomography.energy_estimates": get("count:tomography.energy_from_correlators"),
        "scenarios.write_s": get("self:scenarios.write"),
        "scenarios.bytes_written": bytes_written,
        "config.validate_s": get("total:config.validate_config"),
    })
    return m
