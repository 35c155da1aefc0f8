"""Per-layer spans around gmsforge's public functions, installed from outside.

``install`` replaces each traced function by a wrapper, in its own module
and in every gmsforge module that bound it with ``from ... import`` (cli and
fourier look ``unitary_of`` up in their own namespace, so wrapping it in
``sim`` alone would miss those calls).  Kernels, ``Gate.pair_angles`` and
``parity_phase_gates`` run thousands of times per op: they are leaves whose
calls and time are added up in memory rather than kept as one span each.
Gate constructors and ``Circuit`` methods are not wrapped, so their time
counts toward the layer that calls them.

A layer's self time is its spans' durations minus the time of the traced
calls made inside them.  Only calls made while ``Tracer.active`` is set
are recorded; the benchmark sets it around each timed op.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

KERNELS = ("apply_1q", "apply_xx", "apply_cnot", "apply_cp", "apply_scale")
SIM = ("apply", "unitary_of", "equiv_on_ancilla", "equiv_phase")
REFERENCES = ("controlled_z_reference", "toffoli_reference", "parity_phase_gates")
REWRITES = ("gms_shrink", "spin_echo_cancel", "cancel_inverse_gms")
CANCELLING = ("spin_echo_cancel", "cancel_inverse_gms")
FOURIER_SYNTH = ("qft_reference", "qft_reference_unitary", "qft_gms", "qfa_gms")
OPTIMIZER = ("optimize_powerlaw", "scan_axis", "fidelity_formula")
LEAVES = ("parity_phase_gates", "fidelity_formula")

# Metric name -> unit, in the order they are reported.
METRICS = {
    **{f"kernels.{k}.{m}": u for k in KERNELS
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "kernels.bytes_computed": "bytes",
    "sim.apply.self_s": "s",
    "sim.unitary_of.calls": "count",
    "sim.unitary_of.self_s": "s",
    "sim.equiv_on_ancilla.self_s": "s",
    "sim.equiv_phase.self_s": "s",
    "sim.peak_alloc_mib": "MiB",
    "constructions.controlled_z_reference.calls": "count",
    "constructions.reference_gates": "count",
    "constructions.reference.self_s": "s",
    "constructions.synth.self_s": "s",
    **{f"rewrites.{r}.self_s": "s" for r in REWRITES},
    "rewrites.pulses_in": "count",
    "rewrites.pulses_out": "count",
    "fourier.synth.self_s": "s",
    "fourier.optimize_powerlaw.self_s": "s",
    "fourier.optimize_powerlaw.evaluations": "count",
    "circuit.deserialize.self_s": "s",
    "circuit.pair_angles.calls": "count",
    "circuit.pair_angles.self_s": "s",
    "cli.self_s": "s",
}
PEAKS = ("sim.peak_alloc_mib",)


def _pulses(circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind == "GMS")


class Tracer:
    """Spans and counters of one process; written out by ``dump``."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.stack: list[list] = []      # open spans: [child seconds, span id]
        self.spans: list[tuple] = []     # (id, parent, op, name, start, end)
        self.next_id = 0
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name: str, layer: str, leaf: bool = False, on_exit=None):
        """``name`` keys the call count, ``layer`` the self time.  ``on_exit``
        gets (args, result, outermost) where outermost means no call of the
        same layer is open."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost = tracer.depth[layer] == 0
            owns_malloc = layer.startswith("sim.") and not tracemalloc.is_tracing()
            if owns_malloc:
                tracemalloc.start()
            parent = tracer.stack[-1][1] if tracer.stack else None
            span_id = None if leaf else tracer.next_id
            tracer.next_id += not leaf
            frame = [0.0, span_id]
            tracer.stack.append(frame)
            tracer.depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.depth[layer] -= 1
                tracer.stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame[0]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][0] += dur
                if not leaf:
                    tracer.spans.append((span_id, parent, tracer.op, name, start, end))
                if owns_malloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.totals["sim.peak_alloc_mib"] = max(
                        tracer.totals["sim.peak_alloc_mib"], peak)
            if on_exit is not None:
                on_exit(args, result, outermost)
            return result

        return traced

    def add(self, key: str, amount: float) -> None:
        self.totals[key] += amount

    def per_op(self, ops: int) -> dict[str, dict]:
        """Every metric of METRICS, divided by the timed ops except peaks."""
        values = {
            **{f"{k}.calls": v for k, v in self.calls.items()},
            **{f"{k}.self_s": v for k, v in self.self_s.items()},
            **self.totals,
        }
        return {m: {"value": values.get(m, 0) / (1 if m in PEAKS else ops),
                    "unit": unit}
                for m, unit in METRICS.items()}

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span_id, parent, op, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                    "name": name, "start": start, "end": end}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every gmsforge layer."""
    from gmsforge import circuit, cli, constructions, fourier, sim

    backend = sim.BACKEND

    def count_bytes(args, result, outermost):
        tracer.add("kernels.bytes_computed", args[0].nbytes)

    for k in KERNELS:
        wrapped = tracer.wrap(getattr(backend, k), f"kernels.{k}", f"kernels.{k}",
                              leaf=True, on_exit=count_bytes)
        setattr(backend, k, staticmethod(wrapped))
    circuit.Gate.pair_angles = tracer.wrap(
        circuit.Gate.pair_angles, "circuit.pair_angles", "circuit.pair_angles",
        leaf=True)

    def reference_gates(args, result, outermost):
        if outermost:
            tracer.add("constructions.reference_gates", len(result.gates))

    def pulses(args, result, outermost):
        tracer.add("rewrites.pulses_in", _pulses(args[0]))
        tracer.add("rewrites.pulses_out", _pulses(result))

    def evaluations(args, result, outermost):
        tracer.add("fourier.optimize_powerlaw.evaluations", result.evaluations)

    plan = {}  # function -> (name, layer, on_exit)
    for name in SIM:
        plan[getattr(sim, name)] = (f"sim.{name}", f"sim.{name}", None)
    for name in ("serialize", "deserialize"):
        plan[getattr(circuit, name)] = (f"circuit.{name}", f"circuit.{name}", None)
    for name, fn in _public_functions(constructions):
        if name in REFERENCES:
            hook = None if name == "parity_phase_gates" else reference_gates
            plan[fn] = (f"constructions.{name}", "constructions.reference", hook)
        elif name in REWRITES:
            plan[fn] = (f"rewrites.{name}", f"rewrites.{name}",
                        pulses if name in CANCELLING else None)
        else:
            plan[fn] = (f"constructions.{name}", "constructions.synth", None)
    for name, fn in _public_functions(fourier):
        if name in FOURIER_SYNTH:
            plan[fn] = (f"fourier.{name}", "fourier.synth", None)
        elif name in OPTIMIZER:
            plan[fn] = (f"fourier.{name}", "fourier.optimize_powerlaw",
                        evaluations if name == "optimize_powerlaw" else None)
        else:
            plan[fn] = (f"fourier.{name}", "fourier.other", None)
    for name, fn in _public_functions(cli):
        plan[fn] = (f"cli.{name}", "cli", None)

    modules = [m for n, m in sys.modules.items()
               if n == "gmsforge" or n.startswith("gmsforge.")]
    for fn, (name, layer, hook) in plan.items():
        wrapped = tracer.wrap(fn, name, layer, leaf=fn.__name__ in LEAVES,
                              on_exit=hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__]
