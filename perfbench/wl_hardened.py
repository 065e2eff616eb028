"""hardened-calls: one caller on the direct runtime API of a degraded,
hardened stack.

Every call is ``acc_plan`` -> ``acc_execute(functional=False)`` ->
``acc_destroy`` on a stack with one dead tile, one failed mesh link,
seeded latent cell upsets drained by a patrol scrubber, a tight
thermal envelope and the schedule cache armed. Each call's operation
and data-set scale are drawn from the seed: every (operation, scale
band) cell appears the same number of times in a shuffled order, with
the scale drawn log-uniformly inside its band, so every descriptor is
distinct and the cache never hits.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core import MealibSystem, ParamStore
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.thermal import AMBIENT_K, ThermalConfig

IMPORTS = ("repro.core", "repro.eval.workloads", "repro.faults",
           "repro.thermal")

OPS = ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP")
SCALE_BANDS = ((0.002, 0.004), (0.004, 0.008), (0.008, 0.016))
CALLS_PER_CELL = 4
DEAD_TILE = 5
FAILED_LINK = (9, 10)
LATENT_FLIP_RATE = 1e-5
SCRUB_INTERVAL = 4
THERMAL_MARGIN_K = 0.5

#: The unit of ``op_p50_ms``/``op_p90_ms``: one plan/execute/destroy.
OP = "calls"

REFERENCE = Path(__file__).resolve().parent / "reference" / \
    "hardened_calls.json"


@dataclass
class State:
    seed: int
    calls: List[Tuple[str, float]]
    system: MealibSystem


@dataclass
class Outcome:
    op_ms: List[float]
    results: List[Tuple[float, float]]
    slices: List[Tuple[int, int]]
    system: MealibSystem

    @property
    def signature(self):
        return tuple(self.results)


def draw_calls(seed: int) -> List[Tuple[str, float]]:
    rng = np.random.default_rng((seed, 0x4A))
    calls = []
    for op in OPS:
        for lo, hi in SCALE_BANDS:
            for _ in range(CALLS_PER_CELL):
                scale = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                calls.append((op, scale))
    order = rng.permutation(len(calls))
    return [calls[int(i)] for i in order]


def build_system(seed: int) -> MealibSystem:
    system = MealibSystem(
        stack_bytes=64 << 20,
        faults=FaultInjector(seed=seed, latent_flip_rate=LATENT_FLIP_RATE),
        scrub=ScrubConfig(interval=SCRUB_INTERVAL),
        thermal=ThermalConfig(envelope=AMBIENT_K + THERMAL_MARGIN_K),
        schedule_cache=True)
    system.layer.mark_tile_failed(DEAD_TILE)
    system.layer.noc.fail_link(*FAILED_LINK)
    return system


def setup(seed: int, root: Path) -> State:
    return State(seed=seed, calls=draw_calls(seed),
                 system=build_system(seed))


def _plan(system: MealibSystem, op: str, scale: float):
    params = TABLE2[op].params(scale)
    streams = system.layer.accelerator(op).streams(params)
    store = ParamStore()
    store.add("w.para", params.pack())
    return system.runtime.acc_plan(
        f"PASS {{ COMP {op} w.para }}", store,
        in_size=sum(s.total_bytes for s in streams if not s.is_write),
        out_size=sum(s.total_bytes for s in streams if s.is_write))


def execute(state: State, tick=None) -> Outcome:
    clock = time.perf_counter
    system = state.system
    runtime = system.runtime
    entries = system.ledger.entries
    op_ms, results, slices = [], [], []
    for op, scale in state.calls:
        if tick:
            tick()
        n0 = len(entries)
        t0 = clock()
        plan = _plan(system, op, scale)
        result = runtime.acc_execute(plan, functional=False)
        runtime.acc_destroy(plan)
        op_ms.append((clock() - t0) * 1e3)
        results.append((result.time, result.energy))
        slices.append((n0, len(entries)))
    return Outcome(op_ms=op_ms, results=results, slices=slices,
                   system=system)


def _decomposes(outcome: Outcome) -> List[str]:
    """The per-call ledger slices partition the ledger, and every
    category's correctly rounded sum over the calls equals its sum over
    the ledger, to the bit."""
    entries = outcome.system.ledger.entries
    pos = 0
    for n0, n1 in outcome.slices:
        if n0 != pos:
            return [f"call slice [{n0}, {n1}) does not continue the "
                    f"ledger at entry {pos}"]
        pos = n1
    problems = []
    for category in sorted({e.category for e in entries}):
        for attr in ("time", "energy"):
            whole = math.fsum(getattr(e.result, attr) for e in entries
                              if e.category == category)
            parts = math.fsum(
                getattr(e.result, attr) for n0, n1 in outcome.slices
                for e in entries[n0:n1] if e.category == category)
            if whole != parts:
                problems.append(f"ledger[{category}].{attr} does not "
                                "decompose over the calls")
    return problems


def reference_sequence() -> Dict[str, object]:
    return json.loads(REFERENCE.read_text())


def check(seed: int, state: State, outcome: Outcome):
    failures = _decomposes(outcome)
    ref = reference_sequence()
    if seed == ref["seed"]:
        recorded = [tuple(r) for r in ref["results"]]
        if recorded != outcome.results:
            failures.append("per-call (time, energy) sequence differs "
                            "from the recorded reference")
    return len(outcome.results), len(failures), failures


def report(state: State, outcome: Outcome) -> Dict[str, tuple]:
    system = outcome.system
    total = system.ledger.total()
    counters = system.runtime.counters
    return {
        "model_time_s": (total.time, "s"),
        "model_energy_j": (total.energy, "J"),
        "availability": (counters.availability, "share"),
        "degraded_frac": (counters.degraded_fraction, "share"),
        "calls": (len(outcome.results), "count"),
    }


def layer_extras(outcome: Outcome) -> Dict[str, float]:
    return {}
