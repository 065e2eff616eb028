"""serving-sweep: the multi-tenant serving runtime under open-loop load.

The three bench tenants (interactive, standard, bulk) share one stack
with batching on, ``max_concurrency=2`` and the schedule cache on.
Arrivals are seeded Poisson traces on the model clock, so the
generator can never run late. The offered rates are fixed absolute
request rates that span the stack's capacity (about 10.8k req/s at the
time the benchmark was written) plus one overload rate; they do not
follow a capacity probe, so a change in capacity cannot move them.
Each rate serves enough requests that the model p99 has more than ten
samples beyond it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import MealibSystem
from repro.serving import (BatchPolicy, ServingRuntime, TrafficConfig,
                           generate_trace)

IMPORTS = ("repro.core", "repro.serving")

#: Offered load, requests per model second, summed over the tenants.
RATES_RPS = (3000.0, 6000.0, 9000.0, 12000.0)
#: The overload point, where admission sheds.
OVERLOAD_RPS = 20000.0
#: The highest fixed rate below capacity: its p99 is the headline.
P99_RATE_RPS = 9000.0
#: The latency limit behind ``slo_rate_rps``.
P99_LIMIT_MS = 2.0
#: Requests per rate over all tenants: the p99 leaves 72 samples beyond
#: it, and the seed moves a pass's host time by little.
REQUESTS = 7200
SCALE = 0.004
MAX_CONCURRENCY = 2
STACK_BYTES = 64 << 20
#: Requests in the single-tenant bit-identity check.
IDENTITY_REQUESTS = 40


def _bench_serving():
    """``benchmarks/bench_serving.py``: the bench tenants and its
    single-tenant identity check."""
    path = str(Path(__file__).resolve().parent.parent / "benchmarks")
    if path not in sys.path:
        sys.path.insert(0, path)
    import bench_serving
    return bench_serving


@dataclass
class Point:
    rate: float
    serving: ServingRuntime
    arrivals: list


@dataclass
class Outcome:
    op_ms: List[float]
    points: List[Point]
    signature: Tuple


def setup(seed: int, root: Path) -> List[Point]:
    tenants = _bench_serving().TENANTS
    points = []
    for i, rate in enumerate(RATES_RPS + (OVERLOAD_RPS,)):
        cfg = TrafficConfig(rate=rate / len(tenants),
                            n_requests=REQUESTS // len(tenants),
                            scale=SCALE)
        arrivals = [a for t, tenant in enumerate(tenants)
                    for a in generate_trace(tenant.tenant, cfg, seed=seed,
                                            stream=i * len(tenants) + t)]
        system = MealibSystem(stack_bytes=STACK_BYTES, schedule_cache=True)
        serving = ServingRuntime(system, list(tenants),
                                 max_concurrency=MAX_CONCURRENCY,
                                 batching=BatchPolicy(), functional=False)
        points.append(Point(rate, serving, arrivals))
    return points


def execute(points: List[Point], tick=None) -> Outcome:
    clock = time.perf_counter
    op_ms = []
    for p in points:
        if tick:
            tick()
        t0 = clock()
        for a in p.arrivals:
            p.serving.submit_arrival(a)
        p.serving.run()
        op_ms.append((clock() - t0) * 1e3)
    signature = tuple((r.finish, r.shed) for p in points
                      for r in p.serving.requests)
    return Outcome(op_ms=op_ms, points=points, signature=signature)


def _nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _p99_ms(serving: ServingRuntime) -> float:
    """Model p99 from arrival to finish; a shed request counts as
    missing any limit."""
    return _nearest_rank(sorted(math.inf if r.shed else r.latency
                                for r in serving.requests), 0.99) * 1e3


def check(seed: int, points: List[Point], outcome: Outcome):
    failures = []
    try:
        _bench_serving().assert_single_tenant_identity(
            seed, IDENTITY_REQUESTS, SCALE)
    except AssertionError as exc:
        failures.append(f"single-tenant identity: {exc}")
    for p in points:
        try:
            p.serving.verify_tenant_decomposition()
        except AssertionError as exc:
            failures.append(f"{p.rate:.0f} req/s: {exc}")
    attempted = sum(len(p.serving.requests) for p in points) + 1
    return attempted, len(failures), failures


def report(points: List[Point], outcome: Outcome) -> Dict[str, tuple]:
    by_rate = {p.rate: p.serving for p in points}
    meets = [p.rate for p in points
             if p.rate in RATES_RPS and _p99_ms(p.serving) <= P99_LIMIT_MS
             and not any(r.shed for r in p.serving.requests)]
    out = {
        "model_p99_ms": (_p99_ms(by_rate[P99_RATE_RPS]), "ms"),
        "slo_rate_rps": (max(meets) if meets else 0.0, "1/s"),
        "model_goodput_rps": (
            by_rate[OVERLOAD_RPS].report()["goodput_rps"], "1/s"),
        "generator_lateness_s": (0.0, "s"),
        "model_time_s": (math.fsum(p.serving.system.total().time
                                   for p in points), "s"),
        "model_energy_j": (math.fsum(p.serving.system.total().energy
                                     for p in points), "J"),
    }
    for p in points:
        out[f"p99_ms@{p.rate:.0f}"] = (_p99_ms(p.serving), "ms")
        out[f"shed@{p.rate:.0f}"] = (
            sum(r.shed for r in p.serving.requests), "count")
    return out


def layer_extras(outcome: Outcome) -> Dict[str, float]:
    """Serving model values over every rate of the pass."""
    points = outcome.points
    served = [r for p in points for r in p.serving.requests
              if not r.shed]
    waits = sorted((r.start - r.arrival) * 1e3 for r in served)
    requests = sum(len(p.serving.requests) for p in points)
    executes = sum(p.serving.system.runtime.counters.executes
                   for p in points)
    contended = sum(p.serving.system.runtime.counters.contended_executes
                    for p in points)
    return {
        "serving.batch_size_mean": len(served) / executes,
        "serving.queue_wait_p50_ms": _nearest_rank(waits, 0.50),
        "serving.queue_wait_p99_ms": _nearest_rank(waits, 0.99),
        "serving.shed_frac": (requests - len(served)) / requests,
        "serving.contended_frac": contended / executes,
    }
