"""Resident plans: one plan per distinct batch for the span of a run.

``ServingRuntime.run`` lowers each distinct batch once and executes
its plan for every repeat, instead of planning, executing and
destroying a descriptor per dispatch. That is only sound if

* the slot a descriptor sits in changes no modelled result — the same
  batch executed at two command-space slots must produce bit-identical
  results, ledger entries and counters, healthy, degraded, under
  faults with scrub and with thermal on;
* no slot outlives the run, whether it returns or raises;
* the bound holds (the LRU plan is destroyed), a full command space
  evicts and retries instead of failing, the key tells ``0.0`` from
  ``-0.0``, and caller-owned plans are never touched;
* a second run, and the schedule cache's hits and misses, match the
  path that planned every dispatch afresh.
"""

import dataclasses

import pytest

from repro.core import MealibSystem
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.memmgmt.allocator import AllocationError, ContiguousAllocator
from repro.serving import (BatchPolicy, QosClass, ServingRuntime,
                           TenantConfig, TrafficConfig, coalesce,
                           generate_trace)
from repro.serving import runtime as serving_runtime
from repro.thermal import AMBIENT_K, ThermalConfig

SCALE = 0.004
EXECUTES = 6

CONFIGS = ("healthy", "degraded", "faults-scrub", "thermal")

TENANTS = (
    TenantConfig("interactive", QosClass.INTERACTIVE, max_queue_depth=64),
    TenantConfig("standard", QosClass.STANDARD, max_queue_depth=64),
    TenantConfig("bulk", QosClass.BULK, max_queue_depth=64),
)


def _build(config="healthy"):
    kwargs = {"stack_bytes": 64 << 20, "schedule_cache": True}
    if config == "faults-scrub":
        kwargs["faults"] = FaultInjector(seed=4, latent_flip_rate=1e-5)
        kwargs["scrub"] = ScrubConfig(interval=2)
    if config == "thermal":
        kwargs["faults"] = FaultInjector(seed=4, latent_flip_rate=1e-5)
        kwargs["thermal"] = ThermalConfig(envelope=AMBIENT_K + 0.5)
    system = MealibSystem(**kwargs)
    if config == "degraded":
        system.layer.mark_tile_failed(5)
        system.layer.noc.fail_link(0, 1)
    return system


def _members(*ops):
    return tuple((op, TABLE2[op].params(SCALE)) for op in ops)


def _ledger(system):
    return [(e.category, e.label, e.result.time, e.result.energy)
            for e in system.ledger.entries]


def _alloc_state(system):
    alloc = system.runtime._command_alloc
    return alloc.free_bytes, alloc.live_allocations


class _Spy:
    """Records every plan made and destroyed on one system's runtime,
    in order."""

    def __init__(self, monkeypatch, system):
        self.events = []
        self.plans = []
        runtime = system.runtime
        plan, destroy = runtime.acc_plan, runtime.acc_destroy

        def acc_plan(*args, **kwargs):
            made = plan(*args, **kwargs)
            self.plans.append(made)
            self.events.append(("plan", made))
            return made

        def acc_destroy(p):
            self.events.append(("destroy", p))
            destroy(p)

        monkeypatch.setattr(runtime, "acc_plan", acc_plan)
        monkeypatch.setattr(runtime, "acc_destroy", acc_destroy)

    def index(self, plan):
        """Position of ``plan`` among the plans made (by identity:
        a re-planned batch can equal its evicted predecessor)."""
        return next(i for i, p in enumerate(self.plans) if p is plan)


def _serve(system, calls, runtime_cls=ServingRuntime, **kwargs):
    """Serve ``calls`` — (op, params) pairs — one at a time, FIFO."""
    serving = runtime_cls(system, [TenantConfig("solo")],
                          max_concurrency=1, functional=False, **kwargs)
    for i, (op, params) in enumerate(calls):
        serving.submit("solo", op, params, arrival=float(i))
    serving.run()
    serving.verify_tenant_decomposition()
    return serving


# -- the slot changes no modelled result -------------------------------------

@pytest.mark.parametrize("config", CONFIGS)
def test_same_batch_at_two_slots_is_bit_identical(config):
    members = _members("AXPY", "AXPY", "AXPY")
    low, high = _build(config), _build(config)
    # push the second system's descriptor past a filler allocation
    high.runtime._command_alloc.alloc(4096)
    plan_low = coalesce(low, members)
    plan_high = coalesce(high, members)
    assert plan_low.descriptor.base_pa != plan_high.descriptor.base_pa
    for _ in range(EXECUTES):
        a = low.runtime.acc_execute(plan_low, functional=False,
                                    concurrency=2)
        b = high.runtime.acc_execute(plan_high, functional=False,
                                     concurrency=2)
        assert (a.time, a.energy) == (b.time, b.energy)
    assert _ledger(low) == _ledger(high)
    assert low.runtime.counters == high.runtime.counters
    if config == "thermal":
        assert low.thermal.temps.tobytes() == high.thermal.temps.tobytes()


# -- lifetime ----------------------------------------------------------------

def test_run_returns_the_command_space_as_it_found_it():
    system = _build()
    before = _alloc_state(system)
    serving = _serve(system, _members("AXPY", "DOT", "AXPY", "GEMV"),
                     batching=BatchPolicy())
    assert all(not r.shed for r in serving.requests)
    assert _alloc_state(system) == before
    assert not serving._resident


def test_a_run_that_raises_returns_the_command_space(monkeypatch):
    system = _build()
    before = _alloc_state(system)
    execute = system.runtime.acc_execute
    calls = []

    def failing_execute(plan, **kwargs):
        calls.append(plan)
        if len(calls) == 3:
            raise RuntimeError("doorbell lost")
        return execute(plan, **kwargs)

    monkeypatch.setattr(system.runtime, "acc_execute", failing_execute)
    serving = ServingRuntime(system, [TenantConfig("solo")],
                             max_concurrency=1, functional=False)
    for i, (op, params) in enumerate(_members("AXPY", "DOT", "GEMV",
                                              "AXPY")):
        serving.submit("solo", op, params, arrival=float(i))
    with pytest.raises(RuntimeError, match="doorbell lost"):
        serving.run()
    assert _alloc_state(system) == before
    assert all(p.destroyed for p in calls)


def test_repeats_execute_the_resident_plan(monkeypatch):
    system = _build()
    spy = _Spy(monkeypatch, system)
    _serve(system, _members("AXPY", "DOT", "AXPY", "DOT", "AXPY"))
    made = [p for kind, p in spy.events if kind == "plan"]
    assert len(made) == 2
    assert [p.executions for p in made] == [3, 2]
    assert all(p.destroyed for p in made)


def test_lru_eviction_at_the_bound_destroys_the_evicted_plan(monkeypatch):
    monkeypatch.setattr(serving_runtime, "RESIDENT_PLAN_ENTRIES", 2)
    system = _build()
    spy = _Spy(monkeypatch, system)
    # A, B; C evicts A; A again evicts B, now the least recently used
    _serve(system, _members("AXPY", "DOT", "GEMV", "AXPY"))
    a, b, c, a2 = spy.plans
    order = [(kind, spy.index(p)) for kind, p in spy.events]
    assert order[:6] == [("plan", 0), ("plan", 1), ("destroy", 0),
                         ("plan", 2), ("destroy", 1), ("plan", 3)]
    # the run's end destroys the two still resident
    assert sorted(order[6:]) == [("destroy", 2), ("destroy", 3)]
    assert a.descriptor.data != b.descriptor.data != c.descriptor.data
    assert a2.descriptor.size == a.descriptor.size


def test_a_full_command_space_evicts_and_retries(monkeypatch):
    calls = _members("AXPY", "DOT", "AXPY", "DOT", "GEMV")
    probe = _build()
    sizes = [coalesce(probe, [call]).descriptor.size for call in calls]
    roomy = _build()
    reference = _serve(roomy, calls)

    system = _build()
    # room for the largest descriptor, never for two at once
    space = system.space
    system.runtime._command_alloc = ContiguousAllocator(
        base=space.command_pa + 256, size=(max(sizes) + 63) // 64 * 64)
    before = _alloc_state(system)
    spy = _Spy(monkeypatch, system)
    served = _serve(system, calls)
    assert len(spy.plans) == 5            # every dispatch re-planned
    assert _alloc_state(system) == before
    assert [(r.result.time, r.result.energy) for r in served.requests] \
        == [(r.result.time, r.result.energy) for r in reference.requests]
    assert _ledger(system) == _ledger(roomy)


def test_a_batch_that_never_fits_still_fails():
    system = _build()
    space = system.space
    system.runtime._command_alloc = ContiguousAllocator(
        base=space.command_pa + 256, size=64)
    serving = ServingRuntime(system, [TenantConfig("solo")],
                             max_concurrency=1, functional=False)
    op, params = _members("GEMV")[0]
    serving.submit("solo", op, params)
    with pytest.raises(AllocationError):
        serving.run()
    assert system.runtime._command_alloc.live_allocations == 0


def test_signed_zeros_get_distinct_resident_plans(monkeypatch):
    axpy = TABLE2["AXPY"].params(SCALE)
    pos = dataclasses.replace(axpy, alpha=0.0)
    neg = dataclasses.replace(axpy, alpha=-0.0)
    assert pos == neg and pos.pack() != neg.pack()
    system = _build()
    spy = _Spy(monkeypatch, system)
    _serve(system, [("AXPY", pos), ("AXPY", neg), ("AXPY", pos),
                    ("AXPY", neg)])
    assert len(spy.plans) == 2
    first, second = spy.plans
    assert first.descriptor.data[-len(pos.pack()):] == pos.pack()
    assert second.descriptor.data[-len(neg.pack()):] == neg.pack()
    assert [p.executions for p in spy.plans] == [2, 2]


def test_plans_passed_to_submit_plan_are_never_destroyed():
    system = _build()
    plan = coalesce(system, _members("AXPY"))
    before = _alloc_state(system)
    serving = ServingRuntime(system, [TenantConfig("solo")],
                             max_concurrency=1, functional=False)
    for i in range(3):
        serving.submit_plan("solo", plan, arrival=float(2 * i))
        op, params = _members("AXPY")[0]
        serving.submit("solo", op, params, arrival=float(2 * i + 1))
    serving.run()
    assert not plan.destroyed and plan.executions == 3
    assert _alloc_state(system) == before
    system.runtime.acc_execute(plan, functional=False)
    system.runtime.acc_destroy(plan)


# -- runs repeat, and match planning every dispatch ---------------------------

class _PlanPerDispatch(ServingRuntime):
    """The path without residency: every dispatch plans its batch
    afresh, after the previous dispatch's plan is destroyed."""

    def _resident_plan(self, unit):
        while self._resident:
            self._evict_resident()
        return super()._resident_plan(unit)


def _trace(rate, n_requests=240, seed=2015, offset=0.0):
    cfg = TrafficConfig(rate=rate / len(TENANTS),
                        n_requests=n_requests // len(TENANTS), scale=SCALE)
    return [dataclasses.replace(a, time=a.time + offset)
            for t, tenant in enumerate(TENANTS)
            for a in generate_trace(tenant.tenant, cfg, seed=seed,
                                    stream=t)]


def _sweep_runtime(runtime_cls=ServingRuntime, system=None):
    return runtime_cls(system if system is not None else _build(),
                       list(TENANTS), max_concurrency=2,
                       batching=BatchPolicy(), functional=False)


def _outcome(requests):
    return [(r.tenant, r.shed, r.batch_size,
             None if r.result is None else (r.result.time,
                                            r.result.energy))
            for r in requests]


def test_a_second_run_reproduces_a_fresh_runtime():
    serving = _sweep_runtime()
    first = _trace(9000.0)
    for a in first:
        serving.submit_arrival(a)
    serving.run()
    n_first = len(serving.requests)
    # the second trace starts after the first has drained, so both
    # runtimes jump their idle clocks to its first arrival
    second = _trace(9000.0, seed=7919, offset=serving.clock + 1.0)
    for a in second:
        serving.submit_arrival(a)
    serving.run()
    serving.verify_tenant_decomposition()
    assert not serving._resident

    fresh = _sweep_runtime()
    for a in second:
        fresh.submit_arrival(a)
    fresh.run()
    assert _outcome(serving.requests[n_first:]) == \
        _outcome(fresh.requests)
    assert [r.finish for r in serving.requests[n_first:]] == \
        [r.finish for r in fresh.requests]


@pytest.mark.parametrize("rate", (3000.0, 9000.0, 20000.0))
def test_schedule_cache_counts_match_planning_every_dispatch(rate):
    resident = _sweep_runtime()
    per_dispatch = _sweep_runtime(_PlanPerDispatch)
    for serving in (resident, per_dispatch):
        for a in _trace(rate):
            serving.submit_arrival(a)
        serving.run()
        serving.verify_tenant_decomposition()
    assert _outcome(resident.requests) == _outcome(per_dispatch.requests)
    assert [r.finish for r in resident.requests] == \
        [r.finish for r in per_dispatch.requests]
    cache_r = resident.system.schedule_cache
    cache_p = per_dispatch.system.schedule_cache
    assert (cache_r.stats.hits, cache_r.stats.misses) == \
        (cache_p.stats.hits, cache_p.stats.misses)
    assert cache_r.stats.hits > 0
    for tenant in cache_p.tenant_stats:
        assert cache_r.stats_for(tenant) == cache_p.stats_for(tenant)
    assert resident.system.runtime.counters == \
        per_dispatch.system.runtime.counters
    assert _ledger(resident.system) == _ledger(per_dispatch.system)
