"""Deterministic multi-tenant serving over one :class:`MealibSystem`.

The serving runtime multiplexes many independent client streams
(*tenants*) onto one accelerated memory stack. Each tenant has a FIFO
descriptor queue, a QoS class and an admission bound
(:class:`~repro.serving.qos.TenantConfig`); a virtual-time engine
dispatches rounds of up to ``max_concurrency`` concurrent descriptor
streams and advances a model clock — no wall-clock anywhere, so a
given arrival trace always serves identically, bit for bit.

**Scheduling.** Each round selects queue *heads* (FIFO within a
tenant is structural — nothing can overtake inside a queue) by
effective priority ``qos − elapsed_wait // aging_quantum``: lower
dispatches sooner, and every elapsed quantum promotes a waiting head
one level, so bulk work behind a sustained interactive flood is
dispatched after a bounded wait — priority shapes latency, it never
starves anyone. Ties break by arrival time then admission order.

**Batching.** With a :class:`~repro.serving.batching.BatchPolicy`,
adjacent same-op batchable calls at the front of the selected tenant's
queue coalesce into one multi-PASS descriptor and ride one invocation
(see :mod:`repro.serving.batching` for why this is *exactly*
equivalent in functional results and ``accelerator`` ledger totals).

**Resident plans.** Lower once, execute many times (the paper's
Listing 2 contract): for the span of one :meth:`ServingRuntime.run`
each distinct batch — its members' ops and packed parameter bytes —
keeps one plan in the command space, and every repeat of the batch
executes that plan. At most :data:`RESIDENT_PLAN_ENTRIES` stay
resident (least recently used destroyed first), and all are destroyed
when the run returns or raises. Modelled results do not depend on the
slot a descriptor sits in, so a resident plan serves bit-identically
to a freshly planned one.

**Contention.** A round of ``k`` units executes each unit with
``concurrency=k``: the configuration unit prices the vault-bandwidth
time-share into the ``contention`` ledger category *without touching
the call's returned solo decomposition* (the scrub convention), and
the serving runtime folds the stretch into the request's latency —
``finish = dispatch + solo time + contention stretch``. A
single-tenant, ``max_concurrency=1`` run therefore produces per-call
results and ledger contents bit-identical to calling the system
directly.

**Attribution.** Every dispatched call is bracketed: the schedule
cache is tagged with the tenant (per-tenant hit/stale/eviction stats)
and the ledger entries it appends are recorded as that tenant's slice.
Slices partition the system ledger exactly — every entry belongs to
exactly one tenant — so summing any category across tenants reproduces
the system total joule for joule
(:meth:`ServingRuntime.verify_tenant_decomposition` machine-checks
both facts).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.runtime import AccPlan, Ledger
from repro.core.system import MealibSystem
from repro.eval.workloads import TABLE2
from repro.memmgmt.allocator import AllocationError
from repro.metrics import ExecResult
from repro.serving.batching import BatchPolicy, coalesce, lower_batch
from repro.serving.qos import TenantConfig
from repro.serving.traffic import Arrival

#: Distinct batches (by member values) one serving runtime keeps
#: lowered; past this the least recently used is evicted.
LOWERING_MEMO_ENTRIES = 1024

#: Distinct batches one ``run()`` keeps planned in the command space;
#: past this the least recently used plan is destroyed. 256 eight-member
#: DOT batches, the largest default batch, take 160 KiB of the 1 MiB
#: command space.
RESIDENT_PLAN_ENTRIES = 256


@dataclass
class Request:
    """One admitted (or shed) call in a tenant's stream."""

    tenant: str
    arrival: float
    seq: int                         # admission order, unique
    op: Optional[str] = None         # owned submissions
    params: Optional[object] = None
    plan: Optional[AccPlan] = None   # borrowed plan (submit_plan)
    batchable: bool = False
    shed: bool = False
    start: float = math.nan          # dispatch time
    finish: float = math.nan         # dispatch + solo time + stretch
    #: The execute's returned (solo) decomposition. For a coalesced
    #: batch every member carries the whole batch's result.
    result: Optional[ExecResult] = None
    batch_size: int = 0              # members in the dispatched unit

    @property
    def latency(self) -> float:
        """Queueing wait + service + contention stretch."""
        return self.finish - self.arrival


@dataclass
class TenantStats:
    """One tenant's serving outcome."""

    submitted: int = 0
    shed: int = 0
    completed: int = 0
    batched_calls: int = 0           # completed in a >1-member batch
    latencies: List[float] = field(default_factory=list)


def _percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class ServingRuntime:
    """Multiplex tenant streams onto one system, deterministically."""

    def __init__(self, system: MealibSystem,
                 tenants: Sequence[TenantConfig],
                 max_concurrency: int = 4,
                 batching: Optional[BatchPolicy] = None,
                 aging_quantum: float = 5e-3,
                 functional: bool = True):
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}")
        if aging_quantum <= 0.0:
            raise ValueError(
                f"aging_quantum must be positive, got {aging_quantum}")
        if not tenants:
            raise ValueError("at least one tenant is required")
        self.system = system
        self.tenants: Dict[str, TenantConfig] = {}
        for cfg in tenants:
            if cfg.tenant in self.tenants:
                raise ValueError(f"duplicate tenant {cfg.tenant!r}")
            self.tenants[cfg.tenant] = cfg
        self.max_concurrency = max_concurrency
        self.batching = batching
        self.aging_quantum = aging_quantum
        self.functional = functional
        self.clock = 0.0
        self.stats: Dict[str, TenantStats] = {
            t: TenantStats() for t in self.tenants}
        self.requests: List[Request] = []
        self._pending: List[Request] = []
        self._queues: Dict[str, Deque[Request]] = {
            t: deque() for t in self.tenants}
        self._seq = 0
        # tenant -> contiguous [n0, n1) slices of the system ledger's
        # entry list; together they partition everything logged from
        # _base_entries on (the decomposition invariant)
        self._slices: List[Tuple[str, int, int]] = []
        self._base_entries = len(system.ledger.entries)
        self._t_first: Optional[float] = None
        # lowering a batch is a pure function of its members' values
        # and the layer, which is fixed for this runtime: memoize it on
        # the ((op, params), ...) tuple
        self._lower = functools.lru_cache(maxsize=LOWERING_MEMO_ENTRIES)(
            functools.partial(lower_batch, system.layer))
        # batch key -> its plan, live in the command space only while
        # run() is on the stack (LRU order, oldest first)
        self._resident: "OrderedDict[Tuple, AccPlan]" = OrderedDict()

    # -- admission -----------------------------------------------------------

    def _admit(self, request: Request) -> Request:
        if request.arrival < 0.0:
            raise ValueError("arrival time must be non-negative")
        self.stats[request.tenant].submitted += 1
        self._pending.append(request)
        self.requests.append(request)
        return request

    def submit(self, tenant: str, op: str, params: object,
               arrival: float = 0.0) -> Request:
        """Admit one owned call: the runtime lowers (and, policy
        permitting, coalesces) its descriptor at dispatch, reuses the
        plan for every repeat of the batch, and destroys it after the
        run."""
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        batchable = False
        if self.batching is not None:
            solo = self._lower(((op, params),))
            batchable = self.batching.batchable(
                op, solo.in_size + solo.out_size)
        self._seq += 1
        return self._admit(Request(tenant=tenant, arrival=arrival,
                                   seq=self._seq, op=op, params=params,
                                   batchable=batchable))

    def submit_plan(self, tenant: str, plan: AccPlan,
                    arrival: float = 0.0) -> Request:
        """Admit one call on a caller-owned, reusable plan (the
        repeated-call serving shape — consecutive executes of the same
        plan hit the schedule cache). Never batched, never destroyed."""
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        self._seq += 1
        return self._admit(Request(tenant=tenant, arrival=arrival,
                                   seq=self._seq, plan=plan))

    def submit_arrival(self, a: Arrival) -> Request:
        """Admit one generated arrival (Table 2 params at its scale)."""
        return self.submit(a.tenant, a.op, TABLE2[a.op].params(a.scale),
                           arrival=a.time)

    # -- the virtual-time engine ---------------------------------------------

    def _ingest(self, pending: List[Request], i: int) -> int:
        """Move arrivals due by the clock into tenant queues, shedding
        at full queues (the admission bound), in arrival order."""
        while i < len(pending) and pending[i].arrival <= self.clock:
            r = pending[i]
            i += 1
            queue = self._queues[r.tenant]
            if len(queue) >= self.tenants[r.tenant].max_queue_depth:
                r.shed = True
                self.stats[r.tenant].shed += 1
            else:
                queue.append(r)
        return i

    def _effective_priority(self, head: Request) -> int:
        waited = self.clock - head.arrival
        aged = int(waited // self.aging_quantum)
        return int(self.tenants[head.tenant].qos) - aged

    def _select_units(self) -> List[List[Request]]:
        """Pick this round's dispatch units: up to ``max_concurrency``
        queue heads by effective priority, each optionally extended
        into a batch from its own queue's front."""
        units: List[List[Request]] = []
        while len(units) < self.max_concurrency:
            best: Optional[Request] = None
            for queue in self._queues.values():
                if not queue:
                    continue
                head = queue[0]
                key = (self._effective_priority(head), head.arrival,
                       head.seq)
                if best is None or key < (
                        self._effective_priority(best), best.arrival,
                        best.seq):
                    best = head
            if best is None:
                break
            queue = self._queues[best.tenant]
            queue.popleft()
            unit = [best]
            if self.batching is not None and best.batchable:
                while (len(unit) < self.batching.max_batch and queue
                       and queue[0].batchable
                       and queue[0].op == best.op):
                    unit.append(queue.popleft())
            units.append(unit)
        return units

    def _resident_plan(self, unit: List[Request]) -> AccPlan:
        """The resident plan of ``unit``'s batch, planned on first use.

        The key is each member's op and *packed* parameter bytes, not
        the params values: ``0.0 == -0.0`` packs two ways. A batch
        that does not fit in the command space evicts resident plans,
        least recently used first, until it does; it fails only when
        none remain, as it would without residency.
        """
        key = tuple((r.op, r.params.pack()) for r in unit)
        plan = self._resident.get(key)
        if plan is not None:
            self._resident.move_to_end(key)
            return plan
        if len(self._resident) >= RESIDENT_PLAN_ENTRIES:
            self._evict_resident()
        members = tuple((r.op, r.params) for r in unit)
        lowering = self._lower(members)
        while True:
            try:
                plan = coalesce(self.system, members, lowering)
                break
            except AllocationError:
                if not self._resident:
                    raise
                self._evict_resident()
        self._resident[key] = plan
        return plan

    def _evict_resident(self) -> None:
        """Destroy the least recently used resident plan."""
        _, plan = self._resident.popitem(last=False)
        self.system.runtime.acc_destroy(plan)

    def _dispatch(self, unit: List[Request], width: int) -> float:
        """Execute one unit under a round of ``width`` streams; returns
        its finish time on the virtual clock."""
        tenant = unit[0].tenant
        if unit[0].plan is not None:
            plan = unit[0].plan
        else:
            plan = self._resident_plan(unit)
        ledger = self.system.ledger
        cache = self.system.schedule_cache
        n0 = len(ledger.entries)
        if cache is not None:
            cache.set_tenant(tenant)
        try:
            result = self.system.runtime.acc_execute(
                plan, functional=self.functional, concurrency=width)
        finally:
            if cache is not None:
                cache.set_tenant(None)
        n1 = len(ledger.entries)
        self._slices.append((tenant, n0, n1))
        # the call's contention stretch was ledgered, not returned (the
        # scrub convention): recover it from this call's own entries
        # and fold it into the latency
        stretch = math.fsum(e.result.time for e in ledger.entries[n0:n1]
                            if e.category == "contention")
        finish = self.clock + result.time + stretch
        stats = self.stats[tenant]
        for r in unit:
            r.start = self.clock
            r.finish = finish
            r.result = result
            r.batch_size = len(unit)
            stats.completed += 1
            stats.latencies.append(finish - r.arrival)
            if len(unit) > 1:
                stats.batched_calls += 1
        return finish

    def run(self) -> None:
        """Drain every submitted arrival through the virtual clock.

        Every plan made resident during the run is destroyed before it
        returns or raises, so the command space ends as it began.
        """
        pending = sorted(self._pending,
                         key=lambda r: (r.arrival, r.seq))
        self._pending = []
        if pending and self._t_first is None:
            self._t_first = pending[0].arrival
        try:
            i = self._ingest(pending, 0)
            while i < len(pending) or any(self._queues.values()):
                if not any(self._queues.values()):
                    # idle: jump the clock to the next arrival
                    self.clock = max(self.clock, pending[i].arrival)
                    i = self._ingest(pending, i)
                    continue
                units = self._select_units()
                finishes = [self._dispatch(u, len(units)) for u in units]
                self.clock = max(finishes)
                i = self._ingest(pending, i)
        finally:
            while self._resident:
                self._evict_resident()

    # -- attribution & reporting ---------------------------------------------

    def tenant_ledger(self, tenant: str) -> Ledger:
        """This tenant's attributed slice of the system ledger (shared
        :class:`~repro.core.runtime.LedgerEntry` objects, so totals are
        computed over the very entries the system logged)."""
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        out = Ledger()
        entries = self.system.ledger.entries
        for t, n0, n1 in self._slices:
            if t == tenant:
                out.entries.extend(entries[n0:n1])
        return out

    def verify_tenant_decomposition(self) -> None:
        """Machine-check the attribution invariant.

        1. The recorded tenant slices exactly partition every ledger
           entry logged since this runtime attached — contiguous, no
           gap, no overlap (anything else means a foreign call was
           interleaved and attribution is void).
        2. Per category, the correctly-rounded sum
           (:func:`math.fsum`) of every tenant's attributed entries
           equals the same sum over the system ledger, in both time
           and energy — joule for joule. With the exact partition of
           (1) the summed multisets are identical and ``fsum`` is
           order-independent, so this holds to the last bit.

        Raises :class:`AssertionError` on any violation.
        """
        entries = self.system.ledger.entries
        pos = self._base_entries
        for tenant, n0, n1 in self._slices:
            if n0 != pos or n1 < n0:
                raise AssertionError(
                    f"tenant slice [{n0}, {n1}) for {tenant!r} does "
                    f"not continue the partition at entry {pos}: a "
                    "call outside the serving runtime interleaved "
                    "with serving dispatches")
            pos = n1
        if pos != len(entries):
            raise AssertionError(
                f"{len(entries) - pos} ledger entries after the last "
                "tenant slice are attributed to no tenant")
        served = entries[self._base_entries:]
        categories = sorted({e.category for e in served})
        by_tenant = {t: self.tenant_ledger(t) for t in self.tenants}
        for category in categories:
            sys_time = math.fsum(e.result.time for e in served
                                 if e.category == category)
            sys_energy = math.fsum(e.result.energy for e in served
                                   if e.category == category)
            ten_time = math.fsum(
                e.result.time for led in by_tenant.values()
                for e in led.entries if e.category == category)
            ten_energy = math.fsum(
                e.result.energy for led in by_tenant.values()
                for e in led.entries if e.category == category)
            if ten_time != sys_time or ten_energy != sys_energy:
                raise AssertionError(
                    f"ledger[{category}] does not decompose: tenants "
                    f"sum to ({ten_time!r}, {ten_energy!r}), system "
                    f"holds ({sys_time!r}, {sys_energy!r})")

    def report(self) -> Dict[str, object]:
        """Serving outcome: per-tenant latency percentiles, goodput
        (completed requests per model second of the serving span) and
        shed counts, plus the system-wide contention total."""
        t0 = self._t_first if self._t_first is not None else 0.0
        span = self.clock - t0
        per_tenant: Dict[str, Dict[str, Union[int, float]]] = {}
        for tenant, stats in self.stats.items():
            lat = sorted(stats.latencies)
            per_tenant[tenant] = {
                "submitted": stats.submitted,
                "shed": stats.shed,
                "completed": stats.completed,
                "batched_calls": stats.batched_calls,
                "p50_latency_s": _percentile(lat, 50.0),
                "p99_latency_s": _percentile(lat, 99.0),
                "goodput_rps": (stats.completed / span
                                if span > 0 else 0.0),
            }
        contention = self.system.contention_total()
        completed = sum(s.completed for s in self.stats.values())
        return {
            "span_s": span,
            "completed": completed,
            "shed": sum(s.shed for s in self.stats.values()),
            "goodput_rps": completed / span if span > 0 else 0.0,
            "contention_time_s": contention.time,
            "contention_energy_j": contention.energy,
            "contended_executes":
                self.system.runtime.counters.contended_executes,
            "tenants": per_tenant,
        }
