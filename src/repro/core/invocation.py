"""Accelerator invocation cost model (Section 3.5 / Figure 14).

Every ``mealib_acc_execute`` pays, on the host, for:

* coherence — ``wbinvd`` writes dirty cache lines back to DRAM before
  the accelerators read it (MEALib keeps ordinary cache coherence
  rather than uncachable regions);
* descriptor delivery — the accelerator descriptor is stored through
  the uncached command-space mapping;
* the doorbell — writing START into the Control Region and the CU
  observing it.

The paper measures these as 3.3% of accelerator time / 7.1% of
accelerator energy for STAP once the compiler has compacted 17 M calls
into 3 descriptors; the same constants here also produce the Fig 12
software-chaining and software-loop gaps, where the overheads repeat per
call instead of per descriptor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.host.cache import CacheHierarchy
from repro.metrics import ExecResult

#: Write-combined store bandwidth into the uncached command mapping.
DESCRIPTOR_WRITE_BW = 4e9

#: Fixed descriptor-setup latency (runtime bookkeeping + fences).
DESCRIPTOR_BASE_LATENCY = 2e-6

#: Fixed latency of a *warm* descriptor re-delivery (retry after an
#: in-DRAM repair): the bookkeeping, address translation and fence
#: setup of the cold delivery are already in place, only the store
#: fence around the re-written image remains.
WARM_RETRY_BASE_LATENCY = 0.4e-6

#: Doorbell: the START store plus the CU noticing it.
DOORBELL_LATENCY = 1e-6

#: Host package power while executing runtime code.
RUNTIME_HOST_POWER = 25.0

#: Distinct (model, descriptor size, working set, flush) overheads the
#: ``total`` memo keeps; past this the least recently used is evicted.
TOTAL_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class InvocationModel:
    """Costs charged on the host side of every accelerator invocation."""

    cache: CacheHierarchy = field(default_factory=CacheHierarchy)
    descriptor_write_bw: float = DESCRIPTOR_WRITE_BW
    descriptor_base_latency: float = DESCRIPTOR_BASE_LATENCY
    warm_retry_base_latency: float = WARM_RETRY_BASE_LATENCY
    doorbell_latency: float = DOORBELL_LATENCY
    host_power: float = RUNTIME_HOST_POWER

    def flush_cost(self, working_set_bytes: int) -> ExecResult:
        """The wbinvd before handing buffers to the accelerators."""
        return self.cache.flush_cost(working_set_bytes)

    def descriptor_cost(self, descriptor_bytes: int) -> ExecResult:
        """Storing the descriptor through the uncached mapping."""
        time = (self.descriptor_base_latency
                + descriptor_bytes / self.descriptor_write_bw)
        return ExecResult(time=time, energy=time * self.host_power)

    def warm_retry_cost(self, descriptor_bytes: int) -> ExecResult:
        """Re-storing the descriptor on a retry (warm re-delivery).

        The golden image re-crosses the uncached mapping at full
        write-combining bandwidth, but the cold delivery's setup —
        bookkeeping, translation, fence arming — is not repeated, so
        only the small warm base latency remains. Strictly cheaper
        than :meth:`descriptor_cost` for every descriptor size.
        """
        time = (self.warm_retry_base_latency
                + descriptor_bytes / self.descriptor_write_bw)
        return ExecResult(time=time, energy=time * self.host_power)

    def doorbell_cost(self) -> ExecResult:
        time = self.doorbell_latency
        return ExecResult(time=time, energy=time * self.host_power)

    @functools.lru_cache(maxsize=TOTAL_MEMO_ENTRIES, typed=True)
    def total(self, descriptor_bytes: int,
              working_set_bytes: int,
              include_flush: bool = True) -> ExecResult:
        """Full per-execute overhead. ``include_flush=False`` supports
        the ablation benchmark that isolates the wbinvd share.

        A pure function of the (frozen) model and the arguments that
        returns a frozen :class:`ExecResult`, so it is memoized."""
        cost = self.descriptor_cost(descriptor_bytes).plus(
            self.doorbell_cost())
        if include_flush:
            cost = cost.plus(self.flush_cost(working_set_bytes))
        return cost
