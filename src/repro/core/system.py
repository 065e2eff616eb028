"""Full-system assembly: host + memory stack + accelerators + runtime.

One object wires everything the paper's Figure 2 shows: the host CPU
model, the 3D-stacked DRAM (functional physical memory + cycle-level
timing device), the accelerator layer, the configuration unit, the
invocation cost model, and the runtime the translated programs call.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.accel.layer import AcceleratorLayer
from repro.core.config_unit import ConfigurationUnit
from repro.core.invocation import InvocationModel
from repro.core.runtime import MealibRuntime, ResiliencePolicy
from repro.core.schedule_cache import ScheduleCache
from repro.faults.datapath import DatapathEcc
from repro.faults.injector import FaultInjector
from repro.faults.scrub import PatrolScrubber, ScrubConfig
from repro.host.cpu import CpuModel
from repro.host.platforms import haswell
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memmgmt.driver import MealibDriver
from repro.memsys.dram3d import StackedDram
from repro.metrics import ExecResult
from repro.mkl.profiles import OpProfile
from repro.thermal import PowerGovernor, ThermalConfig, ThermalModel


class MealibSystem:
    """A host with one accelerated memory stack.

    Passing a :class:`~repro.faults.injector.FaultInjector` wires fault
    injection (and the matching ECC protection and runtime hardening)
    through every layer: the physical memory's read path, the
    accelerators' direct-TSV datapath (in-datapath SECDED adjudication
    of latent cell flips at operand fetch), the stacked DRAM's timing
    model, the configuration unit's fetch/doorbell path, and the
    runtime's watchdog/retry/fallback machinery. ``scrub`` additionally
    arms a background patrol scrubber over the same injector — it
    configures *how* the injector's latent flips are drained, so
    passing it without ``faults`` is a configuration error. ``thermal``
    attaches the per-vault RC network and power-envelope governor
    (``repro.thermal``): executes and patrol passes deposit their
    ledger-attributed joules on the vault nodes, hot vaults are
    DVFS-throttled (the ``throttle`` ledger category) or taken offline
    through the per-vault reroute path, and — when faults are armed —
    vault temperature Arrhenius-scales the latent flip rate. With
    ``faults`` and ``thermal`` left ``None`` the system is exactly the
    unhardened baseline.

    ``schedule_cache`` arms the descriptor-keyed schedule cache
    (:class:`~repro.core.schedule_cache.ScheduleCache`): repeated
    descriptors replay their decode + timing/energy decomposition
    bit-identically instead of re-simulating the memory system. Pass
    ``True`` for a default cache, a :class:`ScheduleCache` instance to
    control capacity (or share one), or ``None``/``False`` (the
    default) for the fully simulated, cache-free build. All
    invalidation hooks — link/tile health, governor state, patrol-scrub
    repairs, injected faults — are wired automatically.

    Many independent client streams can be multiplexed onto one system
    by the multi-tenant serving runtime
    (:class:`repro.serving.ServingRuntime`): per-tenant descriptor
    queues, QoS classes with admission control, AXPY/DOT batch
    coalescing, and vault-bandwidth contention priced exactly into the
    ``contention`` ledger category with per-tenant attribution. A solo
    synchronous caller (everything in this module's direct API) never
    pays any of it.
    """

    def __init__(self, host: Optional[CpuModel] = None,
                 stack_bytes: int = 1 << 30,
                 device: Optional[StackedDram] = None,
                 layer: Optional[AcceleratorLayer] = None,
                 invocation: Optional[InvocationModel] = None,
                 faults: Optional[FaultInjector] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 scrub: Optional[ScrubConfig] = None,
                 thermal: Optional[ThermalConfig] = None,
                 schedule_cache: Union[None, bool, ScheduleCache] = None):
        if scrub is not None and faults is None:
            raise ValueError(
                "scrub= without faults= would arm a patrol scrubber "
                "over no injector; pass a FaultInjector (rates may all "
                "be zero) or drop the scrub config")
        self.host = host if host is not None else haswell()
        self.space = UnifiedAddressSpace(
            MealibDriver(stack_bytes=stack_bytes))
        self.device = device if device is not None else StackedDram()
        self.layer = layer if layer is not None else AcceleratorLayer()
        self.faults = faults
        self.datapath = None
        self.scrubber = None
        self.thermal = None
        self.governor = None
        if thermal is not None and thermal.enabled:
            self.thermal = ThermalModel(thermal,
                                        vaults=self.device.units,
                                        cols=self.layer.noc.cols)
            self.governor = PowerGovernor(self.thermal, self.layer,
                                          thermal)
            # thermal-aware reroute tie-break (coolest serving tile)
            self.layer.thermal = self.thermal
        if faults is not None:
            phys = self.space.driver.phys
            phys.fault_hook = faults.dram_read
            if faults.config.ecc_enabled:
                self.device.ecc = faults.ecc
            self.datapath = DatapathEcc(faults, phys)
            self.scrubber = PatrolScrubber(
                faults, phys,
                scrub if scrub is not None else ScrubConfig(),
                mapping=(self.device.mapping if self.thermal is not None
                         else None))
        if schedule_cache is True:
            self.schedule_cache: Optional[ScheduleCache] = ScheduleCache()
        elif isinstance(schedule_cache, ScheduleCache):
            self.schedule_cache = schedule_cache
        else:                       # None / False: fully simulated
            self.schedule_cache = None
        if self.schedule_cache is not None:
            cache = self.schedule_cache
            # every hazard source that can change a replayed result (or
            # the world it was computed in) bumps an epoch: stale
            # entries are caught at lookup, never silently replayed
            self.layer.noc.health.on_change = cache.invalidate_health
            self.layer.on_health_change = cache.invalidate_health
            if self.governor is not None:
                self.governor.on_state_change = cache.invalidate_thermal
            if self.scrubber is not None:
                self.scrubber.on_repair = cache.invalidate_scrub
            if faults is not None:
                faults.on_latent_change = cache.invalidate_fault
        self.config_unit = ConfigurationUnit(
            self.layer, self.space, self.device, faults=faults,
            datapath=self.datapath, governor=self.governor,
            schedule_cache=self.schedule_cache)
        self.runtime = MealibRuntime(
            self.space, self.config_unit, invocation, host=self.host,
            faults=faults, policy=policy, datapath=self.datapath,
            scrubber=self.scrubber, thermal=self.thermal,
            governor=self.governor,
            vaults_of=(self.device.mapping.unit_of_batch
                       if self.thermal is not None else None))
        if self.governor is not None:
            # engage forced (sub-ambient) envelopes before the first
            # execute — a vault born above critical goes offline now
            self.governor.poll()

    @property
    def ledger(self):
        return self.runtime.ledger

    def run_on_host(self, label: str, profile: OpProfile) -> ExecResult:
        """Execute a compute-bounded library call on the host CPU and
        record it (the cherk/ctrsm path of the STAP pipeline)."""
        result = self.host.run_profile(profile)
        self.runtime.log_host(label, result)
        return result

    def total(self) -> ExecResult:
        """End-to-end time/energy recorded so far."""
        return self.ledger.total()

    def breakdown(self):
        """(host, accelerator, invocation) totals — the Fig 14 split."""
        return (self.ledger.total("host"),
                self.ledger.total("accelerator"),
                self.ledger.total("invocation"))

    def resilience_breakdown(self):
        """(fault, retry, reroute, fallback) totals — the cost of
        surviving injected faults. All zero on a fault-free run."""
        return (self.ledger.total("fault"),
                self.ledger.total("retry"),
                self.ledger.total("reroute"),
                self.ledger.total("fallback"))

    def contention_total(self) -> ExecResult:
        """Total of the ``contention`` ledger category: the excess of
        sharing the stack with concurrent descriptor streams under the
        serving runtime (:mod:`repro.serving`). Exactly zero on any
        solo call stream."""
        return self.ledger.total("contention")
