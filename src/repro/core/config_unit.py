"""The configuration unit (Figure 5): fetch, decode, dispatch.

When the host writes START into a descriptor's Control Region, the CU's
Fetch Unit pulls the descriptor into instruction memory, and the Decode
Unit walks it pass by pass: it activates the pass's accelerators,
programs each tile's switch (chaining the datapath when a pass holds
several COMPs), runs accelerator initialisation, and triggers
processing. LOOP blocks re-arm the same configuration without host
involvement — the paper's mechanism for collapsing 16M library calls
into one descriptor.

The CU here does double duty, like the rest of the package: it executes
descriptors *functionally* (so results are real and testable) and
*models* their time/energy (aggregating loop iterations into batched
streams, the way the hardware pipeline actually behaves).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional,
                    Tuple)

from repro.accel.base import (AcceleratorCore, StrideTable,
                              linear_strides, shift_params,
                              unpack_strides)
from repro.accel.layer import AcceleratorLayer
from repro.accel.noc import MeshNoc
from repro.accel.synthesis import noc_power
from repro.accel.tile import PORT_CHAIN, PORT_DRAM, TileFailedError
from repro.core.descriptor import (CMD_START, CR_BYTES, INSTR_BYTES,
                                   DescriptorError, Instruction,
                                   KIND_ACCEL, KIND_ENDLOOP, KIND_ENDPASS,
                                   KIND_LOOP, decode_control,
                                   decode_instructions, verify_integrity)
from repro.faults.datapath import DatapathEcc
from repro.faults.injector import CuHangError, FaultInjector
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.device import MemoryDevice
from repro.memsys.result import MemResult
from repro.memsys.trace import StreamSpec, simulate_streams
from repro.metrics import ExecResult, ZERO

if TYPE_CHECKING:
    from repro.core.schedule_cache import ScheduleCache
    from repro.thermal.governor import PowerGovernor

#: Fetch-unit base latency for pulling a descriptor into IMEM.
FU_FETCH_LATENCY = 200e-9

#: Descriptor transfer bandwidth over the TSV/interconnect path.
FU_FETCH_BW = 25.6e9

#: One-time pass arming: switch programming + per-accelerator
#: configuration fetch from main memory.
PASS_ARM_TIME = 2e-6

#: Loop re-arm per iteration: one address-generator FSM step. It runs
#: concurrently with processing (one generator per tile), so it enters
#: the pass model as a pipeline stage, not an additive cost.
LOOP_REARM_TIME = 1e-9

#: CU logic power while a descriptor is in flight.
CU_POWER = 0.5


@dataclass(frozen=True)
class CompInstance:
    """A decoded COMP: accelerator + base params + loop strides."""

    core: AcceleratorCore
    params: object
    strides: Optional[object] = None      # StrideTable or field mapping


@dataclass(frozen=True)
class PassPlan:
    """A decoded PASS with the loop trip count it executes under."""

    comps: Tuple[CompInstance, ...]
    count: int = 1

    @property
    def chained(self) -> bool:
        return len(self.comps) > 1


@dataclass(frozen=True)
class Degradation:
    """The layer's partial-degradation state for one execution.

    Attributes:
        serving: vaults whose tiles execute the pass, ascending.
        reroutes: degraded vault -> serving tile its data stripe is
            carried to over TSV + mesh.
    """

    serving: Tuple[int, ...]
    reroutes: Mapping[int, int]

    @property
    def active(self) -> bool:
        return bool(self.reroutes)


@dataclass
class DescriptorExecution:
    """Outcome of running one descriptor."""

    result: ExecResult
    by_accelerator: Dict[str, ExecResult]
    invocations: int
    passes: int
    #: Extra time/energy of running degraded (mesh detours, rerouted
    #: vault stripes, fewer lanes); ZERO on a fully healthy layer.
    reroute_overhead: ExecResult = ZERO
    #: Tiles that actually served the descriptor (16 when healthy).
    tiles_used: int = 0
    #: Vault stripes served by a remote tile.
    rerouted_vaults: int = 0
    #: Extra time/energy of DVFS throttling (the envelope governor):
    #: the lockstep pass pipeline stretched by the slowest throttled
    #: serving vault's frequency factor, priced as static power over
    #: the longer drain; ZERO when every serving vault is nominal.
    throttle_overhead: ExecResult = ZERO
    #: Serving vaults that were under DVFS during this execution.
    throttled_vaults: int = 0
    #: Extra time/energy of sharing the stack with concurrent
    #: descriptor streams (the serving runtime's admission width):
    #: each pass time-shares every vault's TSV bus with its
    #: co-runners, so the drain stretches by the layer's contention
    #: slowdown and the stretch is priced at static power. Like scrub,
    #: it is *ledgered* (``contention`` category) but never folded
    #: into :attr:`result` — the solo decomposition is bit-identical
    #: whatever the admission width, and the serving runtime accounts
    #: the stretch in the request's latency. ZERO when the descriptor
    #: ran alone (``concurrency=1``).
    contention_overhead: ExecResult = ZERO
    #: Concurrent descriptor streams this execution shared the stack
    #: with (1 = ran alone).
    contending_streams: int = 1
    #: Per-vault dynamic heat of this execution, J (thermal runs only).
    vault_heat: Optional[Dict[int, float]] = None
    #: Heat deposited on the logic-layer node, J (thermal runs only).
    logic_heat: float = 0.0
    #: True when this execution replayed a schedule-cache entry
    #: (bit-identical to the fresh simulation it snapshotted).
    cache_hit: bool = False

    def accel_share(self, name: str) -> float:
        """Fraction of descriptor time spent in one accelerator."""
        if self.result.time <= 0:
            return 0.0
        return self.by_accelerator.get(name, ZERO).time / self.result.time


def _scaled_stream(stream: StreamSpec, count: int) -> StreamSpec:
    """A loop's iterations concatenate into one long stream: same
    pattern, ``count`` times the elements."""
    if count == 1:
        return stream
    return dc_replace(stream, n_elems=stream.n_elems * count)


def _stream_footprint(stream: StreamSpec) -> int:
    """Byte span one iteration of a stream covers."""
    if stream.kind == "strided" and stream.stride:
        return stream.n_elems * stream.stride
    if stream.kind == "blocked":
        blocks = (stream.n_elems + stream.block_elems - 1
                  ) // stream.block_elems
        return blocks * stream.block_stride
    return stream.n_elems * stream.elem_bytes


def _coalesce_looped_stream(stream: StreamSpec, field_deltas,
                            trips, count: int) -> StreamSpec:
    """Aggregate a per-iteration stream across a LOOP's trips.

    Models what the tile hardware actually does with its local memory
    and address generators, innermost loop level outward:

    * delta 0 — the operand is invariant at this level and stays in
      tile LM (STAP's weight vector across range cells): one read
      serves all trips;
    * a strided stream whose per-trip advance tiles it densely (STAP's
      snapshot columns) — the block is fetched once as a dense region;
    * a per-trip advance equal to the stream's footprint — plain
      concatenation into a longer stream.

    Whatever doesn't match keeps the conservative concatenation model.
    """
    out = stream
    remaining = count
    levels = list(range(len(trips)))[::-1]        # innermost first
    for level in levels:
        trip = trips[level] if trips[level] else count
        if trip <= 1:
            continue
        delta = field_deltas[level]
        if delta == 0:
            remaining //= trip
            continue
        if (out.kind == "strided" and out.stride
                and delta == out.elem_bytes
                and delta * trip == out.stride):
            out = dc_replace(out, kind="seq", stride=0,
                             n_elems=out.n_elems * trip)
            remaining //= trip
            continue
        if delta == _stream_footprint(out) and out.kind in ("seq",
                                                            "strided",
                                                            "blocked"):
            out = dc_replace(out, n_elems=out.n_elems * trip)
            remaining //= trip
            continue
        break
    return _scaled_stream(out, max(remaining, 1))


def _comp_streams_aggregated(comp: "CompInstance",
                             count: int) -> List[StreamSpec]:
    """All streams of a comp, aggregated over its loop trips."""
    streams = comp.core.streams(comp.params)
    if count == 1:
        return streams
    strides = comp.strides
    if strides is None:
        return [_scaled_stream(s, count) for s in streams]
    if not isinstance(strides, StrideTable):
        strides = linear_strides(comp.core.params_type, strides)
    trips = strides.trips
    base_of = {getattr(comp.params, f): f
               for f in comp.core.params_type.ADDR_FIELDS}
    out = []
    for s in streams:
        field = base_of.get(s.base)
        if field is None:
            out.append(_scaled_stream(s, count))
            continue
        out.append(_coalesce_looped_stream(s, strides.deltas[field],
                                           trips, count))
    return out


class ConfigurationUnit:
    """Fetch Unit + Instruction Memory + Decode Unit."""

    def __init__(self, layer: AcceleratorLayer,
                 space: UnifiedAddressSpace, device: MemoryDevice,
                 noc: Optional[MeshNoc] = None,
                 faults: Optional[FaultInjector] = None,
                 datapath: Optional[DatapathEcc] = None,
                 governor: Optional["PowerGovernor"] = None,
                 schedule_cache: Optional["ScheduleCache"] = None):
        self.layer = layer
        self.space = space
        self.device = device
        self.noc = noc if noc is not None else layer.noc
        self.faults = faults
        self.datapath = datapath
        # power-envelope governor (repro.thermal): when attached, pass
        # timing stretches for throttled serving vaults and the per-pass
        # heat breakdown is collected for the thermal model; None keeps
        # the execution model byte-identical to a governor-free build
        self.governor = governor
        # descriptor-keyed schedule cache (repro.core.schedule_cache):
        # when attached, repeated descriptors replay their decode +
        # model decomposition bit-identically; None keeps every
        # execution fully simulated
        self.schedule_cache = schedule_cache

    # -- decode ---------------------------------------------------------------

    def _read_comp(self, instr: Instruction,
                   image: Optional[bytes] = None,
                   base_pa: int = 0) -> CompInstance:
        core = self.layer.accelerator(instr.accel_name)
        if image is None:
            blob = self.space.pa_read(instr.param_addr, instr.param_size)
        else:
            # params come out of an already-fetched descriptor image
            off = instr.param_addr - base_pa
            if off < 0 or off + instr.param_size > len(image):
                raise DescriptorError(
                    f"parameter address {instr.param_addr:#x} outside "
                    "the descriptor image")
            blob = image[off:off + instr.param_size]
        params = core.unpack_params(blob)
        strides = None
        base_size = core.params_type.SIZE
        if instr.param_size > base_size:
            strides = unpack_strides(core.params_type, blob[base_size:])
        return CompInstance(core=core, params=params, strides=strides)

    def fetch(self, desc_pa: int, desc_bytes: int) -> bytes:
        """Fetch Unit: pull the full descriptor image into IMEM.

        The fetched image passes through the fault injector (command-
        path upsets) and is then integrity-checked against its sealed
        checksum before any of it is dispatched.
        """
        raw = self.space.pa_read(desc_pa, desc_bytes)
        if self.faults is not None:
            raw = self.faults.corrupt_descriptor(raw)
        verify_integrity(raw)
        return raw

    def decode(self, desc_pa: int) -> List[PassPlan]:
        """Parse a descriptor from DRAM into pass plans.

        Raises :class:`DescriptorError` unless the CR holds START — the
        hardware only reacts to the doorbell.
        """
        header = self.space.pa_read(desc_pa, CR_BYTES)
        command, n_instr = decode_control(header)
        if command != CMD_START:
            raise DescriptorError("descriptor command region is not START")
        raw = self.space.pa_read(desc_pa,
                                 CR_BYTES + n_instr * INSTR_BYTES)
        instructions = decode_instructions(raw, n_instr)
        return self._build_plans(instructions)

    def plans_from_image(self, image: bytes, base_pa: int,
                         require_start: bool = False) -> List[PassPlan]:
        """Decode a complete descriptor image (integrity-checked).

        Used on the fetched IMEM copy, and by the runtime's host-
        fallback path on its golden (host-side) descriptor bytes, where
        the doorbell state is irrelevant (``require_start=False``).
        """
        verify_integrity(image)
        command, n_instr = decode_control(image)
        if require_start and command != CMD_START:
            raise DescriptorError("descriptor command region is not START")
        instructions = decode_instructions(image, n_instr)
        return self._build_plans(instructions, image=image, base_pa=base_pa)

    def _build_plans(self, instructions: List[Instruction],
                     image: Optional[bytes] = None,
                     base_pa: int = 0) -> List[PassPlan]:
        plans: List[PassPlan] = []
        loop_count = 1
        in_loop = False
        current: List[CompInstance] = []
        loop_passes: List[Tuple[CompInstance, ...]] = []
        for instr in instructions:
            if instr.kind == KIND_LOOP:
                if in_loop:
                    raise DescriptorError("nested LOOP is not supported")
                in_loop = True
                loop_count = instr.param_size
                loop_passes = []
            elif instr.kind == KIND_ACCEL:
                current.append(self._read_comp(instr, image, base_pa))
            elif instr.kind == KIND_ENDPASS:
                if not current:
                    raise DescriptorError("empty PASS in descriptor")
                if in_loop:
                    loop_passes.append(tuple(current))
                else:
                    plans.append(PassPlan(comps=tuple(current), count=1))
                current = []
            elif instr.kind == KIND_ENDLOOP:
                if not in_loop:
                    raise DescriptorError("ENDLOOP without LOOP")
                for comps in loop_passes:
                    plans.append(PassPlan(comps=comps, count=loop_count))
                in_loop = False
                loop_count = 1
        if in_loop or current:
            raise DescriptorError("descriptor ends inside a block")
        return plans

    # -- execution --------------------------------------------------------------

    def _configure_tiles(self, plan: PassPlan,
                         serving: Optional[List[int]] = None) -> None:
        """Program the switch network for one pass (chain wiring).

        Only the ``serving`` tiles are armed; dead or mesh-isolated
        tiles sit the pass out and their vault stripes ride the NoC.
        """
        vaults = serving if serving is not None else list(self.layer.tiles)
        for idx, comp in enumerate(plan.comps):
            first = idx == 0
            last = idx == len(plan.comps) - 1
            for vault in vaults:
                self.layer.tiles[vault].configure(
                    comp.core.name,
                    input_port=PORT_DRAM if first else PORT_CHAIN,
                    output_port=PORT_DRAM if last else PORT_CHAIN)

    def _release_tiles(self) -> None:
        for tile in self.layer.tiles.values():
            tile.release()

    def _guard_datapath(self, plans: List[PassPlan]) -> None:
        """Adjudicate the descriptor's operand footprint through the
        in-datapath SECDED layer before the tiles stream anything.

        Only the DRAM-touching streams are guarded — a chained pass's
        first COMP reads and last COMP writes (matching
        :meth:`_pass_terms`); intermediates ride the tile local
        memories and never cross the TSVs. Raises
        :class:`~repro.faults.ecc.UncorrectableEccError` on a detected
        double-bit word, *before* any functional effect, so the
        runtime's retry re-executes a clean descriptor.
        """
        if self.datapath is None:
            return
        reads: List[Tuple[int, int]] = []
        writes: List[Tuple[int, int]] = []
        for plan in plans:
            first, last = plan.comps[0], plan.comps[-1]
            reads.extend(first.core.operand_spans(
                first.params, plan.count, first.strides, writes=False))
            writes.extend(last.core.operand_spans(
                last.params, plan.count, last.strides, writes=True))
        self.datapath.guard(reads, writes)

    def run_functional(self, plan: PassPlan) -> None:
        """Numerically execute one pass plan against physical memory.

        Also reused by the runtime's host-fallback path: the host
        performs the same arithmetic the accelerators would have."""
        for i in range(plan.count):
            for comp in plan.comps:
                params = shift_params(comp.params, comp.strides, i)
                comp.core.run(self.space, params)

    def _model_pass(self, plan: PassPlan,
                    degradation: Optional[Degradation] = None
                    ) -> Tuple[ExecResult, Dict[str, float], ExecResult,
                               Dict[str, object]]:
        """Time/energy of one pass plan (loop iterations aggregated).

        Returns ``(result, per-comp compute times, reroute overhead,
        heat breakdown)``. When the layer is degraded, ``result`` is
        the degraded cost and the overhead is its excess over the
        hypothetical healthy cost (what the ``reroute`` ledger category
        accounts). On a healthy layer the overhead is exactly
        :data:`~repro.metrics.ZERO` and the model is bit-identical to
        the undegraded one. The heat breakdown (of the *actual* run,
        degraded or not) is what the thermal model consumes; it is a
        pure decomposition of the result's energy.
        """
        if degradation is None or not degradation.active:
            result, compute_times, heat = self._pass_terms(
                plan, len(self.layer.tiles), {})
            return result, compute_times, ZERO, heat
        result, compute_times, heat = self._pass_terms(
            plan, len(degradation.serving), degradation.reroutes)
        clean, _, _ = self._pass_terms(plan, len(self.layer.tiles), {})
        overhead = ExecResult(max(0.0, result.time - clean.time),
                              max(0.0, result.energy - clean.energy))
        return result, compute_times, overhead, heat

    def _pass_terms(self, plan: PassPlan, n_serve: int,
                    reroutes: Mapping[int, int]
                    ) -> Tuple[ExecResult, Dict[str, float],
                               Dict[str, object]]:
        """One pass's cost on ``n_serve`` tiles with ``reroutes`` vault
        stripes carried over the mesh.

        For a chained pass only the first COMP's input streams and the
        last COMP's output streams touch DRAM; intermediates ride the
        tile local memories and the NoC. A rerouted vault's stripe (its
        1/16th of the DRAM traffic) additionally crosses the mesh to
        its serving tile: transfers to distinct serving tiles proceed
        in parallel, stripes converging on one tile serialise on its
        link, and the slowest group enters the pass pipeline as one
        more concurrent stage. Fewer serving tiles also stretch the
        DRAM time (each tile drives only its own vault's TSV bus) and
        shrink the deployed compute lanes.
        """
        first, last = plan.comps[0], plan.comps[-1]
        streams: List[StreamSpec] = []
        streams.extend(s for s in
                       _comp_streams_aggregated(first, plan.count)
                       if not s.is_write)
        streams.extend(s for s in
                       _comp_streams_aggregated(last, plan.count)
                       if s.is_write)
        mem = simulate_streams(self.device, streams)
        if n_serve < self.device.units:
            stretched = mem.time * self.device.units / n_serve
            mem = MemResult(
                time=stretched,
                energy=mem.energy + self.device.static_power()
                * (stretched - mem.time),
                bytes_moved=mem.bytes_moved)
        compute_times = {}
        for comp in plan.comps:
            prof = comp.core.profile(comp.params)
            compute_times[comp.core.name] = (
                plan.count * prof.flops
                / comp.core.compute_rate(tiles=n_serve)
                if prof.flops else 0.0)
        t_compute = max(compute_times.values()) if compute_times else 0.0
        t_noc = 0.0
        if plan.chained:
            inter_bytes = plan.count * sum(
                s.total_bytes for s in first.core.streams(first.params)
                if s.is_write)
            t_noc = inter_bytes / (n_serve * self.noc.link_bw)
        t_ctrl = plan.count * LOOP_REARM_TIME / n_serve
        t_reroute, e_reroute, e_by_server = self._reroute_terms(
            mem.bytes_moved, reroutes)
        time = (max(mem.time, t_compute, t_noc, t_ctrl, t_reroute)
                + PASS_ARM_TIME)
        # heat buckets (a pure decomposition of the energy accumulated
        # below): DRAM joules land on the vault nodes, tile logic on
        # the serving vaults, NoC + CU on the logic-layer node, and
        # rerouted-stripe transport on the carrying server vaults
        energy = mem.energy
        heat_dram = mem.energy
        if time > mem.time:
            e_static = self.device.static_power() * (time - mem.time)
            energy += e_static
            heat_dram += e_static
        heat_tiles = 0.0
        for comp in plan.comps:
            activity = min(
                1.0, compute_times[comp.core.name] / time if time else 0.0)
            e_logic = comp.core.logic_power(
                activity=max(activity, 0.25), tiles=n_serve) * time
            energy += e_logic
            heat_tiles += e_logic
        heat_logic = (noc_power() + CU_POWER) * time
        energy += (noc_power() + CU_POWER) * time + e_reroute
        heat = {"dram": heat_dram, "tiles": heat_tiles,
                "logic": heat_logic, "reroute": e_by_server}
        return ExecResult(time=time, energy=energy), compute_times, heat

    def _reroute_terms(self, bytes_moved: float,
                       reroutes: Mapping[int, int]
                       ) -> Tuple[float, float, Dict[int, float]]:
        """Mesh transport cost of the rerouted vault stripes.

        Returns ``(time, energy, energy by serving tile)`` — the
        per-server split feeds the thermal model (the carrying tile's
        vault takes the transport heat)."""
        if not reroutes:
            return 0.0, 0.0, {}
        stripe = bytes_moved / self.device.units
        by_server: Dict[int, List[int]] = {}
        for vault, server in reroutes.items():
            by_server.setdefault(server, []).append(vault)
        t_reroute = 0.0
        e_reroute = 0.0
        e_by_server: Dict[int, float] = {}
        for server, vaults in by_server.items():
            # batch hop kernel (vectorized XY when the mesh is healthy);
            # the energy sum below stays in per-vault Python order
            hops = [int(h) for h in
                    self.noc.route_hops_batch(vaults, server)]
            t_group = (max(hops) * self.noc.hop_latency
                       + stripe * len(vaults) / self.noc.link_bw)
            t_reroute = max(t_reroute, t_group)
            e_group = sum(h * stripe * self.noc.energy_per_byte_hop
                          for h in hops)
            e_reroute += e_group
            e_by_server[server] = e_by_server.get(server, 0.0) + e_group
        return t_reroute, e_reroute, e_by_server

    def _inject_structural_faults(self) -> Optional[Tuple[int, int]]:
        """Apply this execution's injected tile/link faults.

        Returns the link flapped for just this execution (to restore
        afterwards), if any. Raises :class:`CuHangError` when the
        doorbell draw hangs the CU.
        """
        draw = self.faults.sample_tile_failure()
        if draw is not None:
            healthy = sorted(v for v, t in self.layer.tiles.items()
                             if not t.failed)
            if healthy:
                self.layer.mark_tile_failed(healthy[draw % len(healthy)])
        draw = self.faults.sample_link_failure()
        if draw is not None:
            links = self.noc.healthy_links()
            if links:
                self.noc.fail_link(*links[draw % len(links)])
        flapped: Optional[Tuple[int, int]] = None
        draw = self.faults.sample_link_flap()
        if draw is not None:
            links = self.noc.healthy_links()
            if links:
                flapped = links[draw % len(links)]
                self.noc.fail_link(*flapped)
        return flapped

    def _degradation(self) -> Tuple[List[int], Optional[Degradation]]:
        """Current serving tiles + degradation record, or raise
        :class:`TileFailedError` when no accelerated execution is
        possible (every tile dead, or a vault unreachable)."""
        serving = self.layer.serving_tiles()
        if not serving:
            raise TileFailedError(
                f"tiles on vaults {self.layer.failed_tiles()} are all "
                "failed; no tile can serve the descriptor")
        if len(serving) == len(self.layer.tiles):
            return serving, None            # every vault serves itself
        reroutes = self.layer.reroute_map(serving)
        unreachable = sorted(v for v, s in reroutes.items() if s is None)
        if unreachable:
            raise TileFailedError(
                f"no serving tile can reach vaults {unreachable} over "
                f"the degraded mesh (failed links: "
                f"{sorted(self.noc.failed_links)})")
        return serving, Degradation(
            serving=tuple(serving),
            reroutes={v: s for v, s in reroutes.items()})

    def run_descriptor(self, desc_pa: int, desc_bytes: int,
                       functional: bool = True,
                       concurrency: int = 1) -> DescriptorExecution:
        """Execute a descriptor: functional effects + time/energy.

        A dead tile (or a mesh-isolated one) no longer aborts the
        execution: its vault's data stripe is rerouted over TSV + mesh
        to the surviving tiles and the pass runs degraded, with the
        detour's bandwidth/energy cost reported in
        :attr:`DescriptorExecution.reroute_overhead`. Raises
        :class:`TileFailedError` only when *no* tile can serve the
        descriptor (all dead, or a vault cut off by link failures),
        :class:`CuHangError` when an injected hang eats the doorbell,
        and :class:`DescriptorError`/:class:`DescriptorIntegrityError`
        when the fetched descriptor image fails validation.

        ``concurrency`` is the number of descriptor streams sharing
        the stack while this one runs (the serving runtime's admission
        width). Each pass's drain stretches by the layer's
        :meth:`~repro.accel.layer.AcceleratorLayer.contention_slowdown`
        and the stretch is priced at static power into
        :attr:`DescriptorExecution.contention_overhead` — the nominal
        decomposition (accelerator shares, reroute, throttle) is never
        repriced, so ``concurrency=1`` is bit-identical to a build
        that predates the knob.
        """
        if concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {concurrency}")
        flapped: Optional[Tuple[int, int]] = None
        if self.faults is not None:
            flapped = self._inject_structural_faults()
        try:
            if self.faults is not None and self.faults.sample_hang():
                raise CuHangError(
                    "configuration unit did not acknowledge the doorbell")
            serving, degradation = self._degradation()
            image = self.fetch(desc_pa, desc_bytes)
            # DVFS state is sampled once per execution: the governor is
            # only re-polled by the runtime after the thermal step
            # (pure reads, so sampling before decode changes nothing)
            slowdown = 1.0
            throttled: List[int] = []
            if self.governor is not None:
                slowdown = self.governor.pass_slowdown(serving)
                throttled = self.governor.throttled_vaults(serving)
            cache = self.schedule_cache
            key = None
            if cache is not None:
                key = (desc_pa, desc_bytes, image, tuple(serving),
                       (tuple(sorted(degradation.reroutes.items()))
                        if degradation is not None else ()),
                       slowdown, tuple(throttled),
                       self.governor is not None, concurrency)
                entry = cache.lookup(key)
                if entry is not None:
                    # replay: every *live* side effect still runs —
                    # SECDED adjudication, functional execution,
                    # throttle bookkeeping — only descriptor decode,
                    # tile programming and the memory-system model are
                    # replayed from the cached (bit-identical) entry
                    self._guard_datapath(entry.plans)
                    if functional:
                        for plan in entry.plans:
                            self.run_functional(plan)
                    execution = entry.replay()
                    if (self.governor is not None
                            and execution.throttle_overhead.time > 0.0):
                        self.governor.stats.note_throttled(
                            execution.throttle_overhead.time, throttled)
                    return execution
            plans = self.plans_from_image(image, desc_pa,
                                          require_start=True)
            self._guard_datapath(plans)
            fetch_time = FU_FETCH_LATENCY + desc_bytes / FU_FETCH_BW
            total = ExecResult(time=fetch_time,
                               energy=fetch_time * CU_POWER)
            by_accel: Dict[str, ExecResult] = {}
            reroute_total = ZERO
            throttle_total = ZERO
            contention_total = ZERO
            # vault-bandwidth contention: co-running descriptor streams
            # time-share every vault's TSV bus, so each pass's drain
            # stretches by the layer's slowdown factor (1.0 when alone)
            contend = (self.layer.contention_slowdown(concurrency)
                       if concurrency > 1 else 1.0)
            invocations = 0
            vault_heat: Optional[Dict[int, float]] = None
            logic_heat = 0.0
            if self.governor is not None:
                vault_heat = {v: 0.0 for v in range(self.device.units)}
                logic_heat = fetch_time * CU_POWER
            for plan in plans:
                self._configure_tiles(plan, serving)
                if functional:
                    self.run_functional(plan)
                pass_result, _, overhead, heat = self._model_pass(
                    plan, degradation)
                throttle_ov = ZERO
                if slowdown < 1.0:
                    # frequency-only DVFS: dynamic joules are unchanged,
                    # the stretched drain costs extra static power
                    stretch = pass_result.time * (1.0 / slowdown - 1.0)
                    throttle_ov = ExecResult(
                        time=stretch,
                        energy=self.device.static_power() * stretch)
                contention_ov = ZERO
                if contend > 1.0:
                    # time-shared vault bandwidth: the pass drain takes
                    # `contend` times its solo duration; dynamic joules
                    # are unchanged, the extra residency costs static
                    # power (the throttle-stretch pricing convention).
                    # Like scrub, the stretch is *ledgered* but never
                    # added to the returned result: the solo
                    # decomposition stays bit-identical whatever the
                    # admission width, and the serving runtime folds
                    # the stretch into the request's latency instead.
                    stretch = pass_result.time * (contend - 1.0)
                    contention_ov = ExecResult(
                        time=stretch,
                        energy=self.device.static_power() * stretch)
                total = total.plus(pass_result).plus(throttle_ov)
                reroute_total = reroute_total.plus(overhead)
                throttle_total = throttle_total.plus(throttle_ov)
                contention_total = contention_total.plus(contention_ov)
                # attribute the healthy-equivalent share of the pass to
                # its accelerators; the degradation excess is reported
                # separately so the reroute ledger can carry it (and the
                # throttle excess likewise for the throttle category)
                base = ExecResult(pass_result.time - overhead.time,
                                  pass_result.energy - overhead.energy)
                share = base.time / max(len(plan.comps), 1)
                for comp in plan.comps:
                    prev = by_accel.get(comp.core.name, ZERO)
                    frac = ExecResult(
                        time=share,
                        energy=base.energy / len(plan.comps))
                    by_accel[comp.core.name] = prev.plus(frac)
                invocations += plan.count * len(plan.comps)
                if vault_heat is not None:
                    units = self.device.units
                    # DRAM joules interleave over every vault; tile
                    # logic heats the serving vaults; NoC + CU heat the
                    # logic node; rerouted stripes heat their carriers;
                    # the throttle's static excess spreads like DRAM
                    per_vault = heat["dram"] / units
                    for v in vault_heat:
                        vault_heat[v] += per_vault
                    per_tile = heat["tiles"] / len(serving)
                    for v in serving:
                        vault_heat[v] += per_tile
                    logic_heat += heat["logic"]
                    for server, e_srv in heat["reroute"].items():
                        vault_heat[server] += e_srv
                    if throttle_ov.energy > 0.0:
                        per_vault = throttle_ov.energy / units
                        for v in vault_heat:
                            vault_heat[v] += per_vault
                    if contention_ov.energy > 0.0:
                        # the contention stretch is DRAM static burn:
                        # it spreads over every vault, like throttle
                        per_vault = contention_ov.energy / units
                        for v in vault_heat:
                            vault_heat[v] += per_vault
                self._release_tiles()
            if self.governor is not None and throttle_total.time > 0.0:
                self.governor.stats.note_throttled(throttle_total.time,
                                                   throttled)
            execution = DescriptorExecution(
                result=total, by_accelerator=by_accel,
                invocations=invocations, passes=len(plans),
                reroute_overhead=reroute_total,
                tiles_used=len(serving),
                rerouted_vaults=(len(degradation.reroutes)
                                 if degradation is not None else 0),
                throttle_overhead=throttle_total,
                throttled_vaults=len(throttled),
                contention_overhead=contention_total,
                contending_streams=concurrency,
                vault_heat=vault_heat,
                logic_heat=logic_heat)
            if cache is not None:
                cache.store(key, plans, execution, throttled)
            return execution
        finally:
            if flapped is not None:
                self.noc.restore_link(*flapped)
