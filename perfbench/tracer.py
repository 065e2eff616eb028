"""Layer tracer: spans and counts at the public boundary of each layer.

The tracer wraps public functions and methods of the ``repro`` layers
from outside the program: every binding of a target function in a
loaded ``repro`` module, and every class in a target method's
hierarchy that defines it, is replaced by a timing wrapper. Nothing in
``src/`` is edited and the untraced run never installs a wrapper.

Spans nest on one stack. A span's self time is its duration minus the
time covered by the spans it called; counts are taken at the same
boundaries. Everything stays in memory until :meth:`Tracer.metrics`
folds it into the per-layer metric set at the end of the run.

Repeat shares (``*.repeat_frac``) are the share of calls whose inputs
equal an earlier call's inputs in the same traced pass: for a vault
drain the controller's timing constants, window, start state and the
(bank, row, is_write) columns; for ``simulate_streams`` the device
configuration, the stream specs and the sample window. Keys are hashed
before the span starts and their cost is excluded from every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) for every wrapped boundary. The
#: span name is the prefix of its layer metrics (each eval generator
#: gets its own span); spans without a reported metric, such as
#: ``faults.injector``, still count towards coverage.
SPANS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # repro.memsys
    ("memsys.vault", "repro.memsys.vault",
     ("VaultController.service_arrays",)),
    ("memsys.device", "repro.memsys.device",
     ("MemoryDevice.run_trace", "MemoryDevice.run_trace_arrays")),
    ("memsys.device", "repro.memsys.address",
     ("AddressMapping.decompose_batch",)),
    ("memsys.simulate", "repro.memsys.trace",
     ("simulate_streams",)),
    # repro.core
    ("core.plan", "repro.core.runtime", ("MealibRuntime.acc_plan",)),
    ("core.execute", "repro.core.runtime",
     ("MealibRuntime.acc_execute",)),
    ("core.destroy", "repro.core.runtime",
     ("MealibRuntime.acc_destroy",)),
    ("core.run_descriptor", "repro.core.config_unit",
     ("ConfigurationUnit.run_descriptor",)),
    ("core.decode", "repro.core.config_unit",
     ("ConfigurationUnit.decode", "ConfigurationUnit.plans_from_image")),
    ("core.cache", "repro.core.schedule_cache",
     ("ScheduleCache.lookup", "ScheduleCache.store")),
    ("core.ledger", "repro.core.runtime", ("Ledger.log",)),
    # repro.accel
    ("accel.noc", "repro.accel.noc",
     ("MeshNoc.route", "MeshNoc.route_hops", "MeshNoc.hops_batch",
      "MeshNoc.route_hops_batch", "MeshNoc.reachable",
      "MeshNoc.transfer_time", "MeshNoc.transfer_energy")),
    ("accel.noc", "repro.accel.layer",
     ("AcceleratorLayer.serving_tiles", "AcceleratorLayer.reroute_map")),
    ("accel.model", "repro.accel.base",
     ("AcceleratorCore.run", "AcceleratorCore.profile",
      "AcceleratorCore.streams", "AcceleratorCore.model",
      "AcceleratorCore.operand_spans")),
    ("accel.model", "repro.accel.design_space",
     ("explore_fft", "explore_spmv")),
    # repro.faults
    ("faults.datapath", "repro.faults.datapath",
     ("DatapathEcc.guard", "DatapathEcc.drain_stream_overhead")),
    ("faults.scrub", "repro.faults.scrub", ("PatrolScrubber.tick",)),
    ("faults.injector", "repro.faults.injector",
     ("FaultInjector.deposit_latent_flips",
      "FaultInjector.drain_correction_cost",
      "FaultInjector.corrupt_descriptor", "FaultInjector.dram_read",
      "FaultInjector.sample_hang", "FaultInjector.sample_tile_failure",
      "FaultInjector.sample_link_failure",
      "FaultInjector.sample_link_flap")),
    # repro.thermal
    ("thermal.rc", "repro.thermal.rc",
     ("ThermalModel.advance", "ThermalModel.arrhenius_factors")),
    ("thermal.governor", "repro.thermal.governor",
     ("PowerGovernor.poll", "PowerGovernor.pass_slowdown",
      "PowerGovernor.throttled_vaults")),
    # repro.serving
    ("serving.sched", "repro.serving.runtime",
     ("ServingRuntime.run", "ServingRuntime.submit",
      "ServingRuntime.submit_plan", "ServingRuntime.submit_arrival")),
    ("serving.batching", "repro.serving.batching",
     ("coalesce", "call_sizes", "BatchPolicy.batchable")),
    # repro.compiler
    ("compiler.parse", "repro.compiler.cparser", ("parse_source",)),
    ("compiler.recognize", "repro.compiler.recognizer", ("recognize",)),
    ("compiler.analysis", "repro.compiler.analysis.rules",
     ("analyze_source", "check_program", "apply_demotions",
      "rejection_errors")),
    ("compiler.certify", "repro.compiler.analysis.certificates",
     ("certify_schedule",)),
    ("compiler.deptest", "repro.compiler.analysis.deptest",
     ("same_iteration_verdict", "cross_iteration_verdict")),
    ("compiler.rewrite", "repro.compiler.rewrite.engine",
     ("rewrite_schedule",)),
    ("compiler.passes", "repro.compiler.passes", ("optimize",)),
    ("compiler.translate", "repro.compiler.translate", ("translate",)),
    # repro.eval: the paper-figure generators
    ("eval", "repro.eval.figures",
     ("fig1", "table1", "table2", "table3", "table4", "figs9_10",
      "table5", "fig11", "fig12", "figs13_14")),
)

#: Generator function names behind ``python -m repro.eval all``.
EVAL_GENERATORS = ("fig1", "table1", "table2", "table3", "table4",
                   "figs9_10", "table5", "fig11", "fig12", "figs13_14")

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("memsys.vault.calls", "count"),
    ("memsys.vault.self_s", "s"),
    ("memsys.vault.requests", "count"),
    ("memsys.vault.repeat_frac", "share"),
    ("memsys.device.self_s", "s"),
    ("memsys.simulate.calls", "count"),
    ("memsys.simulate.self_s", "s"),
    ("memsys.simulate.repeat_frac", "share"),
    ("core.plan.calls", "count"),
    ("core.plan.self_s", "s"),
    ("core.execute.calls", "count"),
    ("core.execute.self_s", "s"),
    ("core.run_descriptor.self_s", "s"),
    ("core.decode.calls", "count"),
    ("core.decode.self_s", "s"),
    ("core.cache.hit_frac", "share"),
    ("core.cache.stale_evictions", "count"),
    ("core.ledger.entries", "count"),
    ("accel.noc.calls", "count"),
    ("accel.noc.self_s", "s"),
    ("accel.model.calls", "count"),
    ("accel.model.self_s", "s"),
    ("faults.datapath.self_s", "s"),
    ("faults.scrub.calls", "count"),
    ("faults.scrub.self_s", "s"),
    ("faults.ecc_corrections", "count"),
    ("thermal.rc.calls", "count"),
    ("thermal.rc.self_s", "s"),
    ("thermal.governor.self_s", "s"),
    ("thermal.throttled_frac", "share"),
    ("serving.sched.self_s", "s"),
    ("serving.batching.self_s", "s"),
    ("serving.batch_size_mean", "requests"),
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p99_ms", "ms"),
    ("serving.shed_frac", "share"),
    ("serving.contended_frac", "share"),
    ("compiler.parse.calls", "count"),
    ("compiler.parse.self_s", "s"),
    ("compiler.recognize.self_s", "s"),
    ("compiler.analysis.self_s", "s"),
    ("compiler.certify.self_s", "s"),
    ("compiler.deptest.calls", "count"),
    ("compiler.deptest.enumeration_frac", "share"),
    ("compiler.rewrite.self_s", "s"),
    ("compiler.rewrite.applied_frac", "share"),
    ("compiler.passes.self_s", "s"),
    ("compiler.untyped_errors", "count"),
) + tuple((f"eval.{name}.wall_s", "s") for name in EVAL_GENERATORS) + (
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _load_repro_modules() -> List[object]:
    """Import every ``repro`` module, so that lazily imported names are
    bound (and patched) before the traced pass starts."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds, inclusive seconds]
        self.spans: Dict[str, List[float]] = {}
        #: named counts taken at span boundaries
        self.counts: Dict[str, int] = {}
        #: time spent computing repeat keys and counts (excluded from
        #: every span and from the coverage denominator)
        self.hook_s = 0.0
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._seen: Dict[str, set] = {"vault": set(), "simulate": set()}

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.hook_s = 0.0
        for seen in self._seen.values():
            seen.clear()

    # -- counting hooks --------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _repeat(self, kind: str, key) -> None:
        seen = self._seen[kind]
        digest = hash(key)
        if digest in seen:
            self._count(f"{kind}.repeats")
        else:
            seen.add(digest)

    def _before_vault(self, args, kwargs):
        ctrl, banks, rows, writes = args[:4]
        start = args[4] if len(args) > 4 else kwargs.get("start", 0.0)
        # the controller's bank and bus state is an input of the drain
        # too (it is fresh for every drain run_trace_arrays starts)
        self._count("vault.requests", len(banks))
        self._repeat("vault", (
            ctrl.timing.drain_constants, ctrl.window, start,
            ctrl._bus_free_at, tuple(b.open_row for b in ctrl.banks),
            tuple(banks), tuple(rows), tuple(writes)))

    def _before_simulate(self, args, kwargs):
        device, streams = args[:2]
        window = args[2] if len(args) > 2 else kwargs.get("window_elems")
        self._repeat("simulate", repr((
            type(device).__name__, device.timing, device.energy,
            device.units, device.reorder_window, device.mapping,
            device.ecc is not None, tuple(streams), window)))

    def _before_lookup(self, args, kwargs):
        return args[0].stats.stale_evictions

    def _after_lookup(self, token, args, result):
        self._count("cache.lookups")
        if result is not None:
            self._count("cache.hits")
        self._count("cache.stale_evictions",
                    args[0].stats.stale_evictions - token)

    def _after_run_descriptor(self, token, args, result):
        self._count("descriptor.executions")
        if result.throttled_vaults:
            self._count("descriptor.throttled")

    def _after_drain(self, token, args, result):
        self._count("ecc.corrections", result[1])

    def _after_verdict(self, token, args, result):
        if result.fallback:
            self._count("deptest.fallbacks")

    def _after_rewrite(self, token, args, result):
        self._count("rewrite.decisions", len(result.decisions))
        self._count("rewrite.applied",
                    sum(1 for d in result.decisions if d.applied))

    def _hooks(self, attr: str) -> Tuple[Optional[Callable],
                                         Optional[Callable]]:
        return {
            "VaultController.service_arrays": (self._before_vault, None),
            "simulate_streams": (self._before_simulate, None),
            "ScheduleCache.lookup": (self._before_lookup,
                                     self._after_lookup),
            "ConfigurationUnit.run_descriptor": (
                None, self._after_run_descriptor),
            "FaultInjector.drain_correction_cost": (None,
                                                    self._after_drain),
            "same_iteration_verdict": (None, self._after_verdict),
            "cross_iteration_verdict": (None, self._after_verdict),
            "rewrite_schedule": (None, self._after_rewrite),
        }.get(attr, (None, None))

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before: Optional[Callable],
              after: Optional[Callable]) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            token = None
            if before is not None:
                h0 = clock()
                token = before(args, kwargs)
                dh = clock() - h0
                tracer.hook_s += dh
                if stack:
                    stack[-1] += dh
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                stats[2] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                h0 = clock()
                after(token, args, result)
                dh = clock() - h0
                tracer.hook_s += dh
                if stack:
                    stack[-1] += dh
            return result

        return span

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every boundary in :data:`SPANS`."""
        modules = _load_repro_modules()
        for span_name, module_name, attrs in SPANS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                before, after = self._hooks(attr)
                name = (f"{span_name}.{attr}" if span_name == "eval"
                        else span_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._wrap_method(getattr(module, cls_name), meth,
                                      name, before, after)
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original, before, after)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)

    def _wrap_method(self, cls: type, meth: str, name: str,
                     before, after) -> None:
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            fn = klass.__dict__.get(meth)
            if fn is None or not inspect.isfunction(fn):
                continue
            self._patch(klass, meth, self._wrap(name, fn, before, after))

    def uninstall(self) -> None:
        """Restore every patched binding (in reverse order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- folding ---------------------------------------------------------------

    def _span(self, prefix: str) -> Tuple[int, float]:
        calls, self_s = 0, 0.0
        for name, (n, s, _) in self.spans.items():
            if name == prefix or name.startswith(prefix + "."):
                calls += int(n)
                self_s += s
        return calls, self_s

    def coverage(self, wall_s: float) -> float:
        """Sum of every span's self time over the traced wall time,
        less the tracer's own hook time."""
        covered = sum(s for _, s, _ in self.spans.values())
        return _ratio(covered, wall_s - self.hook_s)

    def metrics(self, extras: Dict[str, float]) -> Dict[str, float]:
        """The per-layer metric values (``extras`` supplies the ones a
        workload computes from its own objects)."""
        c = self.counts
        out: Dict[str, float] = {}
        for prefix in ("memsys.vault", "memsys.simulate", "core.plan",
                       "core.execute", "core.decode", "accel.noc",
                       "accel.model", "faults.scrub", "thermal.rc",
                       "compiler.parse", "compiler.deptest"):
            out[f"{prefix}.calls"] = self._span(prefix)[0]
        for prefix in ("memsys.vault", "memsys.device", "memsys.simulate",
                       "core.plan", "core.execute", "core.run_descriptor",
                       "core.decode", "accel.noc", "accel.model",
                       "faults.datapath", "faults.scrub",
                       "thermal.rc", "thermal.governor", "serving.sched",
                       "serving.batching", "compiler.parse",
                       "compiler.recognize", "compiler.analysis",
                       "compiler.certify", "compiler.rewrite",
                       "compiler.passes"):
            out[f"{prefix}.self_s"] = self._span(prefix)[1]
        vault_calls = out["memsys.vault.calls"]
        out["memsys.vault.requests"] = c.get("vault.requests", 0)
        out["memsys.vault.repeat_frac"] = _ratio(
            c.get("vault.repeats", 0), vault_calls)
        out["memsys.simulate.repeat_frac"] = _ratio(
            c.get("simulate.repeats", 0), out["memsys.simulate.calls"])
        out["core.cache.hit_frac"] = _ratio(c.get("cache.hits", 0),
                                            c.get("cache.lookups", 0))
        out["core.cache.stale_evictions"] = c.get(
            "cache.stale_evictions", 0)
        out["core.ledger.entries"] = self._span("core.ledger")[0]
        out["faults.ecc_corrections"] = c.get("ecc.corrections", 0)
        out["thermal.throttled_frac"] = _ratio(
            c.get("descriptor.throttled", 0),
            c.get("descriptor.executions", 0))
        out["compiler.deptest.enumeration_frac"] = _ratio(
            c.get("deptest.fallbacks", 0), out["compiler.deptest.calls"])
        out["compiler.rewrite.applied_frac"] = _ratio(
            c.get("rewrite.applied", 0), c.get("rewrite.decisions", 0))
        out.update(extras)
        return out

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Raw per-span totals, for the run's side report."""
        return {name: {"calls": int(n), "self_s": s, "total_s": t}
                for name, (n, s, t) in sorted(self.spans.items())}
