"""The repository benchmark: simulator speed and modelled results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: paper-figures, serving-sweep, compile-corpus and
hardened-calls (see ``perfbench/README.md`` for why each exists);
``--workload all`` runs each of them in turn in a fresh process.

With ``--trace 0`` a run repeats fresh set-ups and passes of the
workload's fixed work for ``--seconds`` (at least one pass; another
pass starts only if it should end in time), checks the first pass and
prints the end-to-end metrics. Spread over the run, it also times the
imports in seven fresh interpreters and the set-up at least seven
times; set-up time is the sum of the two medians. Its host times are
CPU times scaled to the reference host speed by chunks of a fixed
kernel timed around and during each pass (``calib.py``); the raw
times are printed beside them. With ``--trace 1`` it runs one
untraced pass (after a warm-up pass when passes are short), then one
pass with the layer tracer installed, and prints the per-layer
metrics, trace coverage and tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, the machine, and
one JSON line with the full record.
"""

from __future__ import annotations

import os

# one thread per process: no BLAS or OpenMP pool beside the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "paper-figures": "wl_paper",
    "serving-sweep": "wl_serving",
    "compile-corpus": "wl_compile",
    "hardened-calls": "wl_hardened",
}

#: The seed later claims are made on, and one held out for confirming
#: them (see README.md).
DEFAULT_SEED = 2015
HELD_OUT_SEED = 7919

#: Fresh interpreters that time the imports, and at least as many
#: set-ups; both are spread over the run.
SETUP_REPEATS = 7

#: Calibration chunks taken before and after the measured passes.
CAL_EDGE_CHUNKS = 10

#: A traced run's first untraced pass is measured itself when it lasts
#: at least this long (paper-figures); a shorter one is a warm-up.
LONG_PASS_S = 5.0

END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _machine() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def _import_seconds(modules) -> float:
    """CPU time of importing the workload's modules in a fresh
    interpreter."""
    code = ("import importlib, time\nt = time.process_time()\n"
            f"for m in {tuple(modules)!r}:\n    importlib.import_module(m)\n"
            "print(time.process_time() - t)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass
class Passes:
    """What one untraced run measured. Host times are CPU seconds;
    the ``*_scaled`` lists hold the same samples in reference seconds,
    each scaled by the calibration chunks right around it."""

    first: tuple = None          # (state, outcome) of the checked pass
    mismatched: int = 0          # later passes that differed from it
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    cpus_scaled: list = field(default_factory=list)
    imports: list = field(default_factory=list)
    imports_scaled: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    setups_scaled: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)


def _between_chunks(cal: Calibrator, measure):
    """``measure()`` between two calibration chunks, and the scale
    those chunks give."""
    since = len(cal.samples)
    cal.sample()
    value = measure()
    cal.sample()
    return value, cal.scale(since)


def _run_passes(wl, seed: int, seconds: float, cal: Calibrator) -> Passes:
    """Fresh set-up and execute passes for ``seconds``, with calibration
    chunks around each set-up and pass and during each pass, and import
    probes spread over the run."""
    clock, cpu = time.perf_counter, time.process_time
    run = Passes()
    start = clock()
    deadline = start + seconds

    def import_probe():
        value, scale = _between_chunks(
            cal, lambda: _import_seconds(wl.IMPORTS))
        run.imports.append(value)
        run.imports_scaled.append(value * scale)

    def set_up():
        c0 = cpu()
        state = wl.setup(seed, ROOT)
        run.setups.append(cpu() - c0)
        return state

    while True:
        if len(run.imports) < SETUP_REPEATS and \
                clock() >= start + len(run.imports) * seconds / SETUP_REPEATS:
            import_probe()
        state, scale = _between_chunks(cal, set_up)
        run.setups_scaled.append(run.setups[-1] * scale)
        # the chunks right before, during and right after the pass
        since = len(cal.samples) - 1
        spent_wall, spent_cpu = cal.spent_wall, cal.spent_cpu
        t0, c0 = clock(), cpu()
        outcome = wl.execute(state, cal.tick)
        run.walls.append(clock() - t0 - (cal.spent_wall - spent_wall))
        run.cpus.append(cpu() - c0 - (cal.spent_cpu - spent_cpu))
        cal.sample()
        run.cpus_scaled.append(run.cpus[-1] * cal.scale(since))
        run.op_ms.extend(outcome.op_ms)
        if run.first is None:
            run.first = (state, outcome)
        elif outcome.signature != run.first[1].signature:
            run.mismatched += 1
        # free this pass's systems now, so peak memory does not depend
        # on when the collector happens to run
        del state, outcome
        gc.collect()
        # start another pass only if it should end by the deadline
        if clock() + run.walls[-1] > deadline:
            break
    while len(run.imports) < SETUP_REPEATS:
        import_probe()
    while len(run.setups) < SETUP_REPEATS:
        _, scale = _between_chunks(cal, set_up)
        run.setups_scaled.append(run.setups[-1] * scale)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    module_name = WORKLOADS[args.workload]
    wl = importlib.import_module(module_name)
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print("error: repro was not imported from this checkout",
              file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine()}
    if args.trace:
        result = _traced(wl, args, record)
    else:
        result = _untraced(wl, args, record)
    for name, (value, unit) in record["metrics_by_name"].items():
        print(f"{name} = {value!r} {unit}")
    # strict JSON: a p99 that shed requests missed is infinite
    record["metrics_by_name"] = {
        name: (value if math.isfinite(value) else str(value), unit)
        for name, (value, unit) in record["metrics_by_name"].items()}
    print(json.dumps(record, sort_keys=True, allow_nan=False))
    print(json.dumps(result, sort_keys=True))
    return 0


def _run_all(args) -> int:
    """Every workload, each in a fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0,
               "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        print(f"== {workload}")
        print(out.stdout, end="")
        result = json.loads(out.stdout.splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary, sort_keys=True))
    return 0


def _checks(wl, seed, state, outcome, passes, mismatched, record):
    """The workload's checks on its first pass. The operations counted
    are one pass's fixed work, so the counts depend on the seed alone,
    not on how many passes fit in the run. A later pass that reproduced
    the first exactly repeats its outcome; if any did not, every
    operation counts as failed."""
    attempted, failed, failures = wl.check(seed, state, outcome)
    if mismatched:
        failures.append(f"{mismatched} of {passes} passes differ from "
                        "the checked pass")
        failed = attempted
    record["check_failures"] = failures
    record["error_rate"] = failed / attempted
    return attempted, failed, failures


def _untraced(wl, args, record) -> dict:
    cal = Calibrator()
    cal.sample(CAL_EDGE_CHUNKS)
    run = _run_passes(wl, args.seed, args.seconds, cal)
    cal.sample(CAL_EDGE_CHUNKS)
    state, outcome = run.first
    median = statistics.median
    attempted, failed, failures = _checks(wl, args.seed, state, outcome,
                                          len(run.walls), run.mismatched,
                                          record)
    metrics = {
        "cpu_s": median(run.cpus_scaled),
        "setup_s": median(run.imports_scaled) + median(run.setups_scaled),
        "peak_rss_mb": _peak_rss_mb(),
    }
    by_name = {name: (metrics[name], unit) for name, unit in END_TO_END}
    by_name["wall_s"] = (median(run.walls), "s")
    by_name["cpu_raw_s"] = (median(run.cpus), "s")
    by_name["setup_raw_s"] = (median(run.imports) + median(run.setups), "s")
    by_name["host_speed"] = (cal.scale(), "x")
    by_name["error_rate"] = (record["error_rate"], "share")
    if getattr(wl, "OP", None):
        # per program or per call, pooled over every pass of the run
        by_name["op_p50_ms"] = (_percentile(run.op_ms, 0.50), "ms")
        by_name["op_p90_ms"] = (_percentile(run.op_ms, 0.90), "ms")
        by_name["op_samples"] = (len(run.op_ms), wl.OP)
    by_name.update(wl.report(state, outcome))
    record.update(passes=len(run.walls), pass_walls_s=run.walls,
                  pass_cpus_s=run.cpus, pass_cpus_scaled_s=run.cpus_scaled,
                  setup_runs_s=run.setups, import_runs_s=run.imports,
                  calibration_chunks_s=cal.samples,
                  metrics_by_name=by_name)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def _traced(wl, args, record) -> dict:
    from tracer import LAYER_METRICS, Tracer
    cal = Calibrator()

    def timed(state):
        """A pass, its wall time and its CPU time scaled by the
        calibration chunks right around it."""
        since = len(cal.samples)
        cal.sample(3)
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = wl.execute(state)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        cal.sample(3)
        return outcome, wall, cpu * cal.scale(since)

    warmed = False
    # a short first pass only warms up; a long one is measured itself
    while True:
        plain, untraced_s, untraced_cpu = timed(wl.setup(args.seed, ROOT))
        if untraced_s >= LONG_PASS_S or warmed:
            break
        warmed = True

    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(args.seed, ROOT)
        tracer.reset()
        outcome, traced_s, traced_cpu = timed(state)
    finally:
        tracer.uninstall()
    mismatched = int(outcome.signature != plain.signature)
    attempted, failed, failures = _checks(wl, args.seed, state, outcome,
                                          1, mismatched, record)
    extras = wl.layer_extras(plain)
    extras["trace.coverage"] = tracer.coverage(traced_s)
    extras["trace.overhead"] = traced_cpu / untraced_cpu - 1.0
    values = tracer.metrics(extras)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in LAYER_METRICS}
    record.update(untraced_wall_s=untraced_s, traced_wall_s=traced_s,
                  untraced_cpu_scaled_s=untraced_cpu,
                  traced_cpu_scaled_s=traced_cpu,
                  tracer_hook_s=tracer.hook_s, spans=tracer.span_table(),
                  metrics_by_name={n: (m["value"], m["unit"])
                                   for n, m in metrics.items()})
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
