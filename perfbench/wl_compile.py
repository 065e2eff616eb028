"""compile-corpus: the C front end, analysis, certification, rewrite and
lowering, with no execution in the timed phase.

Each operation compiles one program twice over, the way the analyzer
CLI and the translator see it: ``analyze_source(src, rewrite=True)``
then ``translate(src, rewrite=True)``. The inputs are the nine legacy
corpus files, the generated STAP (three functional presets) and SAR
sources, seeded generated programs (producer/transpose chains with and
without a hoistable middle loop or a broadcast read, OpenMP loops, and
multi-function programs) and a fixed share of seeded single-token
mutations of the legacy corpus.

A mutated program passes if it compiles or fails with a typed
``CompilerError``/``CParseError``; any other exception is a failed
operation. Outside the timed phase every program that translates runs
in the reference interpreter and on MEALib, and the two runs must leave
bit-identical buffers.
"""

from __future__ import annotations

import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.sar import SarConfig, sar_inputs, sar_source
from repro.apps.stap import PRESETS, stap_inputs, stap_source
from repro.compiler import (CompilerError, CParseError, run_original,
                            run_translated, translate)
from repro.compiler.analysis.rules import analyze_source
from repro.compiler.recognizer import AccelCallStep
from repro.core.system import MealibSystem

IMPORTS = ("repro.apps.sar", "repro.apps.stap", "repro.compiler",
           "repro.compiler.analysis.rules", "repro.core.system")

#: Seeded generated programs per shape, and seeded mutants per legacy
#: corpus file: 216 of the 277 programs in a pass (78%) are mutants.
#: Enough of each that the seed moves a pass's host time by little.
GENERATED = {"chain": 24, "omp": 16, "multifn": 8}
MUTANTS_PER_FILE = 24

#: The unit of ``op_p50_ms``/``op_p90_ms``: one program compiled.
OP = "programs"

#: The analyzer decisions CI pins on the legacy corpus.
PINNED = {
    "oob_stride.c": ("code", "MEA015"),
    "racy_saxpy.c": ("code", "MEA008"),
    "fusable_chain.c": ("applied", "MEA018"),
    "illegal_fusion.c": ("rejected", "MEA019"),
}

_TOKEN = re.compile(
    r"[A-Za-z_]\w*|\d+\.?\d*(?:[eE][+-]?\d+)?[fFuUlL]*|<<=|>>=|\+\+|--"
    r"|[+\-*/<>=!]=|&&|\|\||[()\[\]{};,&*+\-/%<>=!#.]")


@dataclass
class Program:
    name: str
    source: str
    kind: str                        # corpus | app | chain | omp | ...
    inputs: Optional[Dict[str, np.ndarray]] = None
    expect: Optional[Tuple[str, str]] = None


@dataclass
class Compiled:
    """What one operation produced (kept for the checks)."""

    status: str                      # ok | typed | untyped:<Exception>
    codes: Tuple[str, ...] = ()
    decisions: Tuple[Tuple[str, bool], ...] = ()
    recognized: int = 0
    offloaded: int = 0
    translated: object = None


@dataclass
class Outcome:
    op_ms: List[float]
    compiled: List[Compiled]
    signature: Tuple = ()
    #: modelled (time, energy) per validated program, set by check()
    model: Tuple[List[float], List[float]] = field(
        default_factory=lambda: ([], []))


# -- program generation --------------------------------------------------------

def _chain(rng: np.random.Generator, match: bool, hoist: bool) -> str:
    rows, cols = [(16, 16), (8, 16), (16, 32)][int(rng.integers(3))]
    chunks = int(rng.choice([4, 8, 16]))
    alpha = float(rng.uniform(0.25, 2.0))
    mid = (f"for (i = 0; i < CHUNKS; ++i)\n"
           f"  cblas_saxpy(CHUNK, {alpha + 1.0:.3f}, &u[i][0], 1, "
           f"&v[i][0], 1);\n") if hoist else ""
    idx = "i" if match else "0"
    return (f"#define R {rows}\n#define C {cols}\n"
            f"#define CHUNK {rows * cols}\n#define CHUNKS {chunks}\n"
            "float gain[CHUNKS][CHUNK];\nfloat acc[CHUNKS][CHUNK];\n"
            "float img[CHUNKS][CHUNK];\nfloat u[CHUNKS][CHUNK];\n"
            "float v[CHUNKS][CHUNK];\nint i;\n"
            "for (i = 0; i < CHUNKS; ++i)\n"
            f"  cblas_saxpy(CHUNK, {alpha:.3f}, &gain[i][0], 1, "
            "&acc[i][0], 1);\n"
            f"{mid}for (i = 0; i < CHUNKS; ++i)\n"
            f"  mkl_somatcopy(R, C, 1.0, &acc[{idx}][0], &img[i][0]);\n")


def _omp(rng: np.random.Generator) -> str:
    m = int(rng.choice([8, 16, 24, 32]))
    n = int(rng.choice([32, 64, 128]))
    alpha = float(rng.uniform(0.25, 2.0))
    body = ("#pragma omp parallel for\nfor (i = 0; i < M; i++) {\n"
            f"  cblas_saxpy(N, {alpha:.3f}, &x[i][0], 1, &y[i][0], 1);\n"
            "}\n")
    if rng.random() < 0.5:
        body += ("#pragma omp parallel for\nfor (i = 0; i < M; i++) {\n"
                 "  cblas_sdot_sub(N, &y[i][0], 1, &w[0], 1, &acc[i]);\n"
                 "}\n")
    if rng.random() < 0.5:
        b = int(rng.choice([2, 4]))
        body += (f"#pragma omp parallel for\nfor (i = 0; i < M; i++) {{\n"
                 f"  for (j = 0; j < {b}; j++) {{\n"
                 f"    cblas_saxpy(N / {b}, 1.0, &x[i][j * (N / {b})], 1, "
                 f"&z[i][j * (N / {b})], 1);\n  }}\n}}\n")
    return (f"#define M {m}\n#define N {n}\n"
            "float x[M][N];\nfloat y[M][N];\nfloat z[M][N];\n"
            "float w[N];\nfloat acc[M];\nint i;\nint j;\n" + body)


def _multifn(rng: np.random.Generator) -> str:
    m = int(rng.choice([8, 16, 32]))
    n = int(rng.choice([32, 64, 128]))
    alpha = float(rng.uniform(0.25, 2.0))
    return (f"#define M {m}\n#define N {n}\n"
            "float a[M][N];\nfloat x[N];\nfloat y[M];\n"
            "float src[M][N];\nfloat dst[M][N];\nfloat w[N];\n"
            "float acc[M];\nint r;\n\n"
            "void scale_row(int n, float g, float *s, float *d) {\n"
            "  cblas_saxpy(n, g, s, 1, d, 1);\n}\n\n"
            "void correlate(int n, float *s, float *t, float *out) {\n"
            "  cblas_sdot_sub(n, s, 1, t, 1, out);\n}\n\n"
            "cblas_sgemv(101, 111, M, N, 1.0, &a[0][0], N, &x[0], 1, "
            "0.0, &y[0], 1);\n"
            "#pragma omp parallel for\nfor (r = 0; r < M; r++) {\n"
            f"  scale_row(N, {alpha:.3f}, &src[r][0], &dst[r][0]);\n}}\n"
            "#pragma omp parallel for\nfor (r = 0; r < M; r++) {\n"
            "  correlate(N, &dst[r][0], &w[0], &acc[r]);\n}\n")


def _mutate(source: str, rng: np.random.Generator) -> str:
    """One single-token edit: delete, duplicate, replace with another
    token of the same program, or swap with the next token."""
    text = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    spans = [m.span() for m in _TOKEN.finditer(text)]
    k = int(rng.integers(len(spans)))
    a, b = spans[k]
    kind = int(rng.integers(4))
    if kind == 0:
        new = ""
    elif kind == 1:
        new = text[a:b] + " " + text[a:b]
    elif kind == 2:
        c, d = spans[int(rng.integers(len(spans)))]
        new = text[c:d]
    else:
        c, d = spans[(k + 1) % len(spans)]
        if c < a:
            return text[:c] + text[a:b] + text[d:a] + text[c:d] + text[b:]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text[:a] + new + text[b:]


def _legacy_inputs(tp, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """Inputs inside each legacy program's domain (knots strictly
    increasing, sites inside the knot span)."""
    from repro.compiler.interp import _DTYPES
    knots = next((info.count for name, info in tp.env.buffers.items()
                  if "knot" in name), None)
    out: Dict[str, np.ndarray] = {}
    for name, info in tp.env.buffers.items():
        if info.elem_type not in _DTYPES:
            continue
        dt = _DTYPES[info.elem_type]
        n = info.count
        if "knot" in name:
            arr = np.arange(n, dtype=dt)
        elif "site" in name and knots:
            arr = np.clip((np.arange(n) % knots) + 0.3, 0,
                          knots - 1.5).astype(dt)
        elif np.issubdtype(dt, np.complexfloating):
            arr = (rng.standard_normal(n)
                   + 1j * rng.standard_normal(n)).astype(dt)
        elif np.issubdtype(dt, np.integer):
            arr = np.zeros(n, dtype=dt)
        else:
            arr = rng.standard_normal(n).astype(dt)
        if info.shape is not None:
            arr = arr.reshape(info.shape)
        out[name] = arr
    return out


def setup(seed: int, root: Path) -> List[Program]:
    rng = np.random.default_rng((seed, 0xC0))
    corpus = sorted((root / "examples" / "legacy").glob("*.c"))
    programs = [Program(p.name, p.read_text(), "corpus",
                        expect=PINNED.get(p.name)) for p in corpus]
    for preset in ("small", "medium", "large"):
        cfg = PRESETS[preset]
        programs.append(Program(f"stap-{preset}", stap_source(cfg), "app",
                                inputs=stap_inputs(cfg, seed)))
    sar = SarConfig(64)
    programs.append(Program("sar-64", sar_source(sar), "app",
                            inputs=sar_inputs(sar, seed)))
    for i in range(GENERATED["chain"]):
        match, hoist = bool(rng.random() < 0.75), bool(rng.random() < 0.5)
        programs.append(Program(
            f"chain-{i}", _chain(rng, match, hoist), "chain",
            expect=("applied", "MEA018") if match
            else ("rejected", "MEA019")))
    for i in range(GENERATED["omp"]):
        programs.append(Program(f"omp-{i}", _omp(rng), "omp"))
    for i in range(GENERATED["multifn"]):
        programs.append(Program(f"multifn-{i}", _multifn(rng), "multifn"))
    for base in corpus:
        for i in range(MUTANTS_PER_FILE):
            programs.append(Program(f"mutant-{base.stem}-{i}",
                                    _mutate(base.read_text(), rng),
                                    "mutant"))
    return programs


# -- the timed phase -----------------------------------------------------------

def _compile(source: str) -> Compiled:
    try:
        analysis = analyze_source(source, rewrite=True)
        codes = tuple(sorted({d.code for d in analysis.report}))
        decisions = tuple((d.code, d.applied)
                          for d in analysis.rewrites)
        recognized = sum(1 for s in analysis.schedule.steps
                         if isinstance(s, AccelCallStep))
        try:
            tp = translate(source, rewrite=True)
        except CompilerError as exc:
            return Compiled("ok", codes + (exc.code,), decisions,
                            recognized, 0, None)
        return Compiled("ok", codes, decisions, recognized,
                        recognized - len(tp.demoted_steps), tp)
    except (CompilerError, CParseError):
        return Compiled("typed")
    except Exception as exc:            # an untyped failure is counted
        return Compiled(f"untyped:{type(exc).__name__}")


def execute(programs: List[Program], tick=None) -> Outcome:
    clock = time.perf_counter
    op_ms: List[float] = []
    compiled: List[Compiled] = []
    for prog in programs:
        if tick:
            tick()
        t0 = clock()
        result = _compile(prog.source)
        op_ms.append((clock() - t0) * 1e3)
        compiled.append(result)
    signature = tuple((c.status, c.codes, c.decisions, c.recognized,
                       c.offloaded) for c in compiled)
    return Outcome(op_ms=op_ms, compiled=compiled, signature=signature)


# -- checks and metrics --------------------------------------------------------

def _expect_ok(prog: Program, c: Compiled) -> Optional[str]:
    if prog.expect is None:
        return None
    how, code = prog.expect
    if how == "code" and code not in c.codes:
        return f"{prog.name}: expected {code}, got {c.codes}"
    if how == "applied" and (code, True) not in c.decisions:
        return f"{prog.name}: expected an applied {code} rewrite"
    if how == "rejected" and (code, False) not in c.decisions:
        return f"{prog.name}: expected a rejected {code} rewrite"
    return None


def _validate(prog: Program, tp, rng) -> Tuple[Optional[str], object]:
    """Run the original in the interpreter and the translation on
    MEALib; the buffers must be bit-identical."""
    inputs = (prog.inputs if prog.inputs is not None
              else _legacy_inputs(tp, rng))
    system = MealibSystem()
    on = run_translated(tp, system=system, inputs=dict(inputs))
    ref = run_original(prog.source, inputs=dict(inputs))
    for name in sorted(ref.buffers):
        if not np.array_equal(ref.buffers[name], on.buffers[name]):
            return f"{prog.name}: buffer {name} differs", system
    return None, system


def check(seed: int, programs: List[Program], outcome: Outcome):
    failures: List[str] = []
    untyped = 0
    rng = np.random.default_rng((seed, 0xC1))
    model_time: List[float] = []
    model_energy: List[float] = []
    for prog, c in zip(programs, outcome.compiled):
        if prog.kind == "mutant":
            untyped += c.status.startswith("untyped")
            continue
        if c.status != "ok":
            failures.append(f"{prog.name}: {c.status}")
            continue
        problem = _expect_ok(prog, c)
        if problem:
            failures.append(problem)
        if c.translated is None:
            continue
        try:
            problem, system = _validate(prog, c.translated, rng)
        except Exception as exc:        # a crash is a failed check
            failures.append(f"{prog.name}: validation raised {exc!r}")
            continue
        if problem:
            failures.append(problem)
        total = system.total()
        model_time.append(total.time)
        model_energy.append(total.energy)
    outcome.model = (model_time, model_energy)
    attempted = len(programs)
    return attempted, untyped + len(failures), failures


def report(programs: List[Program], outcome: Outcome) -> Dict[str, tuple]:
    base = [(p, c) for p, c in zip(programs, outcome.compiled)
            if p.kind != "mutant" and c.status == "ok"]
    recognized = sum(c.recognized for _, c in base)
    offloaded = sum(c.offloaded for _, c in base)
    translated = [c.translated for _, c in base
                  if c.translated is not None]
    model_time, model_energy = outcome.model
    mutants = [c for p, c in zip(programs, outcome.compiled)
               if p.kind == "mutant"]
    untyped = sum(1 for c in mutants if c.status.startswith("untyped"))
    return {
        "offload_frac": (offloaded / recognized, "share"),
        "descriptors_per_program": (
            statistics.fmean(tp.descriptor_count() for tp in translated),
            "count"),
        "model_time_s": (sum(model_time), "s"),
        "model_energy_j": (sum(model_energy), "J"),
        "validated_programs": (len(model_time), "count"),
        "mutant_share": (len(mutants) / len(programs), "share"),
        "mutant_untyped_errors": (untyped, "count"),
        "mutant_untyped_frac": (untyped / len(mutants), "share"),
    }


def layer_extras(outcome: Outcome) -> Dict[str, float]:
    return {"compiler.untyped_errors": sum(
        1 for c in outcome.compiled if c.status.startswith("untyped"))}
