"""paper-figures: every generator behind ``python -m repro.eval all``.

The generators run one after another in the order the CLI uses, and
their rendered report must be byte-identical to the CLI output
recorded in ``reference/paper_figures.txt``. This workload takes no
seed: the figures are fixed by the paper's data sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.eval import figures
from repro.eval.__main__ import ORDER

IMPORTS = ("repro.eval.figures", "repro.eval.__main__")

REFERENCE = Path(__file__).resolve().parent / "reference" / \
    "paper_figures.txt"


@dataclass
class Outcome:
    op_ms: List[float]
    names: List[str]
    text: str

    @property
    def signature(self) -> str:
        return self.text


def generator_names() -> List[str]:
    """Generator function names in CLI order, each once."""
    names: List[str] = []
    for target in ORDER:
        name = figures.GENERATORS[target].__name__
        if name not in names:
            names.append(name)
    return names


def setup(seed: int, root: Path) -> List[str]:
    return generator_names()


def execute(names: List[str], tick=None) -> Outcome:
    clock = time.perf_counter
    op_ms, parts = [], []
    for name in names:
        if tick:
            tick()
        # looked up on the module, so a traced run sees its span
        generator = getattr(figures, name)
        t0 = clock()
        report = generator()
        op_ms.append((clock() - t0) * 1e3)
        parts.append("=" * 72 + "\n" + figures.render(report) + "\n")
    return Outcome(op_ms=op_ms, names=list(names), text="".join(parts))


def check(seed: int, names: List[str], outcome: Outcome
          ) -> Tuple[int, int, List[str]]:
    failures = []
    if outcome.text != REFERENCE.read_text():
        failures.append("rendered report differs from the recorded "
                        "python -m repro.eval all output")
    return len(names), len(failures), failures


def report(names: List[str], outcome: Outcome) -> Dict[str, tuple]:
    return {f"{name}_ms": (ms, "ms")
            for name, ms in zip(outcome.names, outcome.op_ms)}


def layer_extras(outcome: Outcome) -> Dict[str, float]:
    """Per-generator host wall time of an untraced pass."""
    return {f"eval.{name}.wall_s": ms / 1e3
            for name, ms in zip(outcome.names, outcome.op_ms)}
