"""Regenerate the benchmark's recorded reference outputs, on purpose.

Run from the repository root after a change that is meant to alter
modelled results::

    python3 perfbench/regen.py

It rewrites ``perfbench/reference/paper_figures.txt`` (the stdout of
``python -m repro.eval all``) and ``perfbench/reference/
hardened_calls.json`` (the per-call modelled (time, energy) sequence
of the hardened-calls workload at the default seed). Commit the new
files together with the change that explains them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import wl_hardened
    from run import DEFAULT_SEED

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    figures = subprocess.run(
        [sys.executable, "-m", "repro.eval", "all"], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True).stdout
    wl_paper_ref = HERE / "reference" / "paper_figures.txt"
    wl_paper_ref.write_text(figures)

    outcome = wl_hardened.execute(wl_hardened.setup(DEFAULT_SEED, ROOT))
    wl_hardened.REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "results": outcome.results}, indent=1)
        + "\n")
    print(f"wrote {wl_paper_ref} and {wl_hardened.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
