"""Pin the n=1000 reference objectives of ``solve-large``.

``data/bestknown.json`` has no n=1000 entries, so ``deviation_pct`` on
solve-large is measured against objectives this script computed once,
when the benchmark was created.  Re-running it changes the benchmark:
do that only in a PR that changes the benchmark and claims no gain.

    python3 perfbench/pin_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: How the references were produced (recorded in the output file).
METHOD = {
    "method": "parallel_sa",
    "backend": "vectorized",
    "grid_size": 4,
    "block_size": 192,
    "iterations": 400,
    "init": "vshape",
    "seed": 0,
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.solver import CDDSolver
    from repro.instances import biskup_instance

    objectives = {}
    for k in (1, 2, 3):
        for h in (0.4, 0.8):
            inst = biskup_instance(1000, h, k)
            kwargs = {key: v for key, v in METHOD.items() if key != "method"}
            result = CDDSolver(inst).solve(METHOD["method"], **kwargs)
            objectives[inst.name] = result.objective
            print(inst.name, result.objective, flush=True)
    out = ROOT / "perfbench" / "reference_n1000.json"
    out.write_text(json.dumps(
        {"produced_by": METHOD, "objectives": objectives},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
