"""Record the drive-phase table and the full-model reference states.

    python3 benchmarks/record_reference.py

writes ``benchmarks/reference.json``.  The references were recorded once
from the commit that introduced the benchmark; re-recording them from a
later commit would make the full-model check compare that commit with
itself, so do it only when the workload's inputs change.
"""

from __future__ import annotations

import json
import math
import os
import random

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

N_PHASES = 16


def main() -> None:
    reslab = workloads.import_reslab()
    rng = random.Random(2008)
    phases = [[round(rng.uniform(0.0, 2.0 * math.pi), 6) for _ in range(2)] for _ in range(N_PHASES)]
    doc = {"phases": phases, "full-model": {}}
    for size in workloads.SIZES:
        states = []
        for pair in phases:
            final = reslab.lindblad.evolve(*workloads.full_model_inputs(reslab, pair, size)).final
            states.append([final.real.tolist(), final.imag.tolist()])
        doc["full-model"][size] = states
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
