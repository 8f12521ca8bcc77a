#!/usr/bin/env python
"""Regenerate ``expected.json``: the pinned correctness digests.

    python benchmarks/e2e/pin.py

For each deterministic (batch) workload at its default seed, runs the
first ``PINNED`` operations at full size and the first at smoke size,
and records the sha256 of ``canonical_json(summary_wire(summary))``
keyed ``"<sessions>/<trace seed>"``. The sharded workload is pinned from
its in-process ``workers=1`` oracle, so a 2-worker run that matches the
pin also matches the oracle. Only a deliberate change of simulated
behaviour should ever need this.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import BATCH, WORKLOADS, sub_seed  # noqa: E402
from run import WORK_DIR, run_op  # noqa: E402

#: Operations pinned per workload: more than a run at the default
#: ``--seconds`` reaches on the reference host.
PINNED = 8


def main() -> int:
    WORK_DIR.mkdir(exist_ok=True)
    pins: dict[str, dict[str, str]] = {}
    for workload in BATCH:
        spec = WORKLOADS[workload]
        jobs = [(spec.size, k) for k in range(PINNED)]
        jobs.append((spec.smoke_size, 0))
        for size, index in jobs:
            seed = sub_seed(spec.default_seed, index)
            op = run_op(workload, seed, size, traced=False, deadline=600,
                        workers=1)
            if not op["ok"]:
                print(f"{workload} seed {seed}: {op['error']}",
                      file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[f"{op['sessions']}/{seed}"] = \
                op["digest"]
            print(workload, seed, op["digest"][:16])
    (HERE / "expected.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
