#!/usr/bin/env python
"""Mapping fast-path benchmark: fast vs reference mapper on a pinned
fleet-churn corpus.

Replays the ``mapping_oracle`` corpus (``tests/unit/mapping_oracle.py``)
— best-fit probe churn from a fragmentation-heavy fleet trace — through
``TopologyMapper`` and through the oracle's ``ReferenceMapper``, and
emits two artifacts, mirroring the ``BENCH_cost`` split:

- ``BENCH_mapping_perf.json`` — the *deterministic* digest: corpus
  identity, fast-path operation counters (candidates considered vs
  pruned vs refined, objective evaluations, free-set memo misses), the
  pruning accounting check, and the output-equality verdict against
  the reference mapper. Byte-identical across runs (the CI determinism
  check).
- ``BENCH_mapping_perf_timing.json`` — wall-clock seconds per
  implementation and the speedup. Host timing is inherently
  non-reproducible, so it lives outside the determinism-checked
  artifact.

Exits non-zero when the fast path's outputs diverge from the reference
mapper or the pruning counters fail to account for every candidate —
those are correctness regressions, not noise.

Run:  PYTHONPATH=src python benchmarks/bench_mapping_perf.py [--quick]
      (or plainly ``python benchmarks/bench_mapping_perf.py`` — the
      script bootstraps ``src`` and ``tests/unit`` onto ``sys.path``
      itself)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src"), str(_ROOT / "tests" / "unit")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.common import Table, write_bench_json  # noqa: E402
from mapping_oracle import run_mapping_perf  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=500,
                        help="fleet trace length (default: 500)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--chips", type=int, default=8,
                        help="fleet size (default: 8)")
    parser.add_argument("--cores", type=int, default=36,
                        help="cores per chip (default: 36)")
    parser.add_argument("--quick", action="store_true",
                        help="120-session, 4-chip smoke run (CI)")
    parser.add_argument("--out", default=None,
                        help="directory for BENCH_mapping_perf*.json "
                             "(default: benchmarks/)")
    args = parser.parse_args(argv)
    sessions = 120 if args.quick else args.sessions
    chips = 4 if args.quick else args.chips

    report = run_mapping_perf(seed=args.seed, sessions=sessions,
                              chips=chips, cores_per_chip=args.cores)
    deterministic = report["deterministic"]
    timing = report["timing"]
    payload = {
        "config": {
            "bench": "mapping_perf",
            "chips": chips,
            "cores_per_chip": args.cores,
            "seed": args.seed,
            "sessions": sessions,
        },
        **deterministic,
    }
    path = write_bench_json("mapping_perf", payload, directory=args.out)
    timing_path = write_bench_json("mapping_perf_timing", {
        "config": payload["config"],
        "timing": timing,
    }, directory=args.out)

    fast = deterministic["fast"]
    equivalence = deterministic["equivalence"]
    table = Table(
        "Mapping fast path — corpus replay vs reference implementation",
        ["metric", "value"],
    )
    table.add("map calls", equivalence["map_calls"])
    table.add("outputs identical", equivalence["identical"])
    table.add("candidates considered", fast["candidates_considered"])
    table.add("candidates pruned", fast["candidates_pruned"])
    table.add("candidates refined", fast["candidates_refined"])
    table.add("objective evals (fast)", fast["objective_evaluations"])
    table.add("objective evals (reference)",
              deterministic["reference"]["objective_evaluations"])
    table.add("free-set rebuilds (fast)", fast["free_rebuilds"])
    table.add("wall fast (s)", timing["fast_seconds"])
    table.add("wall reference (s)", timing["reference_seconds"])
    table.add("speedup", f"{timing['speedup']}x")
    table.show()
    print(f"wrote {path}")
    print(f"wrote {timing_path}")

    if not equivalence["identical"]:
        print(f"FAIL: fast path diverged from the reference mapper on "
              f"{equivalence['mismatches']} of "
              f"{equivalence['map_calls']} calls")
        return 1
    if not deterministic["pruning_accounted"]:
        print("FAIL: pruned + refined != considered")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
