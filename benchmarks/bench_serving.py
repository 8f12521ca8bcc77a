#!/usr/bin/env python
"""Serving benchmark: a seeded multi-tenant churn trace on one chip.

Replays a deterministic trace of tenant sessions through a one-chip
:class:`~repro.serving.fleet.FleetScheduler` and emits a canonical
JSON artifact (sessions/sec, p50/p95 queue delay, time-weighted
utilization, fragmentation, mapping-cache hit rate). Two runs with the
same seed produce byte-identical JSON.

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--quick]
      (or plainly ``python benchmarks/bench_serving.py`` — the script
      bootstraps ``src`` onto ``sys.path`` itself)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.common import Table, write_bench_json  # noqa: E402
from repro.arch.config import sim_config  # noqa: E402
from repro.serving import FleetScheduler, generate_trace  # noqa: E402


def run_serving(seed: int, sessions: int, cores: int, policy: str,
                mean_interarrival: int) -> dict:
    scheduler = FleetScheduler([sim_config(cores)], policy=policy)
    chip = scheduler.chips[0].chip
    hypervisor = scheduler.chips[0].hypervisor
    trace = generate_trace(seed, sessions, max_cores=cores,
                           mean_interarrival_cycles=mean_interarrival)
    metrics = scheduler.serve(trace)

    summary = metrics.summary(chip.config.frequency_hz)
    # The one-chip fleet's per-chip block is not part of this artifact.
    del summary["fleet"]
    strategies: dict[str, int] = {}
    for record in metrics.records:
        strategies[record.strategy] = strategies.get(record.strategy, 0) + 1
    cache = hypervisor.mapper.cache_stats()
    return {
        "config": {
            "bench": "serving",
            "chip_cores": cores,
            "mean_interarrival_cycles": mean_interarrival,
            "policy": policy,
            "seed": seed,
            "sessions": sessions,
        },
        "mapping_cache": {
            "hit_rate": round(cache["hit_rate"], 6),
            "hits": cache["hits"],
            "misses": cache["misses"],
        },
        "results": summary,
        "strategies": strategies,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=500,
                        help="trace length (default: 500)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cores", type=int, default=36,
                        help="chip size (default: the paper's 36-core sim)")
    parser.add_argument("--policy", default="fcfs",
                        choices=("fcfs", "best_fit", "priority"))
    parser.add_argument("--mean-interarrival", type=int, default=2_000_000,
                        help="mean arrival gap in cycles")
    parser.add_argument("--quick", action="store_true",
                        help="60-session smoke run (CI)")
    parser.add_argument("--out", default=None,
                        help="directory for BENCH_serving.json "
                             "(default: benchmarks/)")
    args = parser.parse_args(argv)
    sessions = 60 if args.quick else args.sessions

    payload = run_serving(args.seed, sessions, args.cores, args.policy,
                          args.mean_interarrival)
    path = write_bench_json("serving", payload, directory=args.out)

    results = payload["results"]
    table = Table(
        f"Serving — {sessions} sessions, seed {args.seed}, "
        f"{args.policy} on {args.cores} cores",
        ["metric", "value"],
    )
    table.add("sessions completed", results["sessions_completed"])
    table.add("sessions/sec (sim time)", results["sessions_per_second"])
    table.add("queue delay p50 (cycles)", results["queue_delay_cycles"]["p50"])
    table.add("queue delay p95 (cycles)", results["queue_delay_cycles"]["p95"])
    table.add("utilization (time-weighted)",
              results["utilization_time_weighted"])
    table.add("fragmentation (mean)",
              results["fragmentation"]["time_weighted_mean"])
    table.add("mapping-cache hit rate",
              payload["mapping_cache"]["hit_rate"])
    table.show()
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
