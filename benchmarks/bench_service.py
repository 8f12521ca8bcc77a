#!/usr/bin/env python
"""Control-plane service benchmark: wire protocol vs batch oracle.

Three deterministic legs, one artifact:

- **Bridge equality** — a scripted :class:`ServiceClient` admits a whole
  seeded trace over a Unix socket into an ``asap`` control plane
  (``autostart=False``: the simulation advances only on ``drain``) and
  drains to completion. The final summary off the wire must byte-equal
  batch ``FleetScheduler.serve()`` on the same trace — the service's
  determinism bridge (first backlog fold = the batch ``submit`` path).
- **Warm restart** — the same run paused mid-flight: snapshot to disk,
  rebuild a second control plane from the file, finish the run. The
  stitched summary must byte-equal the never-stopped oracle.
- **Backpressure** — a plane bounded at ``max_pending=4`` receives 8
  admissions: exactly 4 are accepted, 4 answered ``busy`` (with a
  retry hint), and the accepted 4 all complete — refusals are loud,
  drops never silent.

``BENCH_service.json`` records the verdicts and counters;
``check_determinism.py`` replays the whole bench twice and diffs the
bytes. Any leg failing its equality check exits nonzero.

Run:  PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.common import Table, write_bench_json  # noqa: E402
from repro.serving import (  # noqa: E402
    DEFAULT_SLO_MIX,
    ControlPlane,
    FleetScheduler,
    ServiceClient,
    ServingConfig,
    canonical_json,
    generate_fleet_trace,
    summary_wire,
)

#: Fleet-wide mean inter-arrival gap (as in the snapshot harness).
MEAN_INTERARRIVAL = 2_000_000


def make_config() -> ServingConfig:
    return ServingConfig(policy="priority", elastic="shrink_then_preempt")


def make_trace(seed: int, sessions: int, chips: int):
    return generate_fleet_trace(
        seed, sessions, chips=chips, max_cores=16,
        mean_interarrival_cycles=MEAN_INTERARRIVAL,
        arrival_process="bursty", slo_mix=DEFAULT_SLO_MIX)


def batch_summary(trace, chips: int) -> str:
    """The oracle: plain batch serve(), canonical bytes."""
    fleet = FleetScheduler.homogeneous(chips, cores=16,
                                       **make_config().fleet_kwargs())
    fleet.submit(trace)
    fleet.run()
    frequency = fleet.chips[0].chip.config.frequency_hz
    return canonical_json(summary_wire(fleet.metrics.summary(frequency)))


async def service_summary(trace, chips: int, scratch: Path) -> str:
    """The same trace through the wire protocol, asap + explicit drain."""
    plane = ControlPlane(chips=chips, cores=16, config=make_config(),
                         mode="asap", max_pending=len(trace) + 1,
                         autostart=False)
    socket_path = str(scratch / "service.sock")
    await plane.start(unix_path=socket_path)
    client = await ServiceClient.connect(unix_path=socket_path)
    try:
        for session in trace:
            response = await client.admit(session)
            if response["status"] != "ok":
                raise RuntimeError(f"admit refused: {response}")
        drained = await client.drain()
        await client.shutdown()
    finally:
        await client.close()
        await plane.stop()
    return canonical_json(drained["summary"])


async def warm_restart_summary(trace, chips: int, scratch: Path) -> str:
    """Admit everything, pause mid-run, snapshot, restore, finish."""
    plane = ControlPlane(chips=chips, cores=16, config=make_config(),
                         mode="asap", max_pending=len(trace) + 1,
                         autostart=False)
    for session in trace:
        response = plane.admit(session)
        if response["status"] != "ok":
            raise RuntimeError(f"admit refused: {response}")
    pause_at = trace[len(trace) // 2].arrival_cycle
    await plane.drain(until=pause_at)
    snap_path = str(scratch / "service.snapshot.pkl")
    plane.snapshot_to(snap_path)
    restored = ControlPlane.restore(snap_path, autostart=False)
    drained = await restored.drain()
    return canonical_json(drained["summary"])


async def backpressure_probe(trace, chips: int) -> dict:
    """8 admissions into a max_pending=4 plane: 4 ok, 4 busy, 4 served."""
    probe = trace[:8]
    plane = ControlPlane(chips=chips, cores=16, config=make_config(),
                         mode="asap", max_pending=4, autostart=False)
    accepted, busy = 0, 0
    for session in probe:
        response = plane.admit(session)
        if response["status"] == "ok":
            accepted += 1
        elif response["status"] == "busy":
            busy += 1
            assert response["retry_after_cycles"] >= 1
    drained = await plane.drain()
    completed = drained["summary"]["sessions_completed"]
    return {"offered": len(probe), "accepted": accepted, "busy": busy,
            "completed_after_drain": completed}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=200,
                        help="trace length (default: 200)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--chips", type=int, default=4,
                        help="fleet size (default: 4)")
    parser.add_argument("--quick", action="store_true",
                        help="40-session smoke run (CI)")
    parser.add_argument("--out", default=None,
                        help="directory for BENCH_service.json "
                             "(default: benchmarks/)")
    args = parser.parse_args(argv)
    sessions = 40 if args.quick else args.sessions

    trace = make_trace(args.seed, sessions, args.chips)
    oracle = batch_summary(trace, args.chips)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as scratch:
        scratch_dir = Path(scratch)
        wire = asyncio.run(service_summary(trace, args.chips, scratch_dir))
        restarted = asyncio.run(
            warm_restart_summary(trace, args.chips, scratch_dir))
    backpressure = asyncio.run(backpressure_probe(trace, args.chips))

    wire_matches = wire == oracle
    restart_matches = restarted == oracle
    backpressure_ok = (
        backpressure["accepted"] == 4 and backpressure["busy"] == 4
        and backpressure["completed_after_drain"] == 4)

    table = Table(
        "Control-plane service vs batch oracle",
        ["leg", "verdict"],
        [
            ["wire bridge (asap drain)",
             "byte-equal" if wire_matches else "MISMATCH"],
            ["warm restart (snapshot/restore)",
             "byte-equal" if restart_matches else "MISMATCH"],
            ["backpressure (4 of 8 busy)",
             "ok" if backpressure_ok else "FAILED"],
        ],
    )
    print(table.render())

    payload = {
        "config": {
            "sessions": sessions,
            "seed": args.seed,
            "chips": args.chips,
            "serving_config": make_config().to_dict(),
            "quick": bool(args.quick),
        },
        "bridge": {
            "wire_matches_batch": wire_matches,
            "warm_restart_matches_batch": restart_matches,
        },
        "backpressure": {**backpressure, "ok": backpressure_ok},
    }
    write_bench_json("service", payload, directory=args.out)
    if not (wire_matches and restart_matches and backpressure_ok):
        print("service bench FAILED: wire/batch divergence or "
              "backpressure anomaly")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
