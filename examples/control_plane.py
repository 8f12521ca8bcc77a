"""Always-on serving: a control plane, a wire client, a warm restart.

Starts a :class:`ControlPlane` on a Unix socket in ``realtime`` mode
(simulated cycles advance with scaled wall time), admits a seeded
bursty :func:`generate_trace` workload over the newline-delimited JSON
protocol, watches the live metrics move, then drains, snapshots and
restores the whole service from the checkpoint file.

Run:  python examples/control_plane.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.serving import (
    DEFAULT_SLO_MIX,
    ControlPlane,
    ServiceClient,
    ServingConfig,
    generate_trace,
)


async def demo() -> None:
    # The whole scheduler configuration as one declarative object —
    # the same dict crosses sockets and checkpoint files.
    config = ServingConfig.from_dict({
        "policy": "priority",
        "elastic": "shrink_then_preempt",
    })
    trace = generate_trace(7, 24, max_cores=16, arrival_process="bursty",
                           slo_mix=DEFAULT_SLO_MIX,
                           mean_interarrival_cycles=500_000)

    with tempfile.TemporaryDirectory(prefix="control-plane-") as scratch:
        socket_path = str(Path(scratch) / "serving.sock")
        plane = ControlPlane(chips=4, cores=16, config=config,
                             mode="realtime",
                             cycles_per_second=2_000_000_000)
        await plane.start(unix_path=socket_path)
        client = await ServiceClient.connect(unix_path=socket_path)

        print(f"control plane up on unix:{socket_path}")
        for session in trace:
            response = await client.admit(session)
            if response["status"] == "busy":
                print(f"  backpressure: retry in "
                      f"{response['retry_after_cycles']:,} cycles")
        status = (await client.status())
        print(f"admitted {status['admitted_total']} sessions "
              f"(queue depth {status['queue_depth']}/"
              f"{status['max_pending']})")

        # Let the realtime pacer move the clock with the wall for a
        # moment, then look at the live metrics endpoint.
        await asyncio.sleep(0.25)
        live = await client.metrics()
        print(f"realtime: cycle {live['cycle']:,}, "
              f"{live['active']} active, {live['pending']} pending, "
              f"{live['summary']['sessions_completed']} completed, "
              f"mapper hit rate {live['mapper']['hit_rate']:.0%}")

        # Finish the run explicitly, checkpoint, and shut the service.
        done = await client.drain()
        summary = done["summary"]
        print(f"drained: {summary['sessions_completed']} sessions, "
              f"makespan {summary['makespan_cycles']:,} cycles, "
              f"p95 queue delay "
              f"{summary['queue_delay_cycles']['p95']:,.0f} cycles")
        snap_path = str(Path(scratch) / "serving.snapshot.pkl")
        await client.snapshot(snap_path)
        await client.shutdown()
        await client.close()
        await plane.stop()

        # Warm restart: a fresh process would do exactly this (see
        # `python -m repro.serving.service --restore ... --drain`).
        restored = ControlPlane.restore(snap_path, autostart=False)
        print(f"restored from {Path(snap_path).name} at cycle "
              f"{restored.fleet.sim.now:,} with "
              f"{restored.fleet.active_count} active sessions")


def main() -> None:
    asyncio.run(demo())


if __name__ == "__main__":
    main()
