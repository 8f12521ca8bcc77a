"""One benchmark operation: build a workload's inputs, run them, report.

``run.py`` starts every operation as a fresh subprocess::

    python benchmarks/e2e/ops.py '<json request>'

so each one pays the real start-up cost (interpreter, ``import repro``,
trace generation, scheduler construction) and no operation inherits
another's heap. The request names the workload, the trace seed, whether
to trace, and the monotonic time the parent spawned the process (the
start of ``setup_s``). The operation prints one JSON result line.

Around the measured phase each operation times a fixed calibration
kernel (:func:`calibrate`), so ``run.py`` can express wall times in
reference-host seconds. A traced operation installs
:class:`tracer.Tracer` wrappers around the layer entry points before it
builds anything, and removes them before it reports.
``python benchmarks/e2e/ops.py --warmup`` only imports the program;
``run.py`` runs it once, untimed, before measuring.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT), str(ROOT / "src"), str(Path(__file__).parent)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from tracer import Tracer  # noqa: E402

#: Explicit deadlock horizon for batch runs, in cycles. The engine's
#: default of 10**10 is shorter than a long trace's makespan and then
#: reports a spurious deadlock.
HORIZON_CYCLES = 10**13

#: Operation ``k`` of a run seeded ``S`` replays the trace generated
#: with seed ``S + SEED_STRIDE * k``; operation 0 replays seed ``S``.
SEED_STRIDE = 1_000_003

#: The control plane's clock: simulated cycles per wall second.
CYCLES_PER_SECOND = 1_000_000_000

#: Monitor connection's ``metrics`` poll period, seconds.
POLL_PERIOD_S = 0.150


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and README.md say why it exists."""

    name: str
    default_seed: int
    #: Sessions per operation (batch) / seconds of arrivals (service).
    size: float
    smoke_size: float


WORKLOADS = {w.name: w for w in (
    Workload("fleet_bestfit_36c", 7, 1500, 60),
    Workload("fleet_elastic_16c", 11, 2500, 60),
    Workload("shard_fence_2w", 11, 5000, 60),
    Workload("service_realtime", 11, 5.0, 2.0),
)}

BATCH = ("fleet_bestfit_36c", "fleet_elastic_16c", "shard_fence_2w")


def sub_seed(seed: int, index: int) -> int:
    return seed + SEED_STRIDE * index


# -- host speed ---------------------------------------------------------------

#: Seconds :func:`calibrate` takes on the reference host (2-vCPU Intel
#: Xeon, CPython 3.11) in its usual state. An operation calibrates just
#: before and just after its measured phase and keeps the faster of the
#: two, so a brief stall during one calibration is not taken for a slow
#: host; wall times are reported scaled by ``REFERENCE_KERNEL_S / that``.
REFERENCE_KERNEL_S = 0.0425


class _Job:
    __slots__ = ("ident", "cores", "until")

    def __init__(self, ident: int, cores: frozenset, until: int) -> None:
        self.ident = ident
        self.cores = cores
        self.until = until


def _mini_scheduler() -> int:
    """Fixed pure-Python work shaped like the simulator's inner loops:
    a heap of timed departures, set arithmetic over 64 cores, small
    objects allocated and dropped. It never touches the program, so a
    change to the program cannot move it."""
    import heapq
    import random
    rng = random.Random(7)
    free = set(range(64))
    heap: list = []
    jobs: dict[int, _Job] = {}
    now = done = 0
    for ident in range(12_000):
        now += rng.randrange(1, 50)
        while heap and heap[0][0] <= now:
            job = jobs.pop(heapq.heappop(heap)[1])
            free.update(job.cores)
            done += 1
        want = rng.randrange(1, 9)
        if len(free) >= want:
            cores = frozenset(sorted(free)[:want])
            free.difference_update(cores)
            jobs[ident] = _Job(ident, cores, now + rng.randrange(50, 400))
            heapq.heappush(heap, (jobs[ident].until, ident))
    return done


def calibrate(repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds of the fixed kernel: the host's speed
    right now (garbage collection off, so the program's heap size cannot
    leak into it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _mini_scheduler()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def digest_of(summary: dict) -> str:
    from repro.serving import canonical_json, summary_wire
    return hashlib.sha256(
        canonical_json(summary_wire(summary)).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# -- inputs -----------------------------------------------------------------

def make_trace(workload: str, seed: int, size: float):
    from repro.serving import DEFAULT_SLO_MIX, generate_fleet_trace
    if workload == "fleet_bestfit_36c":
        return generate_fleet_trace(
            seed, int(size), chips=8, max_cores=36, fragmentation_heavy=True,
            mean_interarrival_cycles=20_000_000)
    if workload == "fleet_elastic_16c":
        return generate_fleet_trace(
            seed, int(size), chips=16, max_cores=16,
            mean_interarrival_cycles=12_000_000, arrival_process="bursty",
            slo_mix=DEFAULT_SLO_MIX)
    if workload == "shard_fence_2w":
        return generate_fleet_trace(
            seed, int(size), chips=32, max_cores=16,
            mean_interarrival_cycles=20_000_000, arrival_process="bursty",
            slo_mix=DEFAULT_SLO_MIX)
    # service_realtime: every session due within ``size`` wall seconds.
    horizon = int(size * CYCLES_PER_SECOND)
    count = 256
    while True:
        trace = generate_fleet_trace(
            seed, count, chips=4, max_cores=16,
            mean_interarrival_cycles=20_000_000, arrival_process="bursty",
            slo_mix=DEFAULT_SLO_MIX)
        if trace[-1].arrival_cycle >= horizon:
            return [s for s in trace if s.arrival_cycle < horizon]
        count *= 2


def make_scheduler(workload: str, workers: int):
    from repro.serving import FleetScheduler, ShardedFleetScheduler
    if workload == "fleet_bestfit_36c":
        # No DefragPolicy: its migration livelock (README) would hang
        # about one operation in fifty at this size.
        return FleetScheduler.homogeneous(8, cores=36, placement="best_fit")
    if workload == "fleet_elastic_16c":
        return FleetScheduler.homogeneous(
            16, cores=16, placement="least_loaded", policy="priority",
            elastic="shrink_then_preempt")
    return ShardedFleetScheduler.homogeneous(
        32, cores=16, shards=4, workers=workers, epoch_cycles=25_000_000,
        checkpoint_every=1, policy="priority",
        elastic="shrink_then_preempt")


def service_config():
    from repro.serving import ServingConfig
    return ServingConfig(policy="priority", elastic="shrink_then_preempt")


# -- tracing ----------------------------------------------------------------

class ShardProbe:
    """Per-fence slice timings from an in-process ``workers=1`` pass.

    After every ``ShardSlice.run_epoch`` the slice is checkpointed with
    the public ``checkpoint(delta=True)``, exactly what a worker ships at
    each fence, so the pass prices fence pickling without a pipe.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (fence, shard id, epoch seconds + checkpoint seconds)
        self.fences: list[tuple[int, int, float]] = []
        self.checkpoint_bytes = 0

    def after_epoch(self, args, _result, seconds: float) -> None:
        slice_, fence = args[0], args[1]
        start = time.perf_counter()
        with self.tracer.span("shard.checkpoint"):
            blob = slice_.checkpoint(delta=True)
        self.checkpoint_bytes += len(blob)
        seconds += time.perf_counter() - start
        self.fences.append((fence, slice_.shard_id, seconds))

    def summary(self, workers: int) -> dict:
        per_fence: dict[int, list[float]] = {}
        total = 0.0
        for fence, shard_id, seconds in self.fences:
            per_fence.setdefault(fence, [0.0] * workers)[
                shard_id % workers] += seconds
            total += seconds
        critical = sum(max(loads) for loads in per_fence.values())
        return {
            "critical_path_s": critical,
            "fence_imbalance": (critical * workers / total) if total else 0.0,
            "checkpoint_bytes": self.checkpoint_bytes,
        }


def install_layers(tracer: Tracer, shard_probe: "ShardProbe | None" = None):
    """Wrap every layer entry point the benchmark attributes time to.

    Returns the list that collects the engine simulators built while
    traced (their dispatch counters give ``engine.events``).
    """
    from multiprocessing.connection import Connection

    from benchmarks.bench_engine import CountingSimulator
    from repro.core.hypervisor import Hypervisor
    from repro.core.topology_mapping import TopologyMapper
    from repro.cost.model import CostModel
    from repro.serving import fleet, service, shard
    from repro.serving.metrics import FleetMetrics

    simulators: list = []

    class TracedSimulator(CountingSimulator):
        """CountingSimulator that also counts cooperative ``step()``s."""

        def __init__(self) -> None:
            super().__init__()
            simulators.append(self)

        def step(self):
            if not self._cycle_heap:
                return None
            # The bucket list outlives its dict entry and gains every
            # event appended mid-sweep, so its final length is the count.
            bucket = self._buckets[self._cycle_heap[0]]
            cycle = super().step()
            self.events_dispatched += len(bucket)
            return cycle

    tracer.patch(fleet, "Simulator", TracedSimulator)
    scheduler = fleet.FleetScheduler
    tracer.wrap(scheduler, "run", "engine.run")
    tracer.wrap(scheduler, "_admit_loop", "fleet.admit_loop")
    tracer.wrap(scheduler, "_sample", "fleet.sample")
    for placement in (fleet.LeastLoadedPlacement, fleet.BestFitPlacement,
                      fleet.PowerOfTwoPlacement):
        tracer.wrap(placement, "rank", "fleet.place_rank")
    tracer.wrap(TopologyMapper, "map_similar", "mapper.map_similar")
    tracer.wrap(Hypervisor, "create_vnpu", "hv.create")
    tracer.wrap(Hypervisor, "destroy_vnpu", "hv.destroy")
    tracer.wrap(Hypervisor, "migrate_vnpu", "hv.migrate")
    tracer.wrap(Hypervisor, "resize_vnpu", "hv.resize")
    tracer.wrap(Hypervisor, "allocated_cores", "hv.allocated_cores")
    tracer.wrap(CostModel, "service_cycles", "cost.service_cycles")
    tracer.wrap(fleet, "fragmentation_ratio", "metrics.fragmentation")
    tracer.wrap(FleetMetrics, "summary", "metrics.summary")
    tracer.wrap(shard.ShardedFleetScheduler, "summary", "metrics.summary")
    tracer.wrap(shard.ShardedFleetScheduler, "run", "shard.run")
    tracer.wrap(shard.ShardSlice, "run_epoch", "shard.slice_epoch",
                after=shard_probe.after_epoch if shard_probe else None)
    tracer.wrap(Connection, "send", "shard.pipe_send")
    tracer.wrap(Connection, "poll", "shard.pipe_poll")
    tracer.wrap(Connection, "recv", "shard.pipe_recv")
    # The service looks these names up in its own module namespace.
    tracer.wrap(service.ControlPlane, "_advance", "service.advance")
    tracer.wrap(service.ControlPlane, "admit", "service.handle_admit")
    tracer.wrap(service.ControlPlane, "metrics_payload",
                "service.metrics_payload")
    tracer.wrap(service, "decode_message", "protocol.decode")
    tracer.wrap(service, "encode_message", "protocol.encode")
    return simulators


def trace_report(tracer: Tracer, simulators: list) -> dict:
    return {"spans": tracer.to_dict(),
            "engine_events": sum(s.events_dispatched for s in simulators)}


# -- batch operations ---------------------------------------------------------

def sim_metrics(summary: dict, frequency_hz: float) -> dict:
    gold = summary["slo"]["classes"].get("gold")
    return {
        "utilization": summary["utilization_time_weighted"],
        "queue_delay_p95_ms":
            summary["queue_delay_cycles"]["p95"] / frequency_hz * 1000.0,
        # No gold session in the trace means none missed its target.
        "gold_attainment": gold["attainment"] if gold else 1.0,
        "completed": summary["sessions_completed"],
        "rejected": summary["sessions_rejected"],
    }


def summary_counters(summary: dict) -> dict:
    return {
        "admission_failures": summary["admission_failures"],
        "migrations": summary["fleet"]["migrations"],
        "resizes": summary["slo"]["shrinks"] + summary["slo"]["grows"],
        "preemptions": summary["slo"]["preemptions"],
    }


def batch_op(request: dict) -> dict:
    workload, seed = request["workload"], request["seed"]
    workers = request.get("workers", 2)
    traced = request["traced"]
    tracer = Tracer() if traced else None
    probe = ShardProbe(tracer) if traced and workers == 1 else None
    if traced:
        simulators = install_layers(tracer, probe)
        # Forked shard workers run untraced: their spans could never
        # reach this process, so they would only add overhead.
        os.register_at_fork(after_in_child=tracer.restore)
    try:
        trace = make_trace(workload, seed, request["size"])
        fleet = make_scheduler(workload, workers)
        setup_s = time.monotonic() - request["spawned"]
        host_before = calibrate()
        started = time.monotonic()
        fleet.submit(trace)
        if workload == "shard_fence_2w":
            fleet.run()
        else:
            fleet.run(limit=HORIZON_CYCLES)
        run_s = time.monotonic() - started
        if workload == "shard_fence_2w":
            summary = fleet.summary()
            frequency = fleet.configs[0].frequency_hz
            counters = {"epochs": summary["sharding"]["epochs"]}
        else:
            frequency = fleet.chips[0].chip.config.frequency_hz
            summary = fleet.metrics.summary(frequency)
            counters = {}
        mapper = fleet.mapper_stats()
    finally:
        if traced:
            tracer.restore()
    host_s = min(host_before, calibrate())
    counters.update(summary_counters(summary), mapper=mapper)
    result = {
        "sessions": len(trace),
        "setup_s": setup_s,
        "run_s": run_s,
        "host_s": host_s,
        "digest": digest_of(summary),
        "sim": sim_metrics(summary, frequency),
        "counters": counters,
        "rss_mb": peak_rss_mb(),
    }
    if traced:
        result["trace"] = trace_report(tracer, simulators)
        if probe is not None:
            result["trace"]["shard"] = probe.summary(workers=2)
    return result


# -- the control-plane operation ---------------------------------------------

def _serve(conn, socket_path: str, traced: bool, report_path: str) -> None:
    """Server child: a realtime control plane until ``shutdown``."""
    import asyncio

    from repro.serving import ControlPlane

    tracer = Tracer() if traced else None
    simulators = install_layers(tracer) if traced else []
    plane = ControlPlane(chips=4, cores=16, config=service_config(),
                         mode="realtime",
                         cycles_per_second=CYCLES_PER_SECOND,
                         max_pending=256)

    async def main() -> None:
        await plane.start(unix_path=socket_path)
        conn.send("ready")
        await plane.serve_until_shutdown()

    try:
        asyncio.run(main())
    finally:
        if traced:
            tracer.restore()
            report = trace_report(tracer, simulators)
            report["mapper"] = plane.fleet.mapper_stats()
            Path(report_path).write_text(json.dumps(report))


async def _drive(trace, socket_path: str, ready_at: float,
                 spawned: float) -> dict:
    """Client side: open-loop admits plus a metrics poller."""
    import asyncio

    from repro.serving import ServiceClient

    admitter = await ServiceClient.connect(unix_path=socket_path)
    monitor = await ServiceClient.connect(unix_path=socket_path)
    setup_s = time.monotonic() - spawned
    loop = asyncio.get_running_loop()
    start = loop.time()
    stop = asyncio.Event()
    polls: list[float] = []
    sim_lag: list[float] = []
    # The pacer's clock started when the server reported ready.
    pacer_origin = start - (time.monotonic() - ready_at)

    async def poll() -> None:
        due = start + POLL_PERIOD_S
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(),
                                       max(0.0, due - loop.time()))
                return
            except asyncio.TimeoutError:
                pass
            sent = loop.time()
            response = await monitor.metrics()
            answered = loop.time()
            polls.append(answered - sent)
            expected = (answered - pacer_origin) * CYCLES_PER_SECOND
            sim_lag.append((expected - response["cycle"])
                           / CYCLES_PER_SECOND * 1000.0)
            due += POLL_PERIOD_S

    poller = asyncio.create_task(poll())
    latencies: list[float] = []
    lags: list[float] = []
    statuses: dict[str, int] = {}
    for session in trace:
        due = start + session.arrival_cycle / CYCLES_PER_SECOND
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(loop.time() - due)
        response = await admitter.admit(session)
        latencies.append(loop.time() - due)
        statuses[response["status"]] = statuses.get(response["status"],
                                                    0) + 1
    stop.set()
    await poller
    await monitor.close()
    drained = await admitter.drain()
    loop_s = loop.time() - start
    await admitter.shutdown()
    await admitter.close()
    return {"setup_s": setup_s, "loop_s": loop_s, "latencies": latencies,
            "lags": lags, "polls": polls, "sim_lag": sim_lag,
            "statuses": statuses, "summary": drained["summary"]}


def service_op(request: dict) -> dict:
    import asyncio
    import multiprocessing

    from repro.arch.config import sim_config

    trace = make_trace("service_realtime", request["seed"], request["size"])
    calibrating = time.monotonic()
    host_before = calibrate()
    # Set-up time excludes the calibration just spent.
    spawned = request["spawned"] + (time.monotonic() - calibrating)
    work = Path(request["work_dir"])
    tag = f"{os.getpid()}"
    # Relative to the working directory: AF_UNIX paths are short.
    socket_path = os.path.relpath(work / f"s{tag}.sock")
    report_path = str(work / f"server-{tag}.json")
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    server = context.Process(target=_serve, name="e2e-control-plane",
                             args=(child_end, socket_path,
                                   request["traced"], report_path))
    server.start()
    child_end.close()
    try:
        if not parent_end.poll(60):
            raise RuntimeError("control plane did not start within 60 s")
        parent_end.recv()
        ready_at = time.monotonic()
        client = asyncio.run(_drive(trace, socket_path, ready_at, spawned))
        server.join(30)
        if server.exitcode != 0:
            raise RuntimeError(f"control plane exited {server.exitcode}")
    finally:
        if server.is_alive():
            server.kill()
            server.join()
        parent_end.close()
        if os.path.exists(socket_path):
            os.unlink(socket_path)
    summary = client["summary"]
    ok = client["statuses"].get("ok", 0)
    result = {
        "sessions": len(trace),
        "setup_s": client["setup_s"],
        "run_s": client["loop_s"],
        "host_s": min(host_before, calibrate()),
        "admits_ok": ok,
        "admits_refused": len(trace) - ok,
        "latencies_ms": [x * 1000.0 for x in client["latencies"]],
        "gen_lag_ms": [x * 1000.0 for x in client["lags"]],
        "metrics_ms": [x * 1000.0 for x in client["polls"]],
        "sim_lag_ms": client["sim_lag"],
        "sim": sim_metrics(summary, sim_config(16).frequency_hz),
        "counters": summary_counters(summary),
        "rss_mb": peak_rss_mb(),
    }
    if request["traced"]:
        report = json.loads(Path(report_path).read_text())
        os.unlink(report_path)
        result["counters"]["mapper"] = report.pop("mapper")
        result["trace"] = report
    return result


def main(argv: "list[str]") -> int:
    if argv == ["--warmup"]:
        import benchmarks.bench_engine  # noqa: F401
        import repro.serving  # noqa: F401
        return 0
    request = json.loads(argv[0])
    if request["workload"] == "service_realtime":
        result = service_op(request)
    else:
        result = batch_op(request)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
