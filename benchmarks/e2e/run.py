#!/usr/bin/env python
"""End-to-end serving benchmark: four pinned workloads, per-layer traces.

One command runs every workload, prints every metric by name with its
unit, and checks the outputs::

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                 [--trace [0|1]] [--repeat N] [--out FILE]

Each workload run is a loop of operations, each in its own subprocess
(``ops.py``) under a deadline: operation ``k`` replays the trace of
seed ``S + 1000003 k`` and the loop stops once ``--seconds`` are used
(at least three operations unless the host is very slow). End-to-end
metrics come from untraced operations. ``--trace`` instead pairs every
untraced operation with a traced one and reports the per-layer
breakdown (means per operation) plus ``trace.overhead_ratio``.
Durations are scaled to the reference host's speed, measured by a
calibration kernel in every operation.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json,
or its per-layer metrics with ``--trace``). ``README.md`` defines every
metric; ``compare.py`` compares two ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from ops import REFERENCE_KERNEL_S, WORKLOADS, sub_seed  # noqa: E402

#: Wall budget of one workload run: every run must end within 180 s.
RUN_LIMIT_S = 165.0
MIN_OPS = 3
WORK_DIR = HERE / ".work"

# (name, unit, better, bound): ``bound`` is the share of the parent's
# median a change may lose before it counts as a regression; 0 = exact.
END_TO_END = (
    ("sessions_per_wall_s", "sessions/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("request_p50_ms", "ms", "lower", 0.25),
    # Reported but not in BENCHMARK.json: zero on some workloads, or
    # deterministic per seed (judged exactly by compare.py instead).
    ("failed_ratio", "ratio", "lower", 0.0),
    ("sim_utilization", "ratio", "higher", 0.0),
    ("sim_queue_delay_p95_ms", "sim_ms", "lower", 0.0),
    ("sim_gold_attainment", "ratio", "higher", 0.0),
    ("admit_p50_ms", "ms", "lower", 0.25),
)
#: The subset BENCHMARK.json lists: measured on every workload, never 0.
GATED = ("sessions_per_wall_s", "setup_s", "peak_rss_mb", "request_p50_ms")

PER_LAYER = (
    ("trace.overhead_ratio", "ratio"),
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    ("fleet.admit_loop_calls", "count"),
    ("fleet.admit_loop_self_s", "s"),
    ("fleet.place_rank_calls", "count"),
    ("fleet.place_rank_s", "s"),
    ("fleet.sample_calls", "count"),
    ("fleet.sample_self_s", "s"),
    ("fleet.admission_failures", "count"),
    ("fleet.migrations", "count"),
    ("fleet.resizes", "count"),
    ("fleet.preemptions", "count"),
    ("mapper.map_similar_calls", "count"),
    ("mapper.map_similar_s", "s"),
    ("mapper.cache_hit_ratio", "ratio"),
    ("mapper.candidates_considered", "count"),
    ("mapper.pruned_ratio", "ratio"),
    ("mapper.free_rebuilds", "count"),
    ("hv.create_calls", "count"),
    ("hv.create_self_s", "s"),
    ("hv.create_success_ratio", "ratio"),
    ("hv.destroy_s", "s"),
    ("hv.migrate_s", "s"),
    ("hv.resize_s", "s"),
    ("hv.allocated_cores_calls", "count"),
    ("hv.allocated_cores_s", "s"),
    ("cost.service_cycles_calls", "count"),
    ("cost.service_cycles_s", "s"),
    ("metrics.fragmentation_calls", "count"),
    ("metrics.fragmentation_s", "s"),
    ("metrics.summary_s", "s"),
    ("shard.epochs", "count"),
    ("shard.coord_wait_s", "s"),
    ("shard.coord_send_s", "s"),
    ("shard.coord_self_s", "s"),
    ("shard.slice_epoch_s", "s"),
    ("shard.critical_path_s", "s"),
    ("shard.fence_imbalance", "ratio"),
    ("shard.checkpoint_s", "s"),
    ("shard.checkpoint_bytes", "bytes"),
    ("service.advance_s", "s"),
    ("service.advance_max_ms", "ms"),
    ("service.handle_admit_s", "s"),
    ("service.metrics_payload_s", "s"),
    ("protocol.decode_s", "s"),
    ("protocol.encode_s", "s"),
    ("service.admit_p99_ms", "ms"),
    ("service.gen_lag_p99_ms", "ms"),
    ("service.metrics_p50_ms", "ms"),
    ("service.metrics_p90_ms", "ms"),
    ("service.sim_lag_ms", "ms"),
)
#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = ("mapper.cache_hit_ratio", "mapper.pruned_ratio",
                    "hv.create_success_ratio")

#: Per-layer metrics BENCHMARK.json lists: measured on every workload.
#: Shard- and service-only spans read 0 elsewhere, so they are printed
#: and written with ``--out`` but kept out of BENCHMARK.json.
PER_LAYER_GATED = tuple(
    name for name, _ in PER_LAYER
    if not name.startswith(("shard.", "service.", "protocol."))
    and name not in ("hv.migrate_s", "hv.resize_s"))

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Per-operation fields kept in ``--out`` files.
OP_FIELDS = ("index", "seed", "traced", "workers", "ok", "error", "sessions",
             "setup_s", "run_s", "host_s", "rss_mb", "digest")


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def quantile_row(values: "list[float]") -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def percentile(values: "list[float]", pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- one operation ------------------------------------------------------------

def run_op(workload: str, seed: int, size: float, traced: bool,
           deadline: float, workers: int = 2) -> dict:
    """Spawn one operation subprocess; never raises."""
    request = {"workload": workload, "seed": seed, "size": size,
               "traced": traced, "workers": workers,
               "work_dir": str(WORK_DIR), "spawned": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "ops.py"), json.dumps(request)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "seed": seed, "traced": traced,
                "error": f"deadline of {deadline:.0f} s exceeded"}
    finally:
        # Reap anything the operation left behind in its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "seed": seed, "traced": traced,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    result = json.loads(out.strip().splitlines()[-1])
    result.update({"ok": True, "seed": seed, "traced": traced,
                   "workers": workers})
    return result


def op_checks(workload: str, op: dict, expected: dict) -> "list[str]":
    """Correctness of one finished operation."""
    problems = []
    sim = op["sim"]
    if workload == "service_realtime":
        if op["admits_refused"]:
            problems.append(f"{op['admits_refused']} admits refused")
        if sim["completed"] != op["admits_ok"]:
            problems.append(f"{op['admits_ok']} admits ok but "
                            f"{sim['completed']} completed at drain")
        return problems
    if sim["completed"] != op["sessions"] or sim["rejected"]:
        problems.append(f"{sim['completed']} of {op['sessions']} sessions "
                        f"completed, {sim['rejected']} rejected")
    pinned = expected.get(workload, {}).get(f"{op['sessions']}/{op['seed']}")
    if pinned is not None and op["digest"] != pinned:
        problems.append(f"seed {op['seed']}: digest {op['digest'][:12]} "
                        f"!= pinned {pinned[:12]}")
    return problems


def failed_count(workload: str, op: dict) -> int:
    if not op["ok"]:
        return 1
    if workload == "service_realtime":
        return op["admits_refused"] + max(
            0, op["admits_ok"] - op["sim"]["completed"])
    return 0


def attempted_count(workload: str, op: dict) -> int:
    """Batch: one serve per operation. Service: one per admit sent."""
    if workload == "service_realtime" and op["ok"]:
        return op["sessions"]
    return 1


# -- one workload run ----------------------------------------------------------

class WorkloadRun:
    """The operation loop of one workload, with its time budget."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 deadline: float, smoke: bool) -> None:
        spec = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.size = spec.smoke_size if smoke else spec.size
        self.min_ops = 1 if smoke else MIN_OPS
        self.start = time.monotonic()
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.expected = load_expected()

    def _op(self, index: int, traced: bool, workers: int = 2) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.start)
        op = run_op(self.workload, sub_seed(self.seed, index), self.size,
                    traced, min(self.deadline, remaining), workers)
        op["index"] = index
        self.ops.append(op)
        if op["ok"]:
            self.problems.extend(op_checks(self.workload, op, self.expected))
        else:
            self.problems.append(f"seed {op['seed']}: {op['error']}")
            print(f"[{self.workload}] operation failed: {op['error']}",
                  file=sys.stderr)
        return op

    def _more(self, rounds: int, minimum: int) -> bool:
        elapsed = time.monotonic() - self.start
        if rounds == 0:
            return True
        if elapsed > RUN_LIMIT_S - 10:
            return False
        per_round = elapsed / rounds
        # On a host slow enough that the minimum would overrun the
        # budget by a quarter, settle for fewer rounds: the run length
        # is what bounds the whole benchmark's time.
        if elapsed + per_round > 1.25 * self.seconds:
            return False
        if rounds < minimum:
            return True
        # Stop when half a round more would overrun the budget.
        return elapsed + 0.5 * per_round < self.seconds

    def measure(self) -> None:
        """Untraced operations until ``seconds`` are spent."""
        index = 0
        while self._more(index, self.min_ops):
            self._op(index, traced=False)
            index += 1

    def trace(self) -> None:
        """Untraced/traced pairs (alternating first) until time is up."""
        index = 0
        while self._more(index, 1):
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {traced: self._op(index, traced) for traced in order}
            if self.workload == "shard_fence_2w":
                pair["oracle"] = self._op(index, True, workers=1)
            self._check_pair(pair)
            index += 1

    def _check_pair(self, pair: dict) -> None:
        if not all(op["ok"] for op in pair.values()):
            return
        if self.workload == "service_realtime":
            return  # wall-clock paced: no deterministic digest
        digests = {op["digest"] for op in pair.values()}
        if len(digests) != 1:
            self.problems.append(
                f"seed {pair[False]['seed']}: traced, untraced and "
                f"workers=1 digests differ")

    def verdict(self) -> dict:
        attempted = sum(attempted_count(self.workload, op)
                        for op in self.ops)
        failed = sum(failed_count(self.workload, op) for op in self.ops)
        return {"correct": not self.problems, "attempted": attempted,
                "failed": failed}


def scale(op: dict) -> float:
    """Reference-host seconds per wall second during this operation."""
    return REFERENCE_KERNEL_S / op["host_s"]


def end_to_end_metrics(workload: str, ops: "list[dict]",
                       fixed_ops: int) -> dict:
    """Timings pool every untraced operation; the simulated-time
    results use only the first ``fixed_ops`` (present in every run), so
    they are a pure function of the seed."""
    done = [op for op in ops if op["ok"] and not op["traced"]]
    fixed = [op for op in done if op["index"] < fixed_ops]
    if not done:
        return {}
    attempted = sum(attempted_count(workload, op) for op in ops)
    failed = sum(failed_count(workload, op) for op in ops)
    if workload == "service_realtime":
        latencies = [x * scale(op) for op in done for x in op["latencies_ms"]]
        completed = sum(op["sim"]["completed"] for op in done)
        request_ms = statistics.median(latencies)
        # The pacer sets this wall time, not the host: left unscaled.
        busy_s = sum(op["run_s"] for op in done)
    else:
        completed = sum(op["sessions"] for op in done)
        request_ms = statistics.median(op["run_s"] * scale(op) * 1000.0
                                       for op in done)
        busy_s = sum(op["run_s"] * scale(op) for op in done)
    metrics = {
        "sessions_per_wall_s": completed / busy_s,
        "setup_s": statistics.median(op["setup_s"] * scale(op)
                                     for op in done),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in done),
        "request_p50_ms": request_ms,
        "failed_ratio": failed / attempted,
    }
    if fixed:
        metrics.update({
            "sim_utilization": statistics.fmean(
                op["sim"]["utilization"] for op in fixed),
            "sim_queue_delay_p95_ms": statistics.median(
                op["sim"]["queue_delay_p95_ms"] for op in fixed),
            "sim_gold_attainment": statistics.fmean(
                op["sim"]["gold_attainment"] for op in fixed),
        })
    if workload == "service_realtime":
        metrics["admit_p50_ms"] = request_ms
    return metrics


def _layer_values(workload: str, op: dict) -> dict:
    """Per-layer numbers of one traced operation (times scaled)."""
    spans = op["trace"]["spans"]
    factor = scale(op)

    def stat(name: str, key: str) -> float:
        value = spans.get(name, {}).get(key, 0)
        return value * factor if key.endswith("_s") else value

    counters = op["counters"]
    mapper = counters["mapper"]
    creates = stat("hv.create", "calls")
    considered = mapper["candidates_considered"]
    values = {
        "engine.events": op["trace"]["engine_events"],
        "engine.self_s": (stat("engine.run", "self_s")
                          + stat("service.advance", "self_s")),
        "fleet.admit_loop_calls": stat("fleet.admit_loop", "calls"),
        "fleet.admit_loop_self_s": stat("fleet.admit_loop", "self_s"),
        "fleet.place_rank_calls": stat("fleet.place_rank", "calls"),
        "fleet.place_rank_s": stat("fleet.place_rank", "inclusive_s"),
        "fleet.sample_calls": stat("fleet.sample", "calls"),
        "fleet.sample_self_s": stat("fleet.sample", "self_s"),
        "fleet.admission_failures": counters["admission_failures"],
        "fleet.migrations": counters["migrations"],
        "fleet.resizes": counters["resizes"],
        "fleet.preemptions": counters["preemptions"],
        "mapper.map_similar_calls": stat("mapper.map_similar", "calls"),
        "mapper.map_similar_s": stat("mapper.map_similar", "inclusive_s"),
        "mapper.cache_hit_ratio": mapper["hit_rate"],
        "mapper.candidates_considered": considered,
        "mapper.pruned_ratio": (mapper["candidates_pruned"] / considered
                                if considered else 0.0),
        "mapper.free_rebuilds": mapper["free_rebuilds"],
        "hv.create_calls": creates,
        "hv.create_self_s": stat("hv.create", "self_s"),
        "hv.create_success_ratio": ((creates - stat("hv.create", "errors"))
                                    / creates if creates else 0.0),
        "hv.destroy_s": stat("hv.destroy", "inclusive_s"),
        "hv.migrate_s": stat("hv.migrate", "inclusive_s"),
        "hv.resize_s": stat("hv.resize", "inclusive_s"),
        "hv.allocated_cores_calls": stat("hv.allocated_cores", "calls"),
        "hv.allocated_cores_s": stat("hv.allocated_cores", "inclusive_s"),
        "cost.service_cycles_calls": stat("cost.service_cycles", "calls"),
        "cost.service_cycles_s": stat("cost.service_cycles", "inclusive_s"),
        "metrics.fragmentation_calls": stat("metrics.fragmentation",
                                            "calls"),
        "metrics.fragmentation_s": stat("metrics.fragmentation",
                                        "inclusive_s"),
        "metrics.summary_s": stat("metrics.summary", "inclusive_s"),
    }
    if workload == "shard_fence_2w":
        values["shard.epochs"] = counters["epochs"]
        if op["workers"] == 1:
            shard = op["trace"]["shard"]
            values.update({
                "shard.slice_epoch_s": stat("shard.slice_epoch",
                                            "inclusive_s"),
                "shard.critical_path_s": shard["critical_path_s"] * factor,
                "shard.fence_imbalance": shard["fence_imbalance"],
                "shard.checkpoint_s": stat("shard.checkpoint",
                                           "inclusive_s"),
                "shard.checkpoint_bytes": shard["checkpoint_bytes"],
            })
        else:
            values.update({
                "shard.coord_wait_s": (stat("shard.pipe_poll", "inclusive_s")
                                       + stat("shard.pipe_recv",
                                              "inclusive_s")),
                "shard.coord_send_s": stat("shard.pipe_send", "inclusive_s"),
                "shard.coord_self_s": stat("shard.run", "self_s"),
            })
    if workload == "service_realtime":
        values.update({
            "service.advance_s": stat("service.advance", "inclusive_s"),
            "service.advance_max_ms": stat("service.advance", "max_s")
            * 1000.0,
            "service.handle_admit_s": stat("service.handle_admit",
                                           "inclusive_s"),
            "service.metrics_payload_s": stat("service.metrics_payload",
                                              "inclusive_s"),
            "protocol.decode_s": stat("protocol.decode", "inclusive_s"),
            "protocol.encode_s": stat("protocol.encode", "inclusive_s"),
            "service.admit_p99_ms": percentile(op["latencies_ms"], 99)
            * factor,
            "service.gen_lag_p99_ms": percentile(op["gen_lag_ms"], 99)
            * factor,
            "service.metrics_p50_ms": percentile(op["metrics_ms"], 50)
            * factor,
            "service.metrics_p90_ms": percentile(op["metrics_ms"], 90)
            * factor,
            "service.sim_lag_ms": statistics.median(op["sim_lag_ms"])
            * factor,
        })
    return values


def per_layer_metrics(workload: str, ops: "list[dict]") -> dict:
    """Means per traced operation, plus the tracing overhead."""
    traced = [op for op in ops if op["ok"] and op["traced"]]
    plain = {op["index"]: op for op in ops if op["ok"] and not op["traced"]}
    if not traced:
        return {}
    samples: dict[str, list[float]] = {}
    for op in traced:
        for name, value in _layer_values(workload, op).items():
            # The 2-worker shard pass owns only the coordinator spans;
            # the in-process workers=1 pass owns everything else.
            coordinator = name.startswith("shard.coord")
            if op["workers"] == 2 and workload == "shard_fence_2w" \
                    and not coordinator:
                continue
            samples.setdefault(name, []).append(value)
    totals = {name: statistics.fmean(samples[name])
              for name, _ in PER_LAYER if name in samples}
    # Overhead: traced against untraced operations on the same inputs.
    pairs = [(op, plain[op["index"]]) for op in traced
             if op["workers"] == 2 and op["index"] in plain]
    if workload == "service_realtime":
        # The pacer fixes its wall time; tracing shows up as latency.
        traced_cost = sum(percentile(t["latencies_ms"], 50) * scale(t)
                          for t, _ in pairs)
        plain_cost = sum(percentile(p["latencies_ms"], 50) * scale(p)
                         for _, p in pairs)
    else:
        traced_cost = sum(t["run_s"] * scale(t) for t, _ in pairs)
        plain_cost = sum(p["run_s"] * scale(p) for _, p in pairs)
    totals["trace.overhead_ratio"] = (traced_cost / plain_cost - 1.0
                                      if plain_cost else 0.0)
    return totals


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 deadline: float, smoke: bool) -> dict:
    run = WorkloadRun(workload, seed, seconds, deadline, smoke)
    if traced:
        run.trace()
    else:
        run.measure()
    slowdowns = [op["host_s"] / REFERENCE_KERNEL_S for op in run.ops
                 if op["ok"]]
    result = {"workload": workload, "seed": seed, "traced": traced,
              "wall_s": time.monotonic() - run.start,
              "host_slowdown": (statistics.median(slowdowns)
                                if slowdowns else None),
              "end_to_end": end_to_end_metrics(
                  workload, run.ops, 1 if traced else run.min_ops),
              "problems": run.problems, "operations": len(run.ops),
              "ops": [{key: op.get(key) for key in OP_FIELDS}
                      for op in run.ops],
              **run.verdict()}
    if traced:
        result["per_layer"] = per_layer_metrics(workload, run.ops)
    return result


# -- reporting ----------------------------------------------------------------

def print_run(result: dict) -> None:
    tag = f"[{result['workload']}]"
    for name, value in {**result["end_to_end"],
                        **result.get("per_layer", {})}.items():
        print(f"{tag} {name} = {value:.6g} {UNITS[name]}")
    slowdown = result["host_slowdown"]
    print(f"{tag} operations={result['operations']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} wall={result['wall_s']:.1f} s "
          f"host_slowdown={slowdown if slowdown is None else round(slowdown, 3)}")
    for problem in result["problems"]:
        print(f"{tag} CHECK FAILED: {problem}")


def summarize(results: "list[dict]", kind: str) -> dict:
    """Median and quartiles of each (workload, metric) across sets."""
    table: dict[str, dict[str, list[float]]] = {}
    for result in results:
        for name, value in result.get(kind, {}).items():
            table.setdefault(result["workload"], {}).setdefault(
                name, []).append(value)
    return {workload: {name: quantile_row(values)
                       for name, values in metrics.items()}
            for workload, metrics in table.items()}


def result_line(results: "list[dict]", traced: bool) -> dict:
    names = PER_LAYER_GATED if traced else GATED
    rows = summarize(results, "per_layer" if traced else "end_to_end")
    single = len(rows) == 1
    metrics = {}
    for workload, row in rows.items():
        for name in names:
            if name in row:
                key = name if single else f"{workload}/{name}"
                metrics[key] = {"value": row[name]["median"],
                                "unit": UNITS[name]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def preflight(warm_up: bool) -> bool:
    """The untimed warm-up import; False when the program is missing."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return False
    if not warm_up:
        return True
    warm = subprocess.run([sys.executable, str(HERE / "ops.py"), "--warmup"],
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print("error: warm-up import failed:\n" + warm.stderr,
              file=sys.stderr)
        return False
    return True


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload run (default 25)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer breakdown instead of end-to-end")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets to run, alternating workload order")
    parser.add_argument("--deadline", type=float, default=180.0,
                        help="seconds one operation may take (default 180)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one operation per run (tests)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    # Smoke runs skip the warm-up: their timings are not compared.
    if not preflight(warm_up=not args.smoke):
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workloads = args.workload or list(WORKLOADS)
    results = []
    for index in range(args.repeat):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = (WORKLOADS[workload].default_seed if args.seed is None
                    else args.seed)
            result = run_workload(workload, seed, args.seconds,
                                  bool(args.trace), args.deadline,
                                  args.smoke)
            result["set"] = index
            print_run(result)
            results.append(result)
    if args.repeat > 1:
        for kind in ("end_to_end", "per_layer"):
            for workload, row in summarize(results, kind).items():
                for name, stats in row.items():
                    print(f"[{workload}] {name} "
                          f"median={stats['median']:.6g} "
                          f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                          f"{UNITS[name]}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"traced": bool(args.trace), "units": UNITS, "runs": results},
            indent=1, sort_keys=True) + "\n")
    line = result_line(results, bool(args.trace))
    if not line["metrics"]:
        print("error: no operation finished", file=sys.stderr)
        return 1
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
