"""Unit tests for the serving layer: traces, cache, registries, scheduler."""

import pytest

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape, Topology
from repro.core.hypervisor import Hypervisor
from repro.core.strategies import (
    available_strategies,
    register_strategy,
    resolve_strategy,
    unregister_strategy,
)
from repro.core.topology_mapping import TopologyMapper
from repro.core.vnpu import VNpuSpec
from repro.errors import ConfigError, HypervisorError, ServingError
from repro.serving import (
    FleetScheduler,
    PendingQueue,
    PendingSession,
    TenantSession,
    generate_trace,
    register_policy,
    resolve_policy,
)
from repro.serving.metrics import fragmentation_ratio, percentile
from repro.serving.policies import BestFitPolicy, FCFSPolicy, PriorityPolicy

from mapping_oracle import map_similar_unmemoized


def session(session_id=0, arrival=0, rows=2, cols=2, priority=0,
            model="alexnet", inferences=10):
    return TenantSession(
        session_id=session_id, tenant=f"t{session_id}",
        arrival_cycle=arrival, rows=rows, cols=cols,
        memory_bytes=rows * cols * 8 * MB, model=model,
        inferences=inferences, priority=priority,
    )


class TestTraceGenerator:
    def test_same_seed_identical(self):
        assert generate_trace(42, 50) == generate_trace(42, 50)

    def test_different_seed_differs(self):
        assert generate_trace(1, 50) != generate_trace(2, 50)

    def test_arrivals_strictly_increase(self):
        trace = generate_trace(3, 80)
        arrivals = [s.arrival_cycle for s in trace]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)

    def test_shapes_respect_chip_size(self):
        trace = generate_trace(5, 100, max_cores=16)
        assert all(s.core_count <= 16 for s in trace)

    @pytest.mark.parametrize("sessions,knobs,message", [
        (0, {}, "at least one session"),
        (5, {"sticky_fraction": 1.5}, "sticky_fraction"),
        (5, {"arrival_process": "nope"}, "unknown arrival process"),
        (5, {"burst_gap_factor": 0}, "burst_gap_factor"),
        (5, {"burst_enter_prob": 2}, "burst enter/exit"),
        (5, {"diurnal_amplitude": 1.0}, "diurnal_amplitude"),
        (5, {"diurnal_period_cycles": 0}, "diurnal_period_cycles"),
        (5, {"slo_mix": (("platinum", 1),)}, "platinum"),
        (5, {"max_cores": 16, "shape_mix": ((MeshShape(6, 6), 1),)},
         "no trace shape fits a 16-core chip"),
    ])
    def test_empty_trace_rejected(self, sessions, knobs, message):
        with pytest.raises(ServingError, match=message):
            generate_trace(0, sessions, **knobs)


class TestMappingCache:
    CASES = [
        (Topology.mesh2d(2, 2), set()),
        (Topology.mesh2d(2, 2), {0, 1, 2, 7, 8}),
        (Topology.mesh2d(2, 3), {0, 5, 10, 15, 20}),
        (Topology.line(3), {1, 3, 5, 7, 9, 11}),
    ]

    def test_cached_results_match_uncached(self):
        chip = Topology.mesh2d(5, 5)
        cached = TopologyMapper(chip)
        uncached = TopologyMapper(chip)
        for request, allocated in self.CASES:
            for _ in range(2):  # second pass hits the results memo
                a = cached.map_similar(request, set(allocated))
                b = map_similar_unmemoized(uncached, request, set(allocated))
                assert a.vmap == b.vmap
                assert a.distance == b.distance
                assert a.connected == b.connected
        assert cached.cache_hits > 0
        assert uncached.cache_hits == 0
        assert not uncached.memos.results

    def test_hit_returns_fresh_vmap(self):
        mapper = TopologyMapper(Topology.mesh2d(4, 4))
        request = Topology.mesh2d(2, 2)
        first = mapper.map_similar(request)
        first.vmap[99] = 99  # corrupting the result must not poison the memo
        second = mapper.map_similar(request)
        assert 99 not in second.vmap
        assert mapper.cache_hits == 1

    def test_name_does_not_split_cache_entries(self):
        """Tenants name their request meshes differently; structure decides."""
        mapper = TopologyMapper(Topology.mesh2d(4, 4))
        mapper.map_similar(Topology.mesh2d(2, 2, name="tenant-a-req"))
        mapper.map_similar(Topology.mesh2d(2, 2, name="tenant-b-req"))
        assert mapper.cache_stats()["hits"] == 1

    def test_eviction_bounds_entries(self):
        """``memo_size`` bounds the results memo; an evicted result is
        priced again on its next lookup."""
        mapper = TopologyMapper(Topology.mesh2d(4, 4), memo_size=1)
        mapper.map_similar(Topology.mesh2d(2, 2))
        mapper.map_similar(Topology.mesh2d(1, 3))
        assert len(mapper.memos.results) == 1
        mapper.map_similar(Topology.mesh2d(2, 2))
        assert (mapper.cache_hits, mapper.cache_misses) == (0, 3)


class TestStrategyRegistry:
    def test_builtins_registered(self):
        for name in ("exact", "similar", "straightforward", "fragmented"):
            assert name in available_strategies()

    def test_unknown_name_raises(self):
        with pytest.raises(HypervisorError):
            resolve_strategy("vibes")

    def test_duplicate_registration_rejected(self):
        class Dupe:
            name = "similar"

            def map(self, mapper, spec, allocated):  # pragma: no cover
                raise AssertionError

        with pytest.raises(ConfigError):
            register_strategy(Dupe())

    def test_unregister_unknown_raises(self):
        with pytest.raises(ConfigError):
            unregister_strategy("never-registered")

    def test_custom_strategy_flows_through_hypervisor(self):
        class ReverseZigzag:
            """Toy strategy: straightforward mapping, custom name."""

            name = "test-reverse-zigzag"

            def map(self, mapper, spec, allocated):
                return mapper.map_straightforward(spec.topology, allocated)

        register_strategy(ReverseZigzag())
        try:
            hv = Hypervisor(Chip(sim_config(16)))
            vnpu = hv.create_vnpu(
                VNpuSpec("t", MeshShape(2, 2), 16 * MB),
                strategy="test-reverse-zigzag",
            )
            assert vnpu.mapping.strategy == "straightforward"
        finally:
            unregister_strategy("test-reverse-zigzag")


class TestPolicyRegistry:
    def test_unknown_policy_raises(self):
        with pytest.raises(ServingError):
            resolve_policy("round-robin")

    def test_duplicate_policy_rejected(self):
        with pytest.raises(ServingError):
            register_policy(FCFSPolicy())


class TestPolicies:
    def test_fcfs_head_of_line_blocks(self):
        pending = PendingQueue([PendingSession(session(0, rows=3, cols=3)),
                                PendingSession(session(1, rows=1, cols=2))])
        assert FCFSPolicy().select(pending, free_cores=4) is None

    def test_fcfs_skips_blocked_head(self):
        head = PendingSession(session(0, rows=2, cols=2), blocked=True)
        follower = PendingSession(session(1, rows=1, cols=2))
        pending = PendingQueue([head, follower])
        assert FCFSPolicy().select(pending, free_cores=4) is follower

    def test_best_fit_prefers_tightest_packing(self):
        small = PendingSession(session(0, rows=1, cols=2))
        big = PendingSession(session(1, rows=2, cols=3))
        pending = PendingQueue([small, big])
        assert BestFitPolicy().select(pending, free_cores=6) is big
        assert BestFitPolicy().select(pending, free_cores=5) is small

    def test_priority_orders_by_priority_then_arrival(self):
        low = PendingSession(session(0, arrival=0, priority=0))
        high = PendingSession(session(1, arrival=5, priority=2))
        pending = PendingQueue([low, high])
        assert PriorityPolicy().select(pending, free_cores=8) is high


class TestMetricsHelpers:
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile([], 95) == 0.0

    @pytest.mark.parametrize("pct", [-1, 100.5, 150])
    def test_percentile_validates_pct_before_empty_check(self, pct):
        with pytest.raises(ValueError, match="percentile must be in"):
            percentile([], pct)
        with pytest.raises(ValueError, match="percentile must be in"):
            percentile([1, 2, 3], pct)

    def test_fragmentation_ratio(self):
        mesh = Topology.mesh2d(2, 2)
        assert fragmentation_ratio(mesh, set()) == 0.0
        assert fragmentation_ratio(mesh, {0, 1, 2, 3}) == 0.0
        # Free cores 0 and 3 are opposite corners: two 1-core fragments.
        assert fragmentation_ratio(mesh, {1, 2}) == pytest.approx(0.5)


class TestOneChipFleet:
    def make(self, policy="fcfs", cores=16):
        scheduler = FleetScheduler([sim_config(cores)], policy=policy)
        return scheduler, scheduler.chips[0].hypervisor

    def test_serves_whole_trace_and_frees_everything(self):
        scheduler, hv = self.make()
        trace = generate_trace(11, 25, max_cores=16)
        metrics = scheduler.serve(trace)
        assert len(metrics.records) + metrics.rejected == len(trace)
        assert metrics.rejected == 0
        assert hv.core_utilization() == 0.0
        assert hv.vnpus == []
        assert hv.buddy.free_bytes == hv.buddy.capacity
        for record in metrics.records:
            assert record.admit_cycle >= record.arrival_cycle
            assert record.depart_cycle > record.admit_cycle

    @pytest.mark.parametrize("policy", ["fcfs", "best_fit", "priority"])
    def test_deterministic_across_runs(self, policy):
        def run():
            scheduler, _ = self.make(policy=policy)
            metrics = scheduler.serve(generate_trace(23, 20, max_cores=16))
            return metrics.summary(500_000_000)

        assert run() == run()

    def test_policies_share_completion_but_differ_in_order(self):
        def admit_order(policy):
            scheduler, _ = self.make(policy=policy)
            # Tight arrivals force queueing so the policy actually chooses.
            trace = generate_trace(31, 20, max_cores=16,
                                   mean_interarrival_cycles=10_000)
            metrics = scheduler.serve(trace)
            return [r.session_id
                    for r in sorted(metrics.records,
                                    key=lambda r: (r.admit_cycle,
                                                   r.session_id))]

        orders = {policy: admit_order(policy)
                  for policy in ("fcfs", "best_fit", "priority")}
        assert all(len(order) == 20 for order in orders.values())
        assert len({tuple(order) for order in orders.values()}) > 1

    def test_mapping_cache_hit_under_churn(self):
        scheduler, hv = self.make()
        scheduler.serve(generate_trace(7, 40, max_cores=16))
        assert hv.mapper.cache_hits > 0

    def test_bad_strategy_fails_at_construction(self):
        with pytest.raises(HypervisorError):
            FleetScheduler([sim_config(16)], strategy="similiar")

    def test_bad_policy_name_fails_at_construction(self):
        with pytest.raises(ServingError):
            FleetScheduler([sim_config(16)], policy="round-robin")

    def test_policy_instance_validated_at_construction(self):
        """Instances get the same fail-fast treatment as names: anything
        that is not an AdmissionPolicy is rejected, naming the value."""
        with pytest.raises(ServingError, match="42"):
            FleetScheduler([sim_config(16)], policy=42)
        with pytest.raises(ServingError):
            # A policy *class* (not an instance) must be rejected too.
            FleetScheduler([sim_config(16)], policy=FCFSPolicy)

    def test_valid_policy_instance_accepted(self):
        scheduler = FleetScheduler([sim_config(16)], policy=BestFitPolicy())
        assert scheduler.policy.name == "best_fit"

    def test_run_before_submit_raises(self):
        scheduler, _ = self.make()
        with pytest.raises(ServingError):
            scheduler.run()

    def test_second_submit_is_served(self):
        # submit is the one way in and may be called again mid-run: the
        # second batch (one arrival already past, one ahead) is served
        # alongside the first.
        scheduler, hv = self.make()
        first = generate_trace(1, 3, max_cores=16)
        scheduler.submit(first)
        scheduler.run(until=first[-1].arrival_cycle)
        now = scheduler.sim.now
        second = [session(session_id=100, arrival=now - 1),
                  session(session_id=101, arrival=now + 1_000)]
        scheduler.submit(second)
        scheduler.run()
        served = sorted(r.session_id for r in scheduler.metrics.records)
        assert served == sorted(s.session_id for s in first + second)
        assert not hv.vnpus and scheduler.free_core_count() == 16

    def test_unknown_model_rejected_at_submit(self):
        scheduler, _ = self.make()
        with pytest.raises(ServingError):
            scheduler.submit([session(model="skynet")])

    def test_oversized_session_rejected_at_submit(self):
        scheduler, _ = self.make()
        with pytest.raises(ServingError):
            scheduler.submit([session(rows=6, cols=6)])

    def test_shared_hypervisor_serves_around_squatter(self, monkeypatch):
        """The chip's hypervisor already hosts a vNPU the scheduler did
        not admit: the trace is served on the remaining cores and the
        squatter is never touched."""
        free_at_samples = []
        sample = FleetScheduler._sample

        def spy(fleet):
            free_at_samples.append(fleet.free_core_count())
            sample(fleet)

        monkeypatch.setattr(FleetScheduler, "_sample", spy)
        scheduler = FleetScheduler([sim_config(16)])
        hv = scheduler.chips[0].hypervisor
        squatter = hv.create_vnpu(VNpuSpec("squatter", MeshShape(2, 2),
                                           32 * MB))
        cores = squatter.physical_cores
        trace = generate_trace(11, 25, max_cores=12)
        metrics = scheduler.serve(trace)
        assert len(metrics.records) == len(trace)
        assert metrics.rejected == 0
        assert hv.vnpus == [squatter]
        assert hv.vnpu(squatter.vmid).physical_cores == cores
        assert free_at_samples
        assert all(free <= 12 for free in free_at_samples)

    def test_queue_delay_zero_on_idle_chip(self):
        scheduler, _ = self.make()
        # One tiny tenant on an empty chip: admitted the cycle it arrives.
        metrics = scheduler.serve([session(0, arrival=10)])
        assert metrics.records[0].queue_delay_cycles == 0
