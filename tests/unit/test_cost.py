"""Unit tests for the unified fidelity-tiered cost engine."""

import pytest

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape
from repro.compiler.mapper import map_stages
from repro.compiler.partitioner import partition
from repro.core.hypervisor import Hypervisor
from repro.core.vnpu import VNpuSpec
from repro.cost import (
    AnalyticCostModel,
    CachedCostModel,
    CostModel,
    ExecutorCostModel,
    WorkloadCost,
    available_cost_models,
    canonical_vnpu,
    coerce_cost_model,
    lower_mapped_task,
    migration_cycles,
    migration_data_cycles,
    placement_class,
    register_cost_model,
    resolve_cost_model,
    unregister_cost_model,
)
from repro.core.topology_mapping import MappingResult
from repro.errors import ServingError
from repro.serving import FleetScheduler, TenantSession
from repro.workloads.zoo import SERVING_MODEL_BUILDERS


def session(session_id=0, rows=2, cols=2, model="mobilenet", inferences=5,
            memory_per_core=32 * MB):
    return TenantSession(
        session_id=session_id, tenant=f"t{session_id}", arrival_cycle=0,
        rows=rows, cols=cols, memory_bytes=rows * cols * memory_per_core,
        model=model, inferences=inferences,
    )


def provisioned(cores=16, rows=2, cols=2, memory=128 * MB, klass="exact"):
    chip = Chip(sim_config(cores))
    hypervisor = Hypervisor(chip)
    vnpu = canonical_vnpu(
        hypervisor, VNpuSpec("t", MeshShape(rows, cols), memory), klass)
    return chip, vnpu


class TestRegistryAndCoercion:
    def test_builtin_tiers_registered(self):
        assert set(available_cost_models()) >= {"analytic", "cached",
                                                "executor"}

    def test_resolve_returns_class(self):
        assert resolve_cost_model("analytic") is AnalyticCostModel

    def test_unknown_tier_names_value_and_lists_tiers(self):
        with pytest.raises(ServingError) as err:
            resolve_cost_model("quantum")
        message = str(err.value)
        assert "'quantum'" in message
        for tier in available_cost_models():
            assert tier in message

    def test_coerce_unknown_name_raises_serving_error(self):
        with pytest.raises(ServingError) as err:
            coerce_cost_model("nope")
        assert "'nope'" in str(err.value)
        assert "analytic" in str(err.value)

    def test_coerce_name_returns_fresh_instance(self):
        a = coerce_cost_model("analytic")
        b = coerce_cost_model("analytic")
        assert isinstance(a, AnalyticCostModel)
        assert a is not b

    def test_coerce_rejects_class_object(self):
        with pytest.raises(ServingError) as err:
            coerce_cost_model(AnalyticCostModel)
        assert "AnalyticCostModel" in str(err.value)

    def test_coerce_rejects_non_cost_model(self):
        with pytest.raises(ServingError):
            coerce_cost_model(object())

    def test_coerce_passes_instances_through(self):
        model = AnalyticCostModel()
        assert coerce_cost_model(model) is model

    def test_register_rejects_non_subclass(self):
        with pytest.raises(ServingError):
            register_cost_model(object)

    def test_custom_tier_registration_roundtrip(self):
        class FlatCostModel(CostModel):
            name = "flat"

            def workload_cost(self, chip, session, vnpu):
                return WorkloadCost(0, 1000, tier=self.name, source="flat")

        register_cost_model(FlatCostModel)
        try:
            model = coerce_cost_model("flat")
            chip, vnpu = provisioned()
            assert model.service_cycles(chip, session(inferences=3), vnpu) \
                == 3000 + vnpu.setup_cycles
        finally:
            unregister_cost_model("flat")


class TestWorkloadCost:
    def test_service_cycles_formula(self):
        cost = WorkloadCost(100, 10, tier="t", source="s")
        assert cost.service_cycles(5, setup_cycles=7) == 100 + 50 + 7

    def test_service_cycles_floors_at_one(self):
        assert WorkloadCost(0, 0, tier="t", source="s").service_cycles(0) == 1


class TestCharges:
    def test_data_cycles_use_slower_memory_system(self):
        fast = sim_config(16)
        slow = sim_config(16)
        # Same config -> symmetric; charge is positive and linear-ish.
        one = migration_data_cycles(fast, slow, 64 * MB)
        two = migration_data_cycles(fast, slow, 128 * MB)
        assert one > 0
        assert two >= 2 * one - 1

    def test_zero_resident_bytes_cost_zero(self):
        config = sim_config(16)
        assert migration_data_cycles(config, config, 0) == 0

    def test_migration_adds_reconfig(self):
        config = sim_config(16)
        base = migration_data_cycles(config, config, 1 * MB)
        assert migration_cycles(config, config, 1 * MB, 555) == base + 555

    def test_hypervisor_routes_migration_through_charges(self):
        chip = Chip(sim_config(16))
        hypervisor = Hypervisor(chip)
        vnpu = hypervisor.create_vnpu(
            VNpuSpec("m", MeshShape(2, 2), 64 * MB))
        resident = vnpu.memory_bytes
        migrated, cost = hypervisor.migrate_vnpu(vnpu.vmid)
        assert cost == migration_cycles(chip.config, chip.config,
                                        resident, migrated.setup_cycles)


class TestPlacementClass:
    def test_exact(self):
        mapping = MappingResult("s", {0: 0}, 0.0, True)
        assert placement_class(mapping) == "exact"

    def test_stretched(self):
        mapping = MappingResult("s", {0: 0}, 2.0, True)
        assert placement_class(mapping) == "stretched"

    def test_fragmented_wins_over_distance(self):
        mapping = MappingResult("s", {0: 0}, 0.0, False)
        assert placement_class(mapping) == "fragmented"

    def test_canonical_exact_has_zero_distance(self):
        _chip, vnpu = provisioned(klass="exact")
        assert vnpu.mapping.distance == 0
        assert vnpu.mapping.connected

    def test_canonical_fragmented_punches_holes(self):
        chip, vnpu = provisioned(rows=3, cols=3, memory=288 * MB,
                                 klass="fragmented")
        # Blockers occupy cores, so the 3x3 tenant cannot sit in the
        # top-left exact block the empty-chip mapper would pick.
        assert vnpu.mapping.strategy == "fragmented"

    def test_unknown_class_rejected(self):
        chip = Chip(sim_config(16))
        with pytest.raises(ServingError):
            canonical_vnpu(Hypervisor(chip),
                           VNpuSpec("t", MeshShape(2, 2), 64 * MB),
                           "warped")


class TestLowering:
    @staticmethod
    def mapped(model="mobilenet", rows=2, cols=2):
        config = sim_config(16)
        graph = SERVING_MODEL_BUILDERS[model]()
        plan = partition(graph, rows * cols,
                         weight_zone_bytes=config.core.weight_zone_bytes)
        from repro.arch.topology import Topology
        topology = Topology.mesh2d(rows, cols, name="req")
        return map_stages(plan, topology, name=graph.name)

    def test_lowered_programs_validate(self):
        mapped = self.mapped()
        warmup, iteration = lower_mapped_task(mapped, 128 * MB)
        allowed = set(mapped.vcores)
        warmup.validate(allowed_cores=allowed)
        iteration.validate(allowed_cores=allowed)

    def test_iteration_program_carries_flows_and_compute(self):
        mapped = self.mapped()
        _warmup, iteration = lower_mapped_task(mapped, 128 * MB)
        assert iteration.total_noc_bytes() == mapped.total_flow_bytes()
        assert len(iteration) > 0

    def test_warmup_carries_resident_weights(self):
        mapped = self.mapped()
        warmup, _iteration = lower_mapped_task(mapped, 128 * MB)
        resident = sum(mapped.weight_bytes.values())
        assert warmup.total_dma_bytes() == resident

    def test_va_window_wraps_instead_of_escaping(self):
        mapped = self.mapped(model="resnet18")
        span = 4 * MB  # far smaller than resnet18's weights
        warmup, iteration = lower_mapped_task(mapped, span)
        base = 0x1_0000
        for program in (*warmup.programs(), *iteration.programs()):
            for instruction in program.instructions:
                if hasattr(instruction, "virtual_address"):
                    va = instruction.virtual_address
                    assert base <= va < base + span
                    assert va + instruction.nbytes <= base + span

    def test_non_positive_span_rejected(self):
        with pytest.raises(ServingError):
            lower_mapped_task(self.mapped(), 0)


class TestAnalyticTier:
    def test_matches_legacy_formula(self):
        chip, vnpu = provisioned()
        model = AnalyticCostModel()
        s = session(inferences=9)
        cost = model.workload_cost(chip, s, vnpu)
        assert model.service_cycles(chip, s, vnpu) == (
            cost.warmup_cycles + 9 * cost.iteration_cycles
            + vnpu.setup_cycles)

    def test_memoizes_by_shape(self):
        chip, vnpu = provisioned()
        model = AnalyticCostModel()
        model.workload_cost(chip, session(), vnpu)
        assert len(model._cache) == 1
        model.workload_cost(chip, session(session_id=1), vnpu)
        assert len(model._cache) == 1

    def test_unknown_model_raises(self):
        chip, vnpu = provisioned()
        with pytest.raises(ServingError) as err:
            AnalyticCostModel().workload_cost(
                chip, session(model="nonesuch"), vnpu)
        assert "nonesuch" in str(err.value)

    def test_register_model_rejects_duplicates(self):
        model = AnalyticCostModel()
        with pytest.raises(ServingError):
            model.register_model("mobilenet", lambda: None)


class TestExecutorTier:
    def test_deterministic_across_instances(self):
        config = sim_config(16)
        a = ExecutorCostModel().measure(config, "mobilenet", 2, 2,
                                        128 * MB, "exact")
        b = ExecutorCostModel().measure(config, "mobilenet", 2, 2,
                                        128 * MB, "exact")
        assert a == b

    def test_counts_runs_not_memoized(self):
        config = sim_config(16)
        model = ExecutorCostModel()
        model.measure(config, "mobilenet", 2, 2, 128 * MB, "exact")
        model.measure(config, "mobilenet", 2, 2, 128 * MB, "exact")
        assert model.runs == 2

    def test_positive_cycles_all_classes(self):
        config = sim_config(16)
        model = ExecutorCostModel()
        for klass in ("exact", "stretched", "fragmented"):
            cost = model.measure(config, "gpt2-small", 2, 3, 192 * MB,
                                 klass)
            assert cost.iteration_cycles > 0
            assert cost.placement_class == klass
            assert cost.source == "executor"

    def test_invalid_measure_iterations(self):
        with pytest.raises(ServingError):
            ExecutorCostModel(measure_iterations=0)

    def test_workload_cost_uses_session_placement_class(self):
        chip, vnpu = provisioned(rows=2, cols=2)
        model = ExecutorCostModel()
        cost = model.workload_cost(chip, session(), vnpu)
        assert cost.placement_class == placement_class(vnpu.mapping)


class TestCachedTier:
    def test_hit_reproduces_executor_exactly(self):
        chip, vnpu = provisioned()
        cached = CachedCostModel()
        first = cached.workload_cost(chip, session(), vnpu)
        hit = cached.workload_cost(chip, session(session_id=1), vnpu)
        assert (hit.warmup_cycles, hit.iteration_cycles) \
            == (first.warmup_cycles, first.iteration_cycles)
        truth = ExecutorCostModel().measure(
            chip.config, "mobilenet", 2, 2, 128 * MB,
            placement_class(vnpu.mapping))
        assert hit.warmup_cycles == truth.warmup_cycles
        assert hit.iteration_cycles == truth.iteration_cycles
        assert cached.cache_stats()["hits"] == 1
        assert cached.cache_stats()["hit_rate"] == 0.5

    def test_budget_exhausted_interpolates_from_donor(self):
        chip, vnpu = provisioned()
        cached = CachedCostModel(max_executor_runs=1)
        seeded = cached.workload_cost(chip, session(rows=2, cols=2), vnpu)
        assert seeded.source == "executor"
        chip2, vnpu2 = provisioned(rows=2, cols=3, memory=192 * MB)
        interp = cached.workload_cost(
            chip2, session(rows=2, cols=3), vnpu2)
        assert interp.source == "interpolated"
        assert interp.iteration_cycles > 0
        assert cached.cache_stats()["interpolations"] == 1

    def test_no_donor_falls_back_to_analytic(self):
        chip, vnpu = provisioned()
        cached = CachedCostModel(max_executor_runs=0)
        cost = cached.workload_cost(chip, session(), vnpu)
        analytic = AnalyticCostModel().workload_cost(chip, session(), vnpu)
        assert cost.source == "analytic"
        assert cost.iteration_cycles == analytic.iteration_cycles

    def test_interpolation_scales_with_analytic_ratio(self):
        chip, vnpu = provisioned()
        cached = CachedCostModel(max_executor_runs=1)
        donor = cached.workload_cost(chip, session(model="resnet18"), vnpu)
        chip2, vnpu2 = provisioned(rows=3, cols=3, memory=288 * MB)
        interp = cached.workload_cost(
            chip2, session(rows=3, cols=3, model="resnet18"), vnpu2)
        analytic = AnalyticCostModel()
        here = analytic.workload_cost(
            chip2, session(rows=3, cols=3, model="resnet18"), vnpu2)
        there = analytic.workload_cost(
            chip, session(model="resnet18"), vnpu)
        expected = round(donor.iteration_cycles * here.iteration_cycles
                         / there.iteration_cycles)
        assert interp.iteration_cycles == max(1, expected)

    def test_negative_budget_rejected(self):
        with pytest.raises(ServingError):
            CachedCostModel(max_executor_runs=-1)

    def test_register_model_reaches_sub_tiers(self):
        cached = CachedCostModel()
        builder = SERVING_MODEL_BUILDERS["mobilenet"]
        cached.register_model("tiny", builder)
        assert "tiny" in cached.models
        assert "tiny" in cached._executor.models
        assert "tiny" in cached._analytic.models


class TestSchedulerIntegration:
    @staticmethod
    def run_scheduler(cost_model):
        scheduler = FleetScheduler([sim_config(16)], cost_model=cost_model)
        trace = [session(session_id=i, inferences=3) for i in range(3)]
        trace = [TenantSession(
            session_id=s.session_id, tenant=s.tenant,
            arrival_cycle=i * 1000, rows=s.rows, cols=s.cols,
            memory_bytes=s.memory_bytes, model=s.model,
            inferences=s.inferences) for i, s in enumerate(trace)]
        metrics = scheduler.serve(trace)
        return scheduler, metrics

    def test_scheduler_accepts_tier_names(self):
        for tier in ("analytic", "cached"):
            scheduler, metrics = self.run_scheduler(tier)
            assert metrics.records
            assert scheduler.cost_model.name == tier

    def test_scheduler_rejects_unknown_tier(self):
        with pytest.raises(ServingError) as err:
            FleetScheduler([sim_config(16)], cost_model="psychic")
        assert "'psychic'" in str(err.value)

    def test_cached_and_analytic_complete_same_sessions(self):
        _s1, analytic = self.run_scheduler("analytic")
        _s2, cached = self.run_scheduler("cached")
        assert ({r.session_id for r in analytic.records}
                == {r.session_id for r in cached.records})


class TestCanonicalFallback:
    def test_fragmented_fallback_releases_blockers_on_memory_pressure(self):
        """Blockers eating the last buddy block must not fail the probe."""
        from dataclasses import replace
        base = sim_config(16)
        config = replace(base, memory=replace(base.memory,
                                              capacity_bytes=64 * MB))
        chip = Chip(config)
        hypervisor = Hypervisor(chip)
        # Demand the entire (shrunk) buddy capacity: the hole blockers'
        # memory makes the first attempt unsatisfiable, so canonical_vnpu
        # must tear them down and retry on the clean chip.
        spec = VNpuSpec("greedy", MeshShape(2, 2),
                        hypervisor.buddy.capacity)
        vnpu = canonical_vnpu(hypervisor, spec, "fragmented")
        assert vnpu.memory_bytes == hypervisor.buddy.capacity
        assert [v.vmid for v in hypervisor.vnpus] == [vnpu.vmid]


class TestScaledGuard:
    def test_zero_analytic_donor_falls_back_to_local_analytic(self):
        from repro.cost.cached import _scaled
        assert _scaled(10_000, 777, 0) == 777
        assert _scaled(10_000, 777, -1) == 777
        assert _scaled(100, 50, 25) == 200


class TestFleetCostModel:
    def test_fleet_serves_with_cached_tier(self):
        trace = [
            TenantSession(session_id=i, tenant=f"t{i}",
                          arrival_cycle=i * 1000, rows=2, cols=2,
                          memory_bytes=128 * MB, model="mobilenet",
                          inferences=2)
            for i in range(4)
        ]
        fleet = FleetScheduler.homogeneous(2, cores=16, cost_model="cached")
        metrics = fleet.serve(trace, limit=50_000_000_000)
        assert len(metrics.records) == 4
        assert fleet.cost_model.cache_stats()["hits"] == 3

    def test_fleet_rejects_unknown_tier(self):
        with pytest.raises(ServingError) as err:
            FleetScheduler.homogeneous(2, cores=16, cost_model="warp")
        assert "'warp'" in str(err.value)


class TestRunArgumentValidation:
    def test_until_with_limit_rejected(self):
        scheduler = FleetScheduler([sim_config(16)])
        scheduler.submit([session()])
        with pytest.raises(ServingError, match="not both"):
            scheduler.run(until=100, limit=200)

    def test_fleet_until_with_limit_rejected(self):
        fleet = FleetScheduler.homogeneous(2, cores=16)
        fleet.submit([session()])
        with pytest.raises(ServingError, match="not both"):
            fleet.run(until=100, limit=200)
