"""Unit tests for SLO classes, elastic policies and elastic scheduling."""

import pytest

from repro.arch.config import MB, sim_config
from repro.errors import ServingError
from repro.serving import (
    BEST_EFFORT,
    DEFAULT_SLO_MIX,
    GOLD,
    SILVER,
    FleetScheduler,
    PendingQueue,
    PendingSession,
    SLOClass,
    SLOMetrics,
    TenantSession,
    available_elastics,
    available_slos,
    coerce_elastic,
    effective_priority,
    generate_fleet_trace,
    generate_trace,
    register_slo,
    resolve_elastic,
    resolve_slo,
    session_slo,
    shrink_shape,
    unregister_slo,
)
from repro.serving.metrics import SessionRecord
from repro.serving.policies import PriorityPolicy
from repro.serving.slo import ElasticVictim


def session(session_id=0, arrival=0, rows=2, cols=2, priority=0,
            model="alexnet", inferences=10, slo=""):
    return TenantSession(
        session_id=session_id, tenant=f"t{session_id}",
        arrival_cycle=arrival, rows=rows, cols=cols,
        memory_bytes=rows * cols * 8 * MB, model=model,
        inferences=inferences, priority=priority, slo=slo,
    )


def victim(tier=0, cores=4, freeable=2, preemptible=True, order=(0, 0),
           key=None):
    return ElasticVictim(key=key, tier=tier, cores=cores,
                         freeable_by_shrink=freeable,
                         preemptible=preemptible, order=order)


class TestSLOClasses:
    def test_builtins_registered(self):
        assert {"gold", "silver", "best_effort"} <= set(available_slos())

    def test_unknown_class_raises(self):
        with pytest.raises(ServingError):
            resolve_slo("platinum")

    def test_register_and_unregister(self):
        bronze = SLOClass("bronze-test", tier=0,
                          queue_delay_target_cycles=10)
        register_slo(bronze)
        try:
            assert resolve_slo("bronze-test") is bronze
        finally:
            unregister_slo("bronze-test")

    def test_met_without_target_always_true(self):
        assert BEST_EFFORT.met(10**12)

    def test_met_with_target(self):
        assert GOLD.met(GOLD.queue_delay_target_cycles)
        assert not GOLD.met(GOLD.queue_delay_target_cycles + 1)

    def test_relief_due_semantics(self):
        # Tier 0 never squeezes anyone.
        assert not BEST_EFFORT.relief_due(10**12)
        # Gold fires the moment it is blocked.
        assert GOLD.relief_due(0)
        # Silver fires only past its target (pressure, not privilege).
        assert not SILVER.relief_due(SILVER.queue_delay_target_cycles - 1)
        assert SILVER.relief_due(SILVER.queue_delay_target_cycles)

    def test_session_slo_explicit_beats_priority(self):
        assert session_slo(session(slo="gold")) is GOLD
        assert session_slo(session(priority=2)) is GOLD
        assert session_slo(session(priority=0)) is BEST_EFFORT
        assert session_slo(session(priority=99)) is GOLD  # clamped

    def test_effective_priority_backward_compatible(self):
        # Legacy sessions keep their raw priority, even outside 0..2.
        assert effective_priority(session(priority=7)) == 7
        assert effective_priority(session(slo="gold", priority=0)) == 2


class TestShrinkShape:
    @pytest.mark.parametrize("rows,cols,expected", [
        (3, 3, (2, 3)),
        (2, 2, (1, 2)),
        (4, 4, (2, 4)),
        (1, 2, (1, 1)),
        (2, 3, (2, 2)),
        (1, 6, (1, 3)),
    ])
    def test_halves_longer_dimension(self, rows, cols, expected):
        shape = shrink_shape(rows, cols)
        assert (shape.rows, shape.cols) == expected

    def test_floor_is_one_core(self):
        assert shrink_shape(1, 1) is None


class TestElasticPolicies:
    def test_builtins_registered(self):
        assert {"shrink", "preempt", "shrink_then_preempt"} <= set(
            available_elastics())

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ServingError):
            coerce_elastic(42)
        with pytest.raises(ServingError, match="unknown"):
            coerce_elastic("evict-everyone")
        assert coerce_elastic(None) is None
        assert coerce_elastic("shrink").name == "shrink"

    def test_shrink_plan_covers_or_declines(self):
        policy = resolve_elastic("shrink")
        victims = [victim(freeable=2, order=(0, 0)),
                   victim(freeable=3, order=(0, 1))]
        plan = policy.plan(4, victims)
        assert [a.kind for a in plan] == ["shrink", "shrink"]
        assert plan[0].victim.freeable_by_shrink == 3  # biggest first
        assert policy.plan(6, victims) == []  # cannot cover -> decline

    def test_preempt_plan_lowest_tier_biggest_first(self):
        policy = resolve_elastic("preempt")
        victims = [victim(tier=1, cores=9, order=(0, 0)),
                   victim(tier=0, cores=4, order=(0, 1)),
                   victim(tier=0, cores=6, order=(0, 2))]
        plan = policy.plan(8, victims)
        assert [(a.victim.tier, a.victim.cores) for a in plan] == [
            (0, 6), (0, 4)]

    def test_preempt_plan_skips_non_preemptible(self):
        policy = resolve_elastic("preempt")
        assert policy.plan(2, [victim(preemptible=False)]) == []

    def test_escalation_replaces_shrink_with_preempt(self):
        """A near-chip-sized need escalates: the shrink of a victim is
        dropped when that same victim ends up preempted."""
        policy = resolve_elastic("shrink_then_preempt")
        big = victim(cores=12, freeable=6, order=(0, 0))
        small = victim(cores=2, freeable=1, order=(0, 1))
        plan = policy.plan(14, [big, small])
        kinds = {(a.kind, id(a.victim)) for a in plan}
        assert ("preempt", id(big)) in kinds
        assert ("shrink", id(big)) not in kinds
        freed = sum(a.victim.cores if a.kind == "preempt"
                    else a.victim.freeable_by_shrink for a in plan)
        assert freed >= 14

    def test_escalation_prefers_shrink_when_sufficient(self):
        policy = resolve_elastic("shrink_then_preempt")
        plan = policy.plan(2, [victim(cores=4, freeable=2)])
        assert [a.kind for a in plan] == ["shrink"]


class TestPriorityStarvation:
    def test_high_priority_waiter_blocks_overtaking(self):
        """The satellite fix: a large high-priority request must not be
        starved by a stream of small low-priority arrivals."""
        big_gold = PendingSession(session(0, arrival=0, rows=3, cols=3,
                                          priority=2))
        small_low = PendingSession(session(1, arrival=5, priority=0))
        policy = PriorityPolicy()
        pending = PendingQueue([small_low, big_gold])
        # 4 free cores: the 9-core gold cannot go, and priority now
        # holds the line — nobody overtakes.
        assert policy.select(pending, free_cores=4) is None
        # Once the chip drains, the gold waiter goes first.
        assert policy.select(pending, free_cores=9) is big_gold

    def test_blocked_high_priority_is_skipped(self):
        """A placement-failed (blocked) waiter must not deadlock the
        queue — mirrors FCFS's blocked-head behavior."""
        blocked_gold = PendingSession(session(0, priority=2), blocked=True)
        small_low = PendingSession(session(1, arrival=5, priority=0))
        pending = PendingQueue([blocked_gold, small_low])
        assert PriorityPolicy().select(pending, free_cores=8) is small_low

    def test_starvation_case_end_to_end(self):
        """Under the old fits-only policy the 16-core gold tenant admits
        last; with line-holding it admits as soon as the chip drains."""
        scheduler = FleetScheduler([sim_config(16)], policy="priority")
        trace = [session(0, arrival=1, rows=4, cols=4, priority=2,
                         inferences=5)]
        trace += [session(i, arrival=2 + i, rows=1, cols=2, priority=0,
                          inferences=200) for i in range(1, 6)]
        metrics = scheduler.serve(trace)
        gold_record = next(r for r in metrics.records if r.session_id == 0)
        others_admit = [r.admit_cycle for r in metrics.records
                        if r.session_id != 0]
        assert gold_record.admit_cycle <= min(others_admit)


class TestSLOMetrics:
    def record(self, slo, delay, **kwargs):
        return SessionRecord(
            session_id=0, tenant="t", model="alexnet", cores=4,
            arrival_cycle=0, admit_cycle=delay, depart_cycle=delay + 10,
            strategy="similar", mapping_distance=0.0,
            mapping_connected=True, slo=slo, **kwargs)

    def test_per_class_attainment_and_goodput(self):
        records = [
            self.record("gold", 0),
            self.record("gold", GOLD.queue_delay_target_cycles + 1),
            self.record("best_effort", 10**10, preemptions=2),
        ]
        digest = SLOMetrics.from_records(records, seconds=2.0).digest()
        assert digest["gold"]["attainment"] == 0.5
        assert digest["gold"]["sessions_met_slo"] == 1
        assert digest["gold"]["goodput_sessions_per_second"] == 0.5
        assert digest["best_effort"]["attainment"] == 1.0
        assert digest["best_effort"]["preemptions"] == 2

    def test_pre_slo_records_are_excluded(self):
        records = [self.record("", 0)]
        assert SLOMetrics.from_records(records, 1.0).digest() == {}

    def test_summary_threads_slo_block(self):
        scheduler = FleetScheduler([sim_config(16)])
        metrics = scheduler.serve(generate_trace(5, 10, max_cores=16))
        slo = metrics.summary(500_000_000)["slo"]
        assert set(slo) == {"classes", "grows", "preemptions",
                            "resize_cycles", "shrinks"}
        # Pre-SLO traces derive classes from priority, so they report.
        assert sum(c["sessions_completed"]
                   for c in slo["classes"].values()) == 10


def elastic_cluster(policy="priority", elastic="shrink_then_preempt"):
    scheduler = FleetScheduler([sim_config(16)], policy=policy,
                               elastic=elastic)
    return scheduler, scheduler.chips[0].hypervisor


class TestElasticScheduling:
    def test_bad_elastic_name_fails_at_construction(self):
        with pytest.raises(ServingError):
            FleetScheduler([sim_config(16)], elastic="evict-everyone")

    def test_gold_preempts_best_effort_tenant(self):
        """A blocked gold arrival evicts a resident best-effort tenant
        immediately (the preemptive-admission path)."""
        scheduler, hypervisor = elastic_cluster()
        trace = [
            session(0, arrival=1, rows=4, cols=4, priority=0,
                    inferences=500),
            session(1, arrival=100, rows=4, cols=4, slo="gold",
                    inferences=5),
        ]
        metrics = scheduler.serve(trace)
        gold_record = next(r for r in metrics.records if r.session_id == 1)
        victim_record = next(r for r in metrics.records
                             if r.session_id == 0)
        assert metrics.preemptions == 1
        assert gold_record.queue_delay_cycles < 2_000_000
        assert victim_record.preemptions == 1
        # The victim still completes (requeued, re-served afterwards).
        assert victim_record.depart_cycle > gold_record.depart_cycle

    def test_gold_shrinks_best_effort_tenant(self):
        """When partial room exists, shrinking (not eviction) frees it."""
        scheduler, hypervisor = elastic_cluster(elastic="shrink")
        trace = [
            session(0, arrival=1, rows=2, cols=4, priority=0,
                    inferences=400),
            session(1, arrival=100, rows=3, cols=4, slo="gold",
                    inferences=5),
        ]
        metrics = scheduler.serve(trace)
        assert metrics.shrinks >= 1
        assert metrics.preemptions == 0
        victim_record = next(r for r in metrics.records
                             if r.session_id == 0)
        assert victim_record.resizes >= 1

    def test_shrunk_victim_grows_back_when_queue_drains(self):
        scheduler, hypervisor = elastic_cluster(elastic="shrink")
        trace = [
            session(0, arrival=1, rows=2, cols=4, priority=0,
                    inferences=400),
            session(1, arrival=100, rows=3, cols=4, slo="gold",
                    inferences=5),
        ]
        metrics = scheduler.serve(trace)
        # After the gold departs the queue is empty: the victim grows
        # back to its requested mesh before finishing.
        assert metrics.grows >= 1
        victim_record = next(r for r in metrics.records
                             if r.session_id == 0)
        assert victim_record.resizes >= 2  # shrink + grow-back

    def test_victim_slowdown_is_charged(self):
        """A shrunk victim departs later than it would have unsqueezed."""
        def depart(elastic):
            scheduler, _ = elastic_cluster(elastic=elastic)
            trace = [
                session(0, arrival=1, rows=2, cols=4, priority=0,
                        inferences=400),
                session(1, arrival=100, rows=3, cols=4, slo="gold",
                        inferences=5),
            ]
            metrics = scheduler.serve(trace)
            return next(r.depart_cycle for r in metrics.records
                        if r.session_id == 0)
        assert depart("shrink") > depart(None)

    def test_gold_never_victimized(self):
        """Gold residents are neither shrinkable nor preemptible: a
        second gold arrival waits instead of squeezing the first."""
        scheduler, _ = elastic_cluster()
        trace = [
            session(0, arrival=1, rows=4, cols=4, slo="gold",
                    inferences=50),
            session(1, arrival=100, rows=4, cols=4, slo="gold",
                    inferences=5),
        ]
        metrics = scheduler.serve(trace)
        assert metrics.preemptions == 0
        assert metrics.shrinks == 0
        first = next(r for r in metrics.records if r.session_id == 0)
        assert first.preemptions == 0 and first.resizes == 0

    def test_relief_feeds_the_triggering_entry_not_the_queue_head(self):
        """Under FCFS the freed cores must go to the gold arrival whose
        relief squeezed the victims — not to the best-effort queue head
        that happens to be first in line."""
        scheduler, _ = elastic_cluster(policy="fcfs")
        trace = [
            session(0, arrival=1, rows=4, cols=4, priority=0,
                    inferences=500),
            # Queue head: big best-effort that also cannot fit.
            session(1, arrival=50, rows=4, cols=4, priority=0,
                    inferences=500),
            session(2, arrival=100, rows=4, cols=4, slo="gold",
                    inferences=5),
        ]
        metrics = scheduler.serve(trace)
        gold_record = next(r for r in metrics.records if r.session_id == 2)
        head_record = next(r for r in metrics.records if r.session_id == 1)
        assert metrics.preemptions >= 1
        assert gold_record.admit_cycle < head_record.admit_cycle
        assert gold_record.queue_delay_cycles < 2_000_000

    def test_preempted_session_requeues_in_arrival_order(self):
        """An evicted victim re-enters the FCFS line by arrival cycle,
        ahead of later arrivals, instead of being appended at the tail."""
        scheduler, _ = elastic_cluster(policy="fcfs")
        trace = [
            session(0, arrival=1, rows=4, cols=4, priority=0,
                    inferences=300),
            session(1, arrival=100, rows=4, cols=4, slo="gold",
                    inferences=5),
            # Arrives later than the victim: must not overtake it.
            session(2, arrival=200, rows=4, cols=4, priority=0,
                    inferences=10),
        ]
        metrics = scheduler.serve(trace)
        victim = next(r for r in metrics.records if r.session_id == 0)
        later = next(r for r in metrics.records if r.session_id == 2)
        assert victim.preemptions == 1
        assert victim.admit_cycle <= later.admit_cycle

    def test_grow_back_restores_exact_memory_request(self):
        """Indivisible memory sizes survive a shrink/grow round trip."""
        scheduler, hypervisor = elastic_cluster(elastic="shrink")
        odd_memory = 100 * MB  # not divisible by 8 cores
        tenant = TenantSession(
            session_id=0, tenant="t0", arrival_cycle=1, rows=2, cols=4,
            memory_bytes=odd_memory, model="alexnet", inferences=400)
        gold_arrival = session(1, arrival=100, rows=3, cols=4, slo="gold",
                               inferences=5)
        vmids = []
        original_resize = hypervisor.resize_vnpu

        def spy(vmid, spec, strategy=None):
            result = original_resize(vmid, spec, strategy=strategy)
            vmids.append((spec.core_count, result[0].memory_bytes))
            return result
        hypervisor.resize_vnpu = spy
        metrics = scheduler.serve([tenant, gold_arrival])
        assert metrics.shrinks >= 1 and metrics.grows >= 1
        grow_events = [m for cores, m in vmids if cores == 8]
        assert grow_events and all(m == odd_memory for m in grow_events)

    def test_topology_blocked_preemption_does_not_livelock(self):
        """Preemption is not monotonic — an evicted victim can re-admit
        to the exact cores it held. When the triggering entry is
        topology-blocked (here: strategy=\"exact\" with no isomorphic
        2x2 in the remaining L-shape), relief must spend its budget and
        stop instead of evicting the victim forever."""
        scheduler = FleetScheduler([sim_config(16)], policy="priority",
                                   strategy="exact", elastic="preempt")
        trace = [
            session(0, arrival=1, rows=3, cols=3, slo="gold",
                    inferences=500),
            session(1, arrival=2, rows=1, cols=2, priority=0,
                    inferences=500),
            session(2, arrival=100, rows=2, cols=2, slo="gold",
                    inferences=5),
        ]
        metrics = scheduler.serve(trace)  # hung forever before the fix
        assert len(metrics.records) == 3

    def test_static_behavior_has_no_elastic_side_effects(self):
        """elastic=None never squeezes anyone — the pre-elastic schedule
        (pinned separately by the unchanged BENCH artifacts and replay
        determinism tests) stays in force."""
        scheduler = FleetScheduler([sim_config(16)], policy="fcfs",
                                   elastic=None)
        metrics = scheduler.serve(generate_trace(23, 30, max_cores=16))
        assert metrics.preemptions == 0
        assert metrics.shrinks == 0 and metrics.grows == 0
        assert metrics.resize_cycles == 0
        assert all(r.preemptions == 0 and r.resizes == 0
                   for r in metrics.records)

    def test_elastic_run_is_deterministic(self):
        trace = generate_trace(31, 40, max_cores=16,
                               mean_interarrival_cycles=1_000_000,
                               arrival_process="bursty",
                               slo_mix=DEFAULT_SLO_MIX)

        def run():
            scheduler, _ = elastic_cluster()
            metrics = scheduler.serve(trace)
            return (metrics.records, metrics.preemptions, metrics.shrinks,
                    metrics.grows, metrics.resize_cycles)
        assert run() == run()


class TestElasticFleet:
    def test_fleet_elastic_improves_gold_attainment(self):
        trace = generate_fleet_trace(7, 120, chips=4, max_cores=16,
                                     mean_interarrival_cycles=10_000_000,
                                     arrival_process="bursty",
                                     slo_mix=DEFAULT_SLO_MIX)

        def run(elastic):
            fleet = FleetScheduler.homogeneous(4, cores=16,
                                               policy="priority",
                                               elastic=elastic)
            metrics = fleet.serve(trace)
            summary = metrics.summary(500_000_000)
            return summary["slo"]["classes"]["gold"], metrics

        static_gold, _ = run(None)
        elastic_gold, metrics = run("shrink_then_preempt")
        assert metrics.preemptions + metrics.shrinks > 0
        assert elastic_gold["attainment"] > static_gold["attainment"]
        assert (elastic_gold["p99_queue_delay_cycles"]
                < static_gold["p99_queue_delay_cycles"])

    def test_fleet_elastic_leaves_chips_clean(self):
        trace = generate_fleet_trace(11, 60, chips=3, max_cores=16,
                                     mean_interarrival_cycles=5_000_000,
                                     arrival_process="bursty",
                                     slo_mix=DEFAULT_SLO_MIX)
        fleet = FleetScheduler.homogeneous(3, cores=16, policy="priority",
                                           elastic="shrink_then_preempt")
        metrics = fleet.serve(trace)
        assert len(metrics.records) + metrics.rejected == len(trace)
        for fleet_chip in fleet.chips:
            assert fleet_chip.hypervisor.vnpus == []
            assert fleet_chip.hypervisor.buddy.fully_coalesced

    def test_fleet_records_carry_slo_fields(self):
        trace = generate_fleet_trace(3, 20, chips=2, max_cores=16,
                                     slo_mix=DEFAULT_SLO_MIX)
        fleet = FleetScheduler.homogeneous(2, cores=16)
        metrics = fleet.serve(trace)
        assert all(r.slo in {"gold", "silver", "best_effort"}
                   for r in metrics.records)


class TestRepriceClamp:
    """Regression: the un-served fraction fed into a resize re-pricing
    must clamp at 1.0. Migration charges stretch ``expected_depart``
    without touching ``service_total``, so a victim migrated and *then*
    shrunk used to show ``remaining > service_total`` and re-bill the
    already-charged migration at the new placement's rate."""

    class Dummy:
        def __init__(self, service_total, expected_depart):
            self.service_total = service_total
            self.expected_depart = expected_depart

    def test_migration_stretched_remaining_is_clamped(self):
        from repro.serving.slo import reprice
        # Admitted at 0 for 1_000 cycles, then a migration charged 500:
        # at now=200 the raw fraction would be 1_300/1_000 = 1.3.
        active = self.Dummy(service_total=1_000, expected_depart=1_500)
        reprice(active, new_total=2_000, charge=100, now=200)
        assert active.service_total == 2_000
        # Clamped: full remaining service at the new rate plus the
        # resize charge — not 1.3x of it.
        assert active.expected_depart == 200 + 2_000 + 100

    def test_unstretched_fraction_still_prorates(self):
        from repro.serving.slo import reprice
        active = self.Dummy(service_total=1_000, expected_depart=1_000)
        reprice(active, new_total=2_000, charge=0, now=500)
        assert active.expected_depart == 500 + 1_000  # half left, 2x rate

    def test_migrate_then_shrink_projection_stays_bounded(self):
        """End-to-end: a defrag-migrated tenant that is then elastically
        shrunk never projects past now + new_total + charge."""
        from repro.serving.fleet import ActiveFleetSession
        from repro.serving.slo import BEST_EFFORT, reprice
        active = ActiveFleetSession(
            session=session(session_id=1), chip_index=0, vmid=1,
            admit_cycle=0, strategy="similar", mapping_distance=0.0,
            mapping_connected=True, slo=BEST_EFFORT, rows=2, cols=2,
            service_total=1_000, expected_depart=1_000,
        )
        active.expected_depart += 700   # migration charge, service_total kept
        reprice(active, new_total=900, charge=50, now=400)
        assert active.expected_depart <= 400 + 900 + 50
