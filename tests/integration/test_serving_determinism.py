"""Replay determinism: identical metric streams for identical seeds.

The benchmark suite's byte-identical-JSON guarantee rests on the
schedulers being pure functions of their trace — these tests enforce
that at tier-1 instead of leaving it to the CI bench smoke. Each case
replays the same seeded trace twice *in-process* (fresh simulator and
chips each time, but shared registries, mapping caches warm in the
second run) and requires the full ``SessionRecord`` stream and the
whole metrics object — counters and unrounded time-weighted integrals
— to be equal, not just the rounded summaries.
"""

from repro.arch.config import sim_config
from repro.serving import (
    DefragPolicy,
    FleetScheduler,
    generate_fleet_trace,
    generate_trace,
)

FREQUENCY = 500_000_000


def run_one_chip(policy):
    scheduler = FleetScheduler([sim_config(16)], policy=policy)
    metrics = scheduler.serve(generate_trace(23, 30, max_cores=16))
    return metrics


def run_fleet(placement, defrag):
    trace = generate_fleet_trace(11, 60, chips=3, max_cores=16,
                                 mean_interarrival_cycles=20_000_000,
                                 fragmentation_heavy=True)
    fleet = FleetScheduler.homogeneous(3, cores=16, placement=placement,
                                       defrag=defrag)
    return fleet.serve(trace)


def assert_identical(first, second):
    assert first == second
    assert first.summary(FREQUENCY) == second.summary(FREQUENCY)


class TestOneChipDeterminism:
    def test_fcfs_streams_identical(self):
        assert_identical(run_one_chip("fcfs"), run_one_chip("fcfs"))

    def test_best_fit_streams_identical(self):
        assert_identical(run_one_chip("best_fit"), run_one_chip("best_fit"))


class TestFleetSchedulerDeterminism:
    def test_least_loaded_with_defrag_identical(self):
        first = run_fleet("least_loaded", DefragPolicy(0.1))
        second = run_fleet("least_loaded", DefragPolicy(0.1))
        assert_identical(first, second)
        assert first.migrations == second.migrations
        assert first.migration_cycles == second.migration_cycles
        # The fragmentation-heavy trace must actually exercise migration,
        # otherwise this test silently stops covering the defrag path.
        assert first.migrations > 0

    def test_best_fit_placement_identical(self):
        assert_identical(run_fleet("best_fit", None),
                         run_fleet("best_fit", None))

    def test_power_of_two_placement_identical(self):
        first = run_fleet("power_of_two", DefragPolicy(0.3))
        second = run_fleet("power_of_two", DefragPolicy(0.3))
        assert_identical(first, second)
