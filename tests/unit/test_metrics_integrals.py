"""Folded time-weighted integrals against the stored-sample reference.

:class:`FleetMetrics` folds every sampled instant into running areas
instead of storing it. The reference here is the computation the fold
replaced: keep every sample, then take one pairwise pass over the list.
The fold must agree with it bit for bit — the committed ``BENCH_*.json``
artifacts are byte-compared, so "close" is not good enough — including
the edge cases: no sample, one sample, repeated cycles and a zero span.
"""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import FleetMetrics

FREQUENCY = 500_000_000


@dataclass(frozen=True)
class Sample:
    """One sampled instant, as the reference stores it."""

    cycle: int
    utilization: float
    fragmentation: float
    queue_length: int
    chip_utilization: tuple[float, ...]

    @property
    def utilization_spread(self) -> float:
        return max(self.chip_utilization) - min(self.chip_utilization)


def time_weighted_mean(samples: "list[Sample]", attribute: str) -> float:
    """Mean of a sample field weighted by how long each state held."""
    if len(samples) < 2:
        return getattr(samples[0], attribute) if samples else 0.0
    total = 0.0
    span = samples[-1].cycle - samples[0].cycle
    if span <= 0:
        return getattr(samples[-1], attribute)
    for current, following in zip(samples, samples[1:]):
        total += getattr(current, attribute) * (following.cycle
                                                - current.cycle)
    return total / span


def per_chip_time_weighted_utilization(samples: "list[Sample]") -> list[float]:
    if not samples:
        return []
    chips = len(samples[0].chip_utilization)
    if len(samples) < 2:
        return [round(u, 6) for u in samples[0].chip_utilization]
    span = samples[-1].cycle - samples[0].cycle
    if span <= 0:
        return [round(u, 6) for u in samples[-1].chip_utilization]
    totals = [0.0] * chips
    for current, following in zip(samples, samples[1:]):
        weight = following.cycle - current.cycle
        for index in range(chips):
            totals[index] += current.chip_utilization[index] * weight
    return [round(total / span, 6) for total in totals]


def fold(samples: "list[Sample]") -> FleetMetrics:
    metrics = FleetMetrics()
    for s in samples:
        metrics.sample(s.cycle, utilization=s.utilization,
                       fragmentation=s.fragmentation,
                       queue_length=s.queue_length,
                       chip_utilization=s.chip_utilization)
    return metrics


def assert_fold_matches_reference(samples: "list[Sample]") -> None:
    metrics = fold(samples)
    for attribute in ("utilization", "fragmentation", "utilization_spread"):
        folded = metrics.time_weighted(attribute)
        expected = time_weighted_mean(samples, attribute)
        assert folded.hex() == float(expected).hex(), attribute
    assert metrics.fragmentation_max == max(
        (s.fragmentation for s in samples), default=0.0)
    assert metrics.queue_length_max == max(
        (s.queue_length for s in samples), default=0)
    assert metrics.last_cycle == (samples[-1].cycle if samples else 0)
    fleet = metrics.summary(FREQUENCY)["fleet"]
    assert fleet["chips"] == (len(samples[0].chip_utilization)
                              if samples else 0)
    assert (fleet["per_chip_utilization_time_weighted"]
            == per_chip_time_weighted_utilization(samples))


unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def sample_streams(draw) -> "list[Sample]":
    chips = draw(st.integers(1, 4))
    # Zero gaps are drawn often: repeated cycles and zero spans are the
    # edge cases the fold must get right.
    gaps = draw(st.lists(st.one_of(st.just(0), st.integers(0, 10**9)),
                         max_size=30))
    cycle = draw(st.integers(0, 10**12))
    samples = []
    for gap in gaps:
        cycle += gap
        samples.append(Sample(
            cycle=cycle, utilization=draw(unit),
            fragmentation=draw(unit),
            queue_length=draw(st.integers(0, 1000)),
            chip_utilization=tuple(draw(unit) for _ in range(chips))))
    return samples


def sample(cycle: int, value: float = 0.25, queue_length: int = 1) -> Sample:
    return Sample(cycle, value, value / 2, queue_length, (value, 1 - value))


class TestFoldEqualsReference:
    @pytest.mark.parametrize("samples", [
        [],
        [sample(7)],
        [sample(7, 0.5), sample(7, 0.75), sample(7, 0.125)],
        [sample(0, 0.5), sample(10, 0.75), sample(10, 0.1), sample(30, 0.3)],
        [sample(5, 0.1, 4), sample(9, 0.9, 2), sample(9, 0.3, 7)],
    ], ids=["empty", "one", "zero-span", "repeated-cycle", "maxima"])
    def test_edge_cases(self, samples):
        assert_fold_matches_reference(samples)

    def test_no_sample_digest(self):
        digest = FleetMetrics().summary(FREQUENCY)
        assert digest["makespan_cycles"] == 0
        assert digest["utilization_time_weighted"] == 0.0
        assert digest["fragmentation"] == {"time_weighted_mean": 0.0,
                                           "max": 0.0}
        assert digest["fleet"]["chips"] == 0
        assert digest["fleet"]["per_chip_utilization_time_weighted"] == []

    @settings(max_examples=200, deadline=None)
    @given(samples=sample_streams())
    def test_random_streams(self, samples):
        assert_fold_matches_reference(samples)


class TestBoundedMemory:
    def test_pickled_size_does_not_grow_with_samples(self):
        # Cycles stay in one pickle integer width (4-byte) across both
        # runs, so any growth would be stored history.
        def pickled_size(count: int) -> int:
            metrics = fold([sample((1 << 20) + index * 1000,
                                   (index % 7) / 8, index % 5)
                            for index in range(count)])
            return len(pickle.dumps(metrics))

        assert pickled_size(10) == pickled_size(10_000)
