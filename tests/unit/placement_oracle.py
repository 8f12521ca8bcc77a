"""Reference best-fit chip ranking: the eager full sort.

:func:`reference_best_fit_rank` probes every healthy chip with enough
free cores through ``map_similar`` and sorts the survivors by
``(distance, leftover, index)``. It is the oracle for
:class:`~repro.serving.fleet.BestFitPlacement`, whose exact-first
generator must yield the same chips in the same order while probing
fewer of them. Tests import it as ``placement_oracle`` (pytest puts
``tests/unit`` on ``sys.path``).
"""

from __future__ import annotations

from repro.arch.topology import Topology
from repro.errors import AllocationError
from repro.serving.fleet import PlacementPolicy


def reference_best_fit_rank(chips, session) -> list:
    """Every fitting chip, probed, sorted by (distance, leftover, index)."""
    request = Topology.mesh2d(session.rows, session.cols,
                              name="placement-probe")
    scored = []
    for fleet_chip in chips:
        if not fleet_chip.healthy:
            continue
        free = fleet_chip.hypervisor.free_core_count()
        if session.core_count > free:
            continue
        mapper = fleet_chip.hypervisor.mapper
        try:
            trial = mapper.map_similar(
                request, fleet_chip.hypervisor.allocated_cores)
        except AllocationError:
            continue
        leftover = free - session.core_count
        scored.append((trial.distance, leftover, fleet_chip.index,
                       fleet_chip))
    return [entry[-1] for entry in sorted(scored, key=lambda e: e[:3])]


class ReferenceBestFit(PlacementPolicy):
    """The eager ranking as a placement policy, for whole-fleet checks."""

    name = "reference-best-fit"

    def rank(self, chips, session):
        return reference_best_fit_rank(chips, session)
