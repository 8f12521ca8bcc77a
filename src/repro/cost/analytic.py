"""The ``analytic`` tier: memoized steady-state bottleneck pricing.

The default tier every scheduler prices with: compile the session's
model onto its actual vNPU placement, run the :mod:`repro.runtime.pipeline` bottleneck model
for the iteration interval, and the §6.3.4 weight-load formula for
warm-up. Estimates are the *solo* steady state — cross-tenant slowdown
is deliberately not fed back (it would make every departure time depend
on the whole residency history); interference-prone placements stay
visible through the recorded mapping distance instead.

Costs are memoized per (chip config, model, mesh shape): under churn
the same request shapes recur, so a 500-session trace costs a handful
of compiles.
"""

from __future__ import annotations

from repro.arch.chip import Chip
from repro.cost.model import CostModel, WorkloadCost, register_cost_model
from repro.runtime.session import compile_model, estimate_together


class AnalyticCostModel(CostModel):
    """Fast closed-form pricing from the steady-state pipeline model."""

    name = "analytic"

    def __init__(self, models: dict | None = None) -> None:
        super().__init__(models)
        #: (config name, model, rows, cols) -> (warmup, iteration) cycles.
        self._cache: dict[tuple[str, str, int, int], tuple[int, int]] = {}

    def workload_cost(self, chip: Chip, session, vnpu) -> WorkloadCost:
        key = (chip.config.name, session.model, session.rows, session.cols)
        cached = self._cache.get(key)
        if cached is None:
            model = self.build_model(session.model)
            placed = compile_model(model, vnpu, chip)
            report = estimate_together(chip, [placed])[placed.name]
            cached = (report.warmup_cycles, report.iteration_cycles)
            self._cache[key] = cached
        warmup, iteration = cached
        return WorkloadCost(
            warmup_cycles=warmup,
            iteration_cycles=iteration,
            tier=self.name,
            source="analytic",
        )

    def snapshot_state(self) -> dict:
        return {"cache": dict(self._cache)}

    def restore_state(self, state: dict) -> None:
        self._cache.update(state["cache"])


register_cost_model(AnalyticCostModel)
