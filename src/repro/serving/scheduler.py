"""The cluster scheduler: multi-tenant serving on one chip.

:class:`ClusterScheduler` is a :class:`~repro.serving.fleet.FleetScheduler`
over exactly one chip: a trace of
:class:`~repro.serving.workload.TenantSession` requests arrives over
simulated time; each session is admitted (or queued) by the configured
admission policy, provisioned as a vNPU through the hypervisor, served
for its estimated model runtime, then destroyed — freeing cores and
memory for the queue. The loop is the churn the paper's evaluation is
about: placements happen under fragmentation left by earlier tenants,
which is why the hypervisor's ``map_similar`` cache and the registered
mapping strategies sit directly on this path.

The whole lifecycle — arrivals, admission, elastic relief, resize,
preemption, grow-back, sampling — is the fleet's; this class only
adopts the caller's :class:`~repro.arch.chip.Chip` and
:class:`~repro.core.hypervisor.Hypervisor` (which may already host
tenants the scheduler did not admit) as fleet chip 0.

Service time is priced by a pluggable :class:`~repro.cost.CostModel`
tier — ``analytic`` (the default closed-form solo steady state),
``executor`` (full event-driven runs of the compiled workload) or
``cached`` (memoized executor runs per placement class). Cross-tenant
slowdown is deliberately not fed back into durations — it would make
every departure time depend on the whole residency history — but the
placement quality (mapping distance, fragmentation) is recorded per
session, so interference-prone placements remain visible in the
metrics.
"""

from __future__ import annotations

from repro.arch.chip import Chip
from repro.arch.config import SoCConfig
from repro.core.hypervisor import Hypervisor
from repro.cost import AnalyticCostModel, CostModel
from repro.serving.fleet import FleetChip, FleetScheduler
from repro.serving.fleet import PendingSession  # noqa: F401  (re-export)
from repro.serving.policies import AdmissionPolicy, coerce_policy  # noqa: F401  (re-export)
from repro.serving.slo import ElasticPolicy
from repro.serving.workload import MODEL_BUILDERS, TenantSession  # noqa: F401  (re-export)

#: Backward-compatible alias: the serving layer's original memoized
#: estimator is now the cost engine's ``analytic`` tier.
ServiceTimeEstimator = AnalyticCostModel


class ClusterScheduler(FleetScheduler):
    """Serves a tenant trace on one chip through the hypervisor.

    A one-chip :class:`FleetScheduler`: ``config=`` takes a whole
    :class:`~repro.serving.config.ServingConfig`, explicitly passed
    kwargs win over it, and ``metrics`` is the fleet's
    :class:`~repro.serving.metrics.FleetMetrics`.
    """

    def __init__(self, chip: Chip,
                 hypervisor: Hypervisor | None = None,
                 policy: AdmissionPolicy | str = "fcfs",
                 strategy: str | None = None,
                 cost_model: "CostModel | str" = "analytic",
                 elastic: "ElasticPolicy | str | None" = None,
                 config=None) -> None:
        self.chip = chip
        self.hypervisor = hypervisor or Hypervisor(chip)
        super().__init__([chip.config], policy=policy, strategy=strategy,
                         sim=chip.sim, cost_model=cost_model,
                         elastic=elastic, config=config)

    def _build_chip(self, index: int, config: SoCConfig) -> FleetChip:
        # Adopt the caller's chip and hypervisor instead of building one.
        return FleetChip(index, self.chip, self.hypervisor)
