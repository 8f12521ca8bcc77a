"""The unified cost engine: one interface, registered fidelity tiers.

Every cycle number the serving stack charges a tenant — service time,
migration, reconfiguration — flows through a :class:`CostModel`. The
interface is deliberately small:

- :meth:`CostModel.workload_cost` returns the (warm-up, per-iteration)
  cycle pair for one session's model on its placement;
- :meth:`CostModel.service_cycles` folds that into the session's total
  residency (warm-up + inferences x iteration + routing-table setup),
  the number the schedulers sleep on;
- :meth:`CostModel.migration_cycles` prices a live migration through the
  shared :mod:`repro.cost.charges` formulas.

Tiers are registered by name through the same
:class:`~repro.core.registry.Registry` idiom as mapping strategies and
admission policies, so ``FleetScheduler(configs, cost_model="cached")``
works the same as ``policy="best_fit"``. The built-ins:

========== ============================================= ==============
tier       how it prices a workload                      relative speed
========== ============================================= ==============
analytic   bottleneck steady-state model (pipeline.py)   fastest
executor   full event-driven run of the lowered program  slowest
cached     memoized executor runs per placement class    executor once,
           (analytic-scaled interpolation on miss)       then ~analytic
========== ============================================= ==============

Custom tiers subclass :class:`CostModel`, set ``name``, implement
``workload_cost`` and call :func:`register_cost_model` — see the README
section "Cost model tiers".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.arch.chip import Chip
from repro.core.registry import Registry
from repro.cost.charges import migration_cycles as _migration_charge
from repro.errors import ServingError
from repro.workloads.zoo import SERVING_MODEL_BUILDERS


@dataclass(frozen=True)
class WorkloadCost:
    """One workload's priced shape: warm-up plus steady-state iteration.

    ``tier`` names the cost model that produced the number; ``source``
    records its provenance — ``"analytic"``, ``"executor"`` or
    ``"interpolated"`` — which the cached tier uses to distinguish exact
    executor replays from analytic-scaled estimates.
    """

    warmup_cycles: int
    iteration_cycles: int
    tier: str
    source: str
    placement_class: str = "exact"

    def service_cycles(self, inferences: int, setup_cycles: int = 0) -> int:
        """Total residency of a session running ``inferences`` iterations."""
        return max(1, self.warmup_cycles + inferences * self.iteration_cycles
                   + setup_cycles)


class CostModel(abc.ABC):
    """A fidelity tier: prices workloads, migrations and reconfigs.

    Subclasses implement :meth:`workload_cost`; everything else has a
    shared default. Each instance owns a model-builder table (defaulting
    to the serving zoo) so experiments can register custom models
    without touching the global zoo.
    """

    #: Registry name of the tier (empty for ad-hoc/unregistered models).
    name: str = ""

    def __init__(self, models: dict | None = None) -> None:
        self.models = dict(SERVING_MODEL_BUILDERS if models is None
                           else models)

    # -- model zoo ---------------------------------------------------------
    def register_model(self, name: str, builder) -> None:
        """Make ``builder`` (zero-arg -> ModelGraph) available to traces."""
        if name in self.models:
            raise ServingError(f"model {name!r} already registered")
        self.models[name] = builder

    def build_model(self, name: str):
        """Instantiate a registered model graph by name."""
        try:
            builder = self.models[name]
        except KeyError:
            raise ServingError(
                f"unknown model {name!r}; registered: "
                f"{tuple(sorted(self.models))}"
            ) from None
        return builder()

    # -- pricing -----------------------------------------------------------
    @abc.abstractmethod
    def workload_cost(self, chip: Chip, session, vnpu) -> WorkloadCost:
        """Price ``session``'s model on its actual placement on ``chip``."""

    def service_cycles(self, chip: Chip, session, vnpu) -> int:
        """Total solo residency of ``session`` — what the scheduler waits."""
        cost = self.workload_cost(chip, session, vnpu)
        return cost.service_cycles(session.inferences, vnpu.setup_cycles)

    def migration_cycles(self, source: Chip, destination: Chip,
                         resident_bytes: int, setup_cycles: int) -> int:
        """Price a live migration between two chips."""
        return _migration_charge(source.config, destination.config,
                                 resident_bytes, setup_cycles)

    # -- checkpoint --------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Picklable pricing state (memoized prices, counters).

        Pricing caches are *behavioral* state: a tier that prices a
        (model, shape) key once and serves the memo afterwards must
        carry the memo across a checkpoint, or the restored run would
        re-price the key on a different placement and drift. The model
        builder table stays out (builders may be lambdas; restore
        constructs the tier, which rebuilds the table).
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Splice a ``snapshot_state`` dict into this (same-tier) model."""
        return None


_TIERS: Registry[type[CostModel]] = Registry("cost model tier", ServingError)


def register_cost_model(tier: type[CostModel],
                        replace: bool = False) -> type[CostModel]:
    """Register a :class:`CostModel` subclass under its ``name``."""
    if not (isinstance(tier, type) and issubclass(tier, CostModel)):
        raise ServingError(
            f"cost model tier must be a CostModel subclass; got {tier!r}")
    return _TIERS.register(tier, replace=replace)


def unregister_cost_model(name: str) -> None:
    return _TIERS.unregister(name)


def resolve_cost_model(name: str) -> type[CostModel]:
    """The registered tier class for ``name`` (ServingError when unknown)."""
    return _TIERS.resolve(name)


def available_cost_models() -> tuple[str, ...]:
    return _TIERS.names()


def coerce_cost_model(model: "CostModel | str") -> CostModel:
    """Resolve a tier name to a fresh instance, or validate an instance.

    Unified on :meth:`repro.core.registry.Registry.coerce` (with
    ``factory=True``: this family registers tier *classes*, so a
    resolved name is instantiated). Unknown names raise
    :class:`~repro.errors.ServingError` naming the offending value and
    the registered tiers; non-``CostModel`` objects — including tier
    classes, which would otherwise duck-type — are rejected the same
    way ``coerce_policy`` rejects policy classes.
    """
    return _TIERS.coerce(model, instance_of=CostModel, factory=True)
