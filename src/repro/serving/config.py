"""Declarative, wire-serializable serving configuration.

:class:`ServingConfig` consolidates the scheduler constructors' kwarg
soup — admission policy, cross-chip placement, mapping strategy, defrag,
cost-model tier, elastic enforcement, fault schedule and evacuation
policy — into one frozen dataclass that validates fail-fast on
construction (every field runs through the family's coerce helper
before anything is built) and round-trips through plain JSON-able dicts
(:meth:`ServingConfig.to_dict` / :meth:`ServingConfig.from_dict`).

This is the object the control plane's wire protocol serializes: a
config built from registered names crosses a socket or a checkpoint
file as ``cfg.to_dict()`` and reconstructs equal on the other side.
Policy *instances* are accepted too (they serialize by their registered
``name``; ad-hoc unregistered instances are refused at ``to_dict`` —
an object with local state cannot cross a wire by name).

Every scheduler takes its knobs as kwargs, and a config supplies them
through :meth:`ServingConfig.fleet_kwargs`::

    cfg = ServingConfig(policy="priority", elastic="shrink_then_preempt")
    fleet = FleetScheduler.homogeneous(4, cores=16, **cfg.fleet_kwargs())

:class:`~repro.serving.shard.ShardedFleetScheduler` builds a config
from its slice options at construction, so a bad knob fails before any
worker process starts, and :meth:`FleetScheduler.restore` takes the
same kwargs so a warm restart names its policies the way the original
construction did.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.strategies import resolve_strategy
from repro.cost import CostModel, coerce_cost_model
from repro.errors import ServingError
from repro.serving.faults import (
    FailureEvent,
    FailureSchedule,
    coerce_evacuation,
)
from repro.serving.fleet import (
    DefragPolicy,
    PlacementPolicy,
    check_optional,
    coerce_placement,
)
from repro.serving.policies import AdmissionPolicy, coerce_policy
from repro.serving.slo import ElasticPolicy, coerce_elastic

#: The wire schema: every key ``to_dict`` emits and ``from_dict``
#: accepts, in field order.
CONFIG_KEYS = ("policy", "placement", "strategy", "defrag", "cost_model",
               "elastic", "faults", "evacuation")


def _wire_name(kind: str, value) -> str:
    """The registry name a policy-ish value serializes under."""
    if isinstance(value, str):
        return str(value)
    name = getattr(value, "name", "")
    if not name or not isinstance(name, str):
        raise ServingError(
            f"cannot serialize {kind} {value!r} to a wire config; only "
            f"registered names (or instances carrying one) cross the wire")
    return name


@dataclass(frozen=True)
class ServingConfig:
    """One declarative bundle of every scheduler configuration knob.

    Fields mirror :class:`~repro.serving.fleet.FleetScheduler` kwargs
    exactly, defaults included. Construction is
    fail-fast: every field is validated through its family's coerce
    helper, so a typo'd policy name raises here — before a fleet, a
    socket or a checkpoint ever sees it — naming the offending value
    and the registered choices.
    """

    policy: "AdmissionPolicy | str" = "fcfs"
    placement: "PlacementPolicy | str" = "least_loaded"
    strategy: "str | None" = None
    defrag: "DefragPolicy | None" = None
    cost_model: "CostModel | str" = "analytic"
    elastic: "ElasticPolicy | str | None" = None
    faults: "FailureSchedule | None" = None
    evacuation: str = "shrink_to_fit"

    def __post_init__(self) -> None:
        coerce_policy(self.policy)
        coerce_placement(self.placement)
        if self.strategy is not None:
            resolve_strategy(self.strategy)
        check_optional("defrag", self.defrag, DefragPolicy)
        coerce_cost_model(self.cost_model)
        coerce_elastic(self.elastic)
        check_optional("faults", self.faults, FailureSchedule)
        coerce_evacuation(self.evacuation)

    # -- scheduler plumbing -------------------------------------------------
    def fleet_kwargs(self) -> dict:
        """The :class:`FleetScheduler` constructor kwargs this names."""
        return {key: getattr(self, key) for key in CONFIG_KEYS}

    # -- wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-able dict naming every knob by its registry name.

        Pluggable components serialize as names (instances by their
        registered ``name``; a runtime cost-model instance serializes
        as its *tier*, not its caches), :class:`DefragPolicy` and
        :class:`FailureSchedule` as nested field dicts. The result
        feeds :meth:`from_dict` and equals the original config when it
        was built from names — the wire round-trip contract.
        """
        return {
            "policy": _wire_name("admission policy", self.policy),
            "placement": _wire_name("placement policy", self.placement),
            "strategy": self.strategy,
            "defrag": None if self.defrag is None else {
                "fragmentation_threshold":
                    self.defrag.fragmentation_threshold,
                "max_migrations_per_trigger":
                    self.defrag.max_migrations_per_trigger,
            },
            "cost_model": _wire_name("cost model tier", self.cost_model),
            "elastic": (None if self.elastic is None
                        else _wire_name("elastic policy", self.elastic)),
            "faults": None if self.faults is None else [
                {
                    "cycle": event.cycle,
                    "chip_index": event.chip_index,
                    "kind": event.kind,
                    "duration_cycles": event.duration_cycles,
                    "link_index": event.link_index,
                }
                for event in self.faults.events
            ],
            "evacuation": str(self.evacuation),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        """Rebuild a config from :meth:`to_dict` output (fail-fast).

        Unknown keys are rejected naming them — a misspelled knob must
        not silently fall back to a default on the far side of a wire.
        Missing keys keep their defaults, so partial configs are valid.
        """
        if not isinstance(data, dict):
            raise ServingError(
                f"serving config must be a dict; got {data!r}")
        _reject_unknown_keys(data)
        kwargs = {key: data[key] for key in CONFIG_KEYS if key in data}
        if kwargs.get("defrag") is not None:
            try:
                kwargs["defrag"] = DefragPolicy(**kwargs["defrag"])
            except TypeError as error:
                raise ServingError(
                    f"bad defrag spec {data['defrag']!r}: {error}") from None
        if kwargs.get("faults") is not None:
            try:
                kwargs["faults"] = FailureSchedule(tuple(
                    FailureEvent(**event) for event in kwargs["faults"]))
            except TypeError as error:
                raise ServingError(
                    f"bad faults spec {data['faults']!r}: {error}") from None
        return cls(**kwargs)

    @classmethod
    def from_kwargs(cls, **kwargs) -> "ServingConfig":
        """Build a config from scheduler kwargs (fail-fast).

        Like :meth:`from_dict`, an unknown key raises
        :class:`~repro.errors.ServingError` naming it, not a bare
        ``TypeError``; values are taken as they are (instances too).
        """
        _reject_unknown_keys(kwargs)
        return cls(**kwargs)


def _reject_unknown_keys(data: dict) -> None:
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ServingError(
            f"unknown serving config keys {unknown}; "
            f"choose from {CONFIG_KEYS}")


#: Field-name tuple kept in lockstep with the dataclass (a drift here
#: would silently drop a knob from the wire format).
assert CONFIG_KEYS == tuple(f.name for f in fields(ServingConfig))
