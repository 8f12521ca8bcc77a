"""The declarative config API: ServingConfig and coerce unity.

Two contracts:

- ``ServingConfig.from_dict(cfg.to_dict())`` round-trips to an equal
  config for every registered policy/placement/elastic/cost-tier/
  evacuation/strategy name (the wire contract), schedulers built from
  ``**config.fleet_kwargs()`` produce byte-identical results to the
  same knobs passed as kwargs, and every config field is a
  ``FleetScheduler`` keyword with the same default (the lockstep).
- Every coerce helper speaks the one registry convention: unknown
  values raise :class:`ServingError` naming the offending value and
  the registered choices.
"""

import inspect
import json

import pytest

from repro.arch.config import sim_config
from repro.core.strategies import available_strategies
from repro.cost import available_cost_models, coerce_cost_model
from repro.errors import ServingError
from repro.serving import (
    CONFIG_KEYS,
    DEFAULT_SLO_MIX,
    EVACUATION_POLICIES,
    DefragPolicy,
    FailureEvent,
    FailureSchedule,
    FleetScheduler,
    ServingConfig,
    available_elastics,
    available_placements,
    available_policies,
    coerce_elastic,
    coerce_evacuation,
    coerce_placement,
    coerce_policy,
    generate_fleet_trace,
    resolve_policy,
)


def wire_roundtrip(config: ServingConfig) -> ServingConfig:
    """to_dict -> JSON bytes -> from_dict, as a socket would carry it."""
    return ServingConfig.from_dict(json.loads(json.dumps(config.to_dict())))


def summary_of(fleet) -> str:
    return json.dumps(
        fleet.metrics.summary(fleet.chips[0].chip.config.frequency_hz),
        sort_keys=True)


class TestServingConfigRoundTrip:
    def test_default_roundtrips(self):
        assert wire_roundtrip(ServingConfig()) == ServingConfig()

    def test_every_registered_name_roundtrips(self):
        # The acceptance sweep: every policy x placement pairing, and
        # every elastic/cost/evacuation/strategy name, survives the
        # wire byte-for-byte.
        for policy in available_policies():
            for placement in available_placements():
                config = ServingConfig(policy=policy, placement=placement)
                assert wire_roundtrip(config) == config
        for elastic in available_elastics():
            config = ServingConfig(elastic=elastic)
            assert wire_roundtrip(config) == config
        for cost_model in available_cost_models():
            config = ServingConfig(cost_model=cost_model)
            assert wire_roundtrip(config) == config
        for evacuation in EVACUATION_POLICIES:
            config = ServingConfig(evacuation=evacuation)
            assert wire_roundtrip(config) == config
        for strategy in available_strategies():
            config = ServingConfig(strategy=strategy)
            assert wire_roundtrip(config) == config

    def test_defrag_and_faults_roundtrip(self):
        config = ServingConfig(
            defrag=DefragPolicy(fragmentation_threshold=0.4,
                                max_migrations_per_trigger=3),
            faults=FailureSchedule((
                FailureEvent(cycle=1_000, chip_index=1, kind="chip",
                             duration_cycles=5_000),
                FailureEvent(cycle=9_000, chip_index=0, kind="link",
                             duration_cycles=2_000, link_index=7),
            )))
        assert wire_roundtrip(config) == config

    def test_instance_serializes_by_registered_name(self):
        config = ServingConfig(policy=resolve_policy("priority"))
        assert config.to_dict()["policy"] == "priority"
        # The decoded config holds the *name*; it still compares equal
        # through the wire dict (names are the canonical form).
        assert wire_roundtrip(config).to_dict() == config.to_dict()

    def test_unregistered_instance_refused_at_to_dict(self):
        model = coerce_cost_model("analytic")
        model.name = ""  # ad-hoc: no registry name to serialize under
        config = ServingConfig(cost_model=model)
        with pytest.raises(ServingError, match="cannot serialize"):
            config.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ServingError, match="unknown serving config"):
            ServingConfig.from_dict({"polciy": "fcfs"})

    def test_from_dict_rejects_bad_nested_specs(self):
        with pytest.raises(ServingError, match="bad defrag spec"):
            ServingConfig.from_dict({"defrag": {"threshold": 0.3}})
        with pytest.raises(ServingError, match="bad faults spec"):
            ServingConfig.from_dict({"faults": [{"when": 5}]})

    def test_partial_dict_keeps_defaults(self):
        config = ServingConfig.from_dict({"policy": "best_fit"})
        assert config.policy == "best_fit"
        assert config.placement == "least_loaded"


class TestServingConfigFailFast:
    @pytest.mark.parametrize("kwargs", [
        {"policy": "nope"},
        {"placement": "nope"},
        {"cost_model": "nope"},
        {"elastic": "nope"},
        {"evacuation": "nope"},
    ])
    def test_unknown_names_raise_at_construction(self, kwargs):
        with pytest.raises(ServingError, match="nope"):
            ServingConfig(**kwargs)

    def test_unknown_strategy_raises_at_construction(self):
        # Strategies live in the hypervisor's registry; the config still
        # fails fast, with that family's own error type.
        from repro.errors import HypervisorError
        with pytest.raises(HypervisorError, match="nope"):
            ServingConfig(strategy="nope")

    def test_non_policy_objects_rejected(self):
        with pytest.raises(ServingError, match="must be a registered name"):
            ServingConfig(policy=42)
        with pytest.raises(ServingError, match="DefragPolicy"):
            ServingConfig(defrag=0.25)
        with pytest.raises(ServingError, match="FailureSchedule"):
            ServingConfig(faults=[("chip", 5)])


class TestSchedulerAcceptsConfig:
    def test_fleet_config_equals_kwargs(self):
        trace = generate_fleet_trace(3, 30, chips=2, max_cores=16,
                                     slo_mix=DEFAULT_SLO_MIX)
        config = ServingConfig(policy="priority", placement="best_fit",
                               elastic="shrink_then_preempt")
        via_config = FleetScheduler.homogeneous(2, cores=16,
                                                **config.fleet_kwargs())
        via_config.submit(list(trace))
        via_config.run()
        via_kwargs = FleetScheduler.homogeneous(
            2, cores=16, policy="priority", placement="best_fit",
            elastic="shrink_then_preempt")
        via_kwargs.submit(list(trace))
        via_kwargs.run()
        assert summary_of(via_config) == summary_of(via_kwargs)

    def test_config_fields_lock_to_fleet_keywords(self):
        # Every wire key is a FleetScheduler keyword with the config's
        # default, so a default config builds the default fleet.
        params = inspect.signature(FleetScheduler.__init__).parameters
        defaults = ServingConfig()
        for key in CONFIG_KEYS:
            assert params[key].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            assert params[key].default == getattr(defaults, key), key

    def test_fleet_has_no_config_parameter(self):
        with pytest.raises(TypeError, match="config"):
            FleetScheduler.homogeneous(2, cores=16, config=ServingConfig())

    def test_one_chip_fleet_applies_full_config(self):
        # Every knob applies to a one-chip fleet, including the ones a
        # single chip makes trivial.
        config = ServingConfig(
            policy="priority", placement="best_fit", strategy="exact",
            defrag=DefragPolicy(fragmentation_threshold=0.4),
            cost_model="cached", elastic="preempt",
            faults=FailureSchedule((
                FailureEvent(cycle=1_000, chip_index=0, kind="hbm",
                             duration_cycles=5_000),)),
            evacuation="kill_requeue")
        scheduler = FleetScheduler([sim_config(16)], **config.fleet_kwargs())
        assert scheduler.chip_count == 1
        assert scheduler.policy.name == "priority"
        assert scheduler.placement.name == "best_fit"
        assert scheduler.strategy == "exact"
        assert scheduler.defrag == config.defrag
        assert scheduler.cost_model.name == "cached"
        assert scheduler.elastic.name == "preempt"
        assert scheduler.faults is config.faults
        assert scheduler.metrics.faults_enabled
        assert scheduler.evacuation == "kill_requeue"


class TestCoerceConvention:
    @pytest.mark.parametrize("coerce,family", [
        (coerce_policy, "admission policy"),
        (coerce_placement, "placement policy"),
        (coerce_elastic, "elastic policy"),
        (coerce_cost_model, "cost model tier"),
        (coerce_evacuation, "evacuation policy"),
    ])
    def test_unknown_name_error_names_value_and_choices(self, coerce,
                                                        family):
        with pytest.raises(ServingError, match="choose from") as excinfo:
            coerce("definitely-not-registered")
        assert "definitely-not-registered" in str(excinfo.value)

    @pytest.mark.parametrize("coerce", [
        coerce_policy, coerce_placement, coerce_elastic,
        coerce_cost_model, coerce_evacuation,
    ])
    def test_wrong_type_error_names_value_and_choices(self, coerce):
        with pytest.raises(ServingError, match="choose from") as excinfo:
            coerce(3.14)
        assert "3.14" in str(excinfo.value)

    def test_none_allowed_only_where_optional(self):
        assert coerce_elastic(None) is None
        with pytest.raises(ServingError):
            coerce_policy(None)
