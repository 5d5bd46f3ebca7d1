"""Scenario configuration loading, defaults, and validation."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from chainmesh.config import (ConfigError, DoubleSpendPlan, ScenarioConfig,
                              config_from_mapping, load_config, replace)
from chainmesh.cli import EXIT_VALIDATION, main
from chainmesh.balances import LedgerOverflowError
from chainmesh.doublespend import InjectionError, plan_injections
from chainmesh.engine import Simulation
from chainmesh.roles import schedule_issuance
from corpus import fuzz_configs


class TestDefaults:
    def test_headline_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.confirm_threshold == 0.67
        assert cfg.link_latency_ms == 100.0
        assert cfg.bandwidth_mbps == 20.0
        assert cfg.task_timeout_ms == 500.0

    def test_desk_scale_topology_defaults(self):
        cfg = ScenarioConfig()
        assert (cfg.chains, cfg.fleet_size, cfg.accounts) == (10, 20, 100)

    def test_empty_mapping_gives_defaults(self):
        assert config_from_mapping({}) == ScenarioConfig()


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        cfg = replace(ScenarioConfig(), chains=4, seed=9,
                      double_spend={"pairs": 3, "regular": 12})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert load_config(path) == cfg

    def test_loads_partial_file_with_defaults(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"chains": 3, "seed": 5}))
        cfg = load_config(path)
        assert cfg.chains == 3 and cfg.seed == 5
        assert cfg.fleet_size == ScenarioConfig().fleet_size

    def test_unknown_field_error_names_the_field(self, tmp_path):
        # the engine has no vote timeout, so vote_timeout_ms is no field
        for name in ("typo_field", "vote_timeout_ms"):
            path = tmp_path / "s.json"
            path.write_text(json.dumps({"chains": 3, name: 500}))
            with pytest.raises(ConfigError, match=name):
                load_config(path)
            with pytest.raises(ConfigError, match=name):
                config_from_mapping({name: 500})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ConfigError, match="double_spend.bogus"):
            config_from_mapping({"double_spend": {"bogus": 1}})

    def test_threshold_above_one_rejected(self):
        with pytest.raises(ConfigError, match="confirm_threshold"):
            config_from_mapping({"confirm_threshold": 1.5})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # not UTF-8: once a bare UnicodeDecodeError
        for data in (b"{nope", b'\xff\xfe{"chains": 3}'):
            path.write_bytes(data)
            with pytest.raises(ConfigError, match="JSON"):
                load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_mapping_round_trip(self):
        cfg = replace(ScenarioConfig(), spam_fraction=0.4, tip_sample=4)
        assert config_from_mapping(dataclasses.asdict(cfg)) == cfg


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("chains", 0),
        ("fleet_size", 0),
        ("tip_sample", 0),
        ("straggler_fraction", 1.5),
        ("straggler_fraction", -0.1),
        ("spam_fraction", 2.0),
        ("issuance_rate", 0.0),
        ("duration_min", -1.0),
        ("link_latency_ms", 0.0),
        ("bandwidth_mbps", -5.0),
        ("seed", -1),
        ("genesis_balance", 2**63),     # once crashed the run's np.full
        ("amount_max", 2**63 - 1),      # once crashed its draw bounds
        # once a bare OverflowError or ValueError from set-up's np.full
        ("chains", 10**19),
        ("accounts", 10**19),
        # once a set-up and a first epoch that never finished
        ("fleet_size", sys.maxsize + 1),
        ("tip_sample", sys.maxsize + 1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            config_from_mapping({field: value})
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})

    def test_the_largest_int64_balance_and_amount_validate(self):
        cfg = config_from_mapping({"genesis_balance": 2**63 - 1,
                                   "amount_max": 2**63 - 2})
        assert (cfg.genesis_balance, cfg.amount_max) == (2**63 - 1,
                                                         2**63 - 2)

    def test_the_largest_indexable_counts_validate(self):
        # validation only: a run of this size cannot be held
        for name in ("chains", "fleet_size", "accounts", "tip_sample"):
            assert getattr(config_from_mapping({name: sys.maxsize}),
                           name) == sys.maxsize

    def test_negative_double_spend_rejected(self):
        with pytest.raises(ConfigError, match="double_spend"):
            config_from_mapping({"double_spend": {"pairs": -1}})

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            replace(ScenarioConfig(), confirm_threshold=0.0)

    @pytest.mark.parametrize("field,value", [
        ("coding", "false"),            # a non-empty string is truthy
        ("coding", 0),
        ("chains", 2.5),
        ("accounts", 1000.0),
        ("chains", "10"),
        ("chains", True),               # a bool is no count
        ("seed", None),
        ("duration_min", "2"),
        ("spam_fraction", False),
    ])
    def test_mistyped_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            config_from_mapping({field: value})
        with pytest.raises(ConfigError, match=field):
            replace(ScenarioConfig(), **{field: value})
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("coding", "false"),            # once ran coded
        ("chains", 2.5),                # once a bare TypeError in set-up
    ])
    def test_a_config_built_directly_never_reaches_the_simulation(
            self, field, value):
        with pytest.raises(ConfigError, match=field):
            Simulation(ScenarioConfig(duration_min=0.25, **{field: value}))

    def test_single_chain_is_rejected(self):
        with pytest.raises(ConfigError, match="chains must be at least 2"):
            ScenarioConfig(chains=1)

    def test_spam_without_overspending_rows_is_rejected(self):
        with pytest.raises(ConfigError, match="invalid_tx_fraction"):
            ScenarioConfig(spam_fraction=0.2, invalid_tx_fraction=0.0)

    # each of these once passed validation and then failed the run
    @pytest.mark.parametrize("field,changes", [
        ("chains", {"chains": 1}),
        # one account gives a spam block one row, and half a row floors to 0
        ("invalid_tx_fraction", {"accounts": 1, "active_rows": 10,
                                 "invalid_tx_fraction": 0.5}),
        ("genesis_balance", {"genesis_balance": 0}),
        # a chain's own stake of 1/2 confirms its own spam blocks
        ("confirm_threshold", {"chains": 2, "confirm_threshold": 0.5}),
        ("confirm_threshold", {"chains": 4, "confirm_threshold": 0.25}),
        # an infinite slot count raised a bare OverflowError at set-up
        ("issuance_rate", {"issuance_rate": 1e200, "duration_min": 1e200}),
        # so did a finite one whose injection window has no length
        ("issuance_rate", {"issuance_rate": 1e10, "duration_min": 1e10}),
    ], ids=["one-chain", "one-account", "unfunded", "threshold-half",
            "threshold-quarter", "infinite-slots", "slots-past-maxsize"])
    def test_a_config_the_run_would_reject_fails_validation(
            self, tmp_path, field, changes):
        data = {"spam_fraction": 0.3, "duration_min": 0.5, **changes}
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**data)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("changes", [
        {"chains": 2},
        {"chains": 2, "confirm_threshold": 0.5000001},
        {"chains": 3, "confirm_threshold": 0.34},
        {"accounts": 2, "active_rows": 10, "invalid_tx_fraction": 0.5},
        {"genesis_balance": 1},
    ], ids=["two-chains", "threshold-past-half", "threshold-past-third",
            "two-accounts", "funded"])
    def test_the_least_config_past_each_spam_rule_runs(self, changes):
        cfg = ScenarioConfig(spam_fraction=0.3, duration_min=0.5, **changes)
        result = Simulation(cfg).run()
        assert result.report.attached_blocks > 0
        assert result.report.conservation_ok

    def test_spam_rules_wait_for_spam(self):
        for changes in ({"genesis_balance": 0}, {"invalid_tx_fraction": 0.0},
                        {"chains": 2, "confirm_threshold": 0.5}):
            ScenarioConfig(**changes)           # no spam, no spam rule

    @pytest.mark.parametrize("value", [2.7, "x", True, None])
    def test_mistyped_double_spend_count_rejected(self, value):
        with pytest.raises(ConfigError, match="double_spend.pairs"):
            config_from_mapping({"double_spend": {"pairs": value}})
        with pytest.raises(ConfigError, match="double_spend.pairs"):
            replace(ScenarioConfig(), double_spend={"pairs": value})

    def test_double_spend_must_be_a_plan(self):
        with pytest.raises(ConfigError, match="double_spend"):
            replace(ScenarioConfig(), double_spend=5)

    def test_replace_rejects_an_unknown_field_by_name(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            replace(ScenarioConfig(), bogus=1)
        with pytest.raises(ConfigError, match="'double_spend.bogus'"):
            replace(ScenarioConfig(), double_spend={"pairs": 1, "bogus": 2})
        plan = DoubleSpendPlan(pairs=1, regular=2)
        assert replace(ScenarioConfig(), double_spend=plan).double_spend \
            == replace(ScenarioConfig(), double_spend={"pairs": 1,
                                                        "regular": 2}
                       ).double_spend == plan

    def test_double_spend_beyond_the_injection_window_fails_validation(
            self, tmp_path):
        # the default 2-min run has 120 honest slots, 48 in the window
        for pairs, code in ((25, EXIT_VALIDATION), (24, 0)):
            data = {"double_spend": {"pairs": pairs}}
            path = tmp_path / f"p{pairs}.json"
            path.write_text(json.dumps(data))
            assert main(["validate", str(path)]) == code
        with pytest.raises(ConfigError, match="double_spend"):
            config_from_mapping({"double_spend": {"pairs": 25}})

    @pytest.mark.parametrize("rate,spam,duration", [
        (60.0, 0.0, 2.0), (37.0, 0.35, 0.7), (240.0, 0.55, 0.25),
        (7.0, 0.5, 1.0), (1.0, 0.0, 0.1)])
    def test_validation_admits_exactly_the_carriers_the_window_holds(
            self, rate, spam, duration):
        base = ScenarioConfig(issuance_rate=rate, spam_fraction=spam,
                              duration_min=duration)

        def valid(regular):
            try:
                replace(base, double_spend={"regular": regular})
            except ConfigError as exc:
                assert "double_spend" in str(exc)
                return False
            return True

        room = next(n for n in range(1000) if not valid(n + 1))
        slots = schedule_issuance(rate, spam, base.honest_chains(),
                                  base.adversarial_chains(), duration)
        honest = {c: slots[c] for c in base.honest_chains()}
        if room:
            plan_injections(honest, 0, room, np.random.default_rng(0))
        with pytest.raises(InjectionError):
            plan_injections(honest, 0, room + 1, np.random.default_rng(0))

    def test_int_accepted_where_a_float_is_annotated(self):
        cfg = config_from_mapping({"duration_min": 3, "issuance_rate": 60})
        assert (cfg.duration_min, cfg.issuance_rate) == (3, 60)


class TestDerivedViews:
    def test_adversarial_chains_take_the_tail(self):
        cfg = replace(ScenarioConfig(), spam_fraction=0.3,
                      adversary_fraction=0.2, chains=10)
        assert cfg.adversarial_chains() == (8, 9)
        assert cfg.honest_chains() == tuple(range(8))

    def test_no_spam_no_adversarial_chains(self):
        cfg = ScenarioConfig()
        assert cfg.adversarial_chains() == ()
        assert cfg.honest_chains() == tuple(range(10))

    def test_at_least_one_honest_chain_kept(self):
        cfg = replace(ScenarioConfig(), spam_fraction=0.9,
                      adversary_fraction=1.0, chains=3)
        assert len(cfg.adversarial_chains()) == 2
        assert len(cfg.honest_chains()) == 1

    def test_committee_size_is_a_tenth_rounded_up_at_half(self):
        assert replace(ScenarioConfig(), fleet_size=20).committee_size() == 2
        assert replace(ScenarioConfig(), fleet_size=25).committee_size() == 3
        assert replace(ScenarioConfig(), fleet_size=4).committee_size() == 1

    def test_orphanage_critical_spam(self):
        assert replace(ScenarioConfig(),
                       tip_sample=2).orphanage_critical_spam() == 0.5
        assert replace(ScenarioConfig(),
                       tip_sample=4).orphanage_critical_spam() == 0.75


# -- every config that validates runs ----------------------------------------

def test_every_config_that_validates_runs_with_conservation():
    """Seeded fuzz: a config is rejected by name, overflows by name, or runs.

    Double-spend counts reach past the injection window of short runs."""
    outcomes = dict.fromkeys(("rejected", "double_spend", "overflow", "ran"),
                             0)
    for data in fuzz_configs():
        try:
            cfg = config_from_mapping(data)
        except ConfigError as exc:
            outcomes["rejected"] += 1
            outcomes["double_spend"] += str(exc).startswith("double_spend")
            continue
        try:
            result = Simulation(cfg).run()
        except LedgerOverflowError:
            outcomes["overflow"] += 1
            continue
        assert result.report.conservation_ok, data
        outcomes["ran"] += 1
    # the fuzz reaches the window rule and a named overflow, and a third of
    # the configs run
    assert outcomes["double_spend"] and outcomes["overflow"] >= 1, outcomes
    assert outcomes["ran"] >= 30, outcomes
