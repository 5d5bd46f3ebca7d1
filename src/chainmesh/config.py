"""Scenario configuration: defaults, JSON loading, and validation."""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .balances import INT64_MAX
from .coding import written_ratio
from .doublespend import injection_window
from .roles import stream_slots


class ConfigError(Exception):
    """Invalid or malformed scenario configuration."""


@dataclass(frozen=True)
class DoubleSpendPlan:
    """How many conflicting pairs and cover blocks a run injects."""

    pairs: int = 0
    regular: int = 0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs, fully deterministic given a seed.

    Every instance is validated when built; a bad value raises
    `ConfigError` naming its field.
    """

    # Topology
    chains: int = 10                    # interoperating chains
    fleet_size: int = 20                # worker nodes per chain
    accounts: int = 100                 # accounts per chain
    tip_sample: int = 2                 # foreign tips checked per epoch (K)

    # Behavior
    straggler_fraction: float = 0.1     # share of silent workers per fleet
    confirm_threshold: float = 0.67     # aggregated-weight confirmation cut
    spam_fraction: float = 0.0          # adversarial share of issuance
    adversary_fraction: float = 0.2     # share of chains that are adversarial
    invalid_tx_fraction: float = 0.5    # overspending rows in spam blocks
    coding: bool = True                 # coded shards vs plain partitions

    # Load
    issuance_rate: float = 60.0         # blocks per minute, all factions
    duration_min: float = 2.0
    genesis_balance: int = 1000         # starting funds per account
    active_rows: int = 10               # populated rows per honest block
    amount_max: int = 10                # largest per-row honest transfer

    # Platform timing
    link_latency_ms: float = 100.0
    bandwidth_mbps: float = 20.0
    task_timeout_ms: float = 500.0
    worker_ms_per_row: float = 2.0      # distributed shard compute cost
    fallback_ms_per_row: float = 40.0   # centralized completion of lost rows
    ledger_interval_s: float = 5.0      # ledger window cadence
    tip_pool_sample_s: float = 1.0      # tip-pool size sampling cadence

    # Fault injection
    double_spend: DoubleSpendPlan = field(default_factory=DoubleSpendPlan)

    # Reproducibility
    seed: int = 0

    def __post_init__(self) -> None:
        _check(self)

    def adversarial_chains(self) -> tuple[int, ...]:
        if self.spam_fraction <= 0:
            return ()
        count = max(1, round(self.adversary_fraction * self.chains))
        count = min(count, self.chains - 1)   # keep at least one honest chain
        return tuple(range(self.chains - count, self.chains))

    def honest_chains(self) -> tuple[int, ...]:
        bad = set(self.adversarial_chains())
        return tuple(c for c in range(self.chains) if c not in bad)

    def committee_size(self) -> int:
        return max(1, (self.fleet_size + 5) // 10)   # tenth, rounded half-up

    def orphanage_critical_spam(self) -> float:
        """Spam share above which wasted approval slots dominate."""
        return (self.tip_sample - 1) / self.tip_sample


_FIELD_NAMES = {f.name for f in dataclasses.fields(ScenarioConfig)}
_DS_FIELDS = {f.name for f in dataclasses.fields(DoubleSpendPlan)}
# annotation -> accepted types; a bool is accepted only where annotated
_TYPES = {"int": int, "float": (int, float), "bool": bool,
          "DoubleSpendPlan": DoubleSpendPlan}


def _check_types(obj, prefix: str = "") -> None:
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not isinstance(value, _TYPES[f.type]) or \
                (isinstance(value, bool) and f.type != "bool"):
            raise ConfigError(f"{prefix}{f.name} must be of type {f.type}, "
                              f"not {type(value).__name__}")


# (fields, test every valid value passes, what the fields must be)
_BOUNDS = (
    (("chains",), lambda v: v >= 2, "at least 2"),
    (("fleet_size", "accounts", "tip_sample", "amount_max"),
     lambda v: v >= 1, "at least 1"),
    # a count past sys.maxsize sizes no array and bounds no range
    (("chains", "fleet_size", "accounts", "tip_sample"),
     lambda v: v <= sys.maxsize, "at most sys.maxsize"),
    (("genesis_balance", "active_rows", "seed"),
     lambda v: v >= 0, "non-negative"),
    # balances are int64, and an honest amount is drawn below amount_max + 1
    (("genesis_balance",), lambda v: v <= INT64_MAX, "at most 2**63 - 1"),
    (("amount_max",), lambda v: v < INT64_MAX, "at most 2**63 - 2"),
    (("straggler_fraction", "spam_fraction", "adversary_fraction",
      "invalid_tx_fraction"), lambda v: 0 <= v <= 1, "within [0, 1]"),
    (("confirm_threshold",), lambda v: 0 < v <= 1, "within (0, 1]"),
    (("issuance_rate", "duration_min", "link_latency_ms", "bandwidth_mbps",
      "task_timeout_ms", "worker_ms_per_row", "fallback_ms_per_row",
      "ledger_interval_s", "tip_pool_sample_s"), lambda v: v > 0, "positive"),
)


def _check(cfg: ScenarioConfig) -> None:
    _check_types(cfg)
    _check_types(cfg.double_spend, "double_spend.")
    for names, ok, bound in _BOUNDS:
        for name in names:
            if not ok(getattr(cfg, name)):
                raise ConfigError(f"{name} must be {bound}")
    # a stream of more than sys.maxsize slots has no length
    if not cfg.issuance_rate * cfg.duration_min <= sys.maxsize:
        raise ConfigError("issuance_rate times duration_min must be finite "
                          "and at most sys.maxsize slots")
    ds = cfg.double_spend
    if ds.pairs < 0 or ds.regular < 0:
        raise ConfigError("double_spend counts must be non-negative")
    if cfg.spam_fraction > 0:
        # every spam block must overspend and never confirm: its first
        # floor(invalid_tx_fraction * rows) rows overspend, its rows are
        # funded accounts, and only its own chain's later blocks approve it;
        # the threshold is compared exactly, as the DAG reads it
        if cfg.genesis_balance < 1:
            raise ConfigError("genesis_balance must be at least 1 with spam")
        if int(cfg.invalid_tx_fraction
               * min(cfg.active_rows, cfg.accounts)) < 1:
            raise ConfigError("invalid_tx_fraction times min(active_rows, "
                              "accounts) must reach 1 with spam")
        num, den = written_ratio(cfg.confirm_threshold)
        if num * cfg.chains <= den:
            raise ConfigError("confirm_threshold must exceed one chain's "
                              "stake share 1/chains with spam")
    # carriers ride on honest slots, the stream `schedule_issuance` draws at
    # the honest share of the rate
    honest = stream_slots(cfg.issuance_rate * (1.0 - cfg.spam_fraction),
                          cfg.duration_min)
    need, room = 2 * ds.pairs + ds.regular, len(injection_window(honest))
    if need > room:
        raise ConfigError(f"double_spend needs {need} carrier slots but only "
                          f"{room} of the {honest} honest slots fall in the "
                          "injection window")


def known_fields(data: object, names: set[str], what: str,
                 prefix: str = "") -> Mapping:
    """`data`, once it is a JSON object with no key outside `names`; `what`
    names it in errors, and `prefix` qualifies its keys."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(map(str, set(data) - names))
    if unknown:
        raise ConfigError(f"unknown {what} field {prefix + unknown[0]!r}")
    return data


def read_json(path: str | Path, what: str) -> Any:
    """The JSON document in the UTF-8 file at `path`; `what` names it in
    errors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def replace(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """Validated copy-with-changes; unknown fields are rejected by name."""
    known_fields(changes, _FIELD_NAMES, "configuration")
    if isinstance(changes.get("double_spend"), Mapping):
        changes["double_spend"] = DoubleSpendPlan(**known_fields(
            changes["double_spend"], _DS_FIELDS, "configuration",
            "double_spend."))
    return dataclasses.replace(cfg, **changes)


def config_from_mapping(data: object) -> ScenarioConfig:
    """Build a validated config; unknown fields are rejected by name."""
    return replace(ScenarioConfig(),
                   **known_fields(data, _FIELD_NAMES, "configuration"))


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a JSON scenario file."""
    return config_from_mapping(read_json(path, "configuration"))
