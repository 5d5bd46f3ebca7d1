"""Built-in experiment scenario sets.

Each preset is a named grid of scenario configurations covering one
experiment family: intra-chain throughput under stragglers, scaling in chain
count or fleet size, inter-chain throughput and finality under spam,
confirmation decentralization, tip-pool growth near the critical spam rate,
and conflicting-spend detection. Desk scale (20 workers, 100 accounts) is the
default; `paper_scale` switches to the full fleet and account sizes.
"""

from __future__ import annotations

from .config import ConfigError, ScenarioConfig, replace

DEFAULT_SEEDS = (0, 1, 2)

#: desk scale trims the full experiment (100 workers, 1000 accounts) to a
#: laptop-sized fleet while keeping every protocol parameter intact
DESK_FLEET, PAPER_FLEET = 20, 100
DESK_ACCOUNTS, PAPER_ACCOUNTS = 100, 1000

_INTRA = {"issuance_rate": 240.0, "duration_min": 1.0}
_INTER = {"issuance_rate": 60.0, "duration_min": 2.0}


def _spam_grid(k: int, fracs: tuple[float, ...]) -> list[tuple[str, dict]]:
    """Two-minute scenarios at tip sample `k` and each spam share."""
    return [(f"k{k}-spam{round(mu * 100):02d}",
             {**_INTER, "tip_sample": k, "spam_fraction": mu}) for mu in fracs]


def _catalog(fleet: int) -> dict[str, list[tuple[str, dict]]]:
    """Each preset's scenarios, as (label, overrides of the base config), at
    a scale of `fleet` workers per chain."""
    return {
        # coded vs plain sharding across straggler rates; block formation
        "intra-throughput": [
            (f"{'coded' if coding else 'plain'}-straggler"
             f"{round(frac * 100):02d}",
             {**_INTRA, "coding": coding, "straggler_fraction": frac})
            for coding in (True, False) for frac in (0.1, 0.3)],
        # block formation rate as the number of chains grows
        "intra-scalability": [(f"chains{n:02d}", {**_INTRA, "chains": n})
                              for n in (5, 15)],
        # confirmation rate and finality at low and critical spam shares
        "inter-throughput": [(f"spam{round(mu * 100):02d}",
                              {**_INTER, "spam_fraction": mu, "tip_sample": 2})
                             for mu in (0.10, 0.55)],
        # confirmation rate and finality as the worker fleet grows
        "inter-scalability": [(f"fleet{n:03d}", {**_INTER, "fleet_size": n})
                              for n in (fleet, 2 * fleet)],
        # confirmation-share Gini over a tip-sample / spam-share grid
        "decentralization": (_spam_grid(2, (0.10, 0.35, 0.50, 0.55))
                             + _spam_grid(4, (0.10, 0.50, 0.75, 0.80))),
        # tip-pool growth just below and above the critical spam share
        "tip-pool-k2": _spam_grid(2, (0.35, 0.55)),
        "tip-pool-k4": _spam_grid(4, (0.60, 0.80)),
        # conflicting-pair injection, detection rates and delays
        **{f"double-spend-k{k}": [(f"k{k}-pairs10", {
            "tip_sample": k, "spam_fraction": 0.2, "issuance_rate": 100.0,
            "duration_min": 3.0,
            "double_spend": {"pairs": 10, "regular": 60}})] for k in (2, 4)},
    }


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_catalog(DESK_FLEET)))


def build_preset(name: str,
                 paper_scale: bool = False) -> dict[str, ScenarioConfig]:
    """Expand one preset into its scenarios: one config per label, each run
    once per seed."""
    fleet, accounts = ((PAPER_FLEET, PAPER_ACCOUNTS) if paper_scale
                       else (DESK_FLEET, DESK_ACCOUNTS))
    catalog = _catalog(fleet)
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise ConfigError(f"unknown preset {name!r}; choose one of: {known}")
    base = ScenarioConfig(fleet_size=fleet, accounts=accounts)
    return {label: replace(base, **overrides)
            for label, overrides in catalog[name]}
