"""Built-in experiment scenario sets.

Each preset is a named grid of scenario configurations covering one
experiment family: intra-chain throughput under stragglers, scaling in chain
count or fleet size, inter-chain throughput and finality under spam,
confirmation decentralization, tip-pool growth near the critical spam rate,
and conflicting-spend detection. Desk scale (20 workers, 100 accounts) is the
default; `paper_scale` switches to the full fleet and account sizes.
"""

from __future__ import annotations

from .config import ScenarioConfig, replace

DEFAULT_SEEDS = (0, 1, 2)

#: desk scale trims the full experiment (100 workers, 1000 accounts) to a
#: laptop-sized fleet while keeping every protocol parameter intact
DESK_FLEET, PAPER_FLEET = 20, 100
DESK_ACCOUNTS, PAPER_ACCOUNTS = 100, 1000


def _base(paper_scale: bool, **kw) -> ScenarioConfig:
    values = dict(
        fleet_size=PAPER_FLEET if paper_scale else DESK_FLEET,
        accounts=PAPER_ACCOUNTS if paper_scale else DESK_ACCOUNTS,
    )
    values.update(kw)
    return replace(ScenarioConfig(), **values)


def _intra_throughput(paper_scale: bool):
    """Coded vs plain sharding across straggler rates; block formation rate."""
    out = []
    for coding in (True, False):
        for frac in (0.1, 0.3):
            label = f"{'coded' if coding else 'plain'}-straggler{int(frac * 100):02d}"
            out.append((label, _base(paper_scale, coding=coding,
                                     straggler_fraction=frac,
                                     issuance_rate=240.0, duration_min=1.0)))
    return out


def _intra_scalability(paper_scale: bool):
    """Block formation rate as the number of chains grows."""
    return [(f"chains{n:02d}", _base(paper_scale, chains=n,
                                     issuance_rate=240.0, duration_min=1.0))
            for n in (5, 15)]


def _inter_throughput(paper_scale: bool):
    """Confirmation rate and finality at low and critical spam shares."""
    return [(f"spam{int(mu * 100):02d}", _base(paper_scale, spam_fraction=mu,
                                               tip_sample=2,
                                               issuance_rate=60.0,
                                               duration_min=2.0))
            for mu in (0.10, 0.55)]


def _inter_scalability(paper_scale: bool):
    """Confirmation rate and finality as the worker fleet grows."""
    sizes = (100, 200) if paper_scale else (20, 40)
    return [(f"fleet{n:03d}", _base(paper_scale, fleet_size=n,
                                    issuance_rate=60.0, duration_min=2.0))
            for n in sizes]


def _decentralization(paper_scale: bool):
    """Confirmation-share Gini over a tip-sample / spam-share grid."""
    grid = {2: (0.10, 0.35, 0.50, 0.55), 4: (0.10, 0.50, 0.75, 0.80)}
    out = []
    for k, fracs in grid.items():
        for mu in fracs:
            label = f"k{k}-spam{int(round(mu * 100)):02d}"
            out.append((label, _base(paper_scale, tip_sample=k,
                                     spam_fraction=mu, issuance_rate=60.0,
                                     duration_min=2.0)))
    return out


def _tip_pool(k: int, fracs: tuple[float, ...], paper_scale: bool):
    """Tip-pool growth just below and above the critical spam share."""
    return [(f"k{k}-spam{int(round(mu * 100)):02d}",
             _base(paper_scale, tip_sample=k, spam_fraction=mu,
                   issuance_rate=60.0, duration_min=2.0))
            for mu in fracs]


def _double_spend(k: int, paper_scale: bool):
    """Conflicting-pair injection, detection rates and delays."""
    return [(f"k{k}-pairs10",
             _base(paper_scale, tip_sample=k, spam_fraction=0.2,
                   issuance_rate=100.0, duration_min=3.0,
                   double_spend={"pairs": 10, "regular": 60}))]


_BUILDERS = {
    "intra-throughput": _intra_throughput,
    "intra-scalability": _intra_scalability,
    "inter-throughput": _inter_throughput,
    "inter-scalability": _inter_scalability,
    "decentralization": _decentralization,
    "tip-pool-k2": lambda ps: _tip_pool(2, (0.35, 0.55), ps),
    "tip-pool-k4": lambda ps: _tip_pool(4, (0.60, 0.80), ps),
    "double-spend-k2": lambda ps: _double_spend(2, ps),
    "double-spend-k4": lambda ps: _double_spend(4, ps),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build_preset(name: str,
                 paper_scale: bool = False) -> dict[str, ScenarioConfig]:
    """Expand one preset into its scenarios: one config per label, each run
    once per seed."""
    if name not in _BUILDERS:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; choose one of: {known}")
    return dict(_BUILDERS[name](paper_scale))
