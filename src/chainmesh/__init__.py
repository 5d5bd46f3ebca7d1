"""chainmesh: deterministic simulator for interoperating blockchains.

A protocol library and discrete-event simulator for a network of blockchains
that settle cross-chain transfers on a shared DAG ledger. Intra-chain
consensus distributes balance verification over a worker fleet with
straggler-tolerant Hadamard coding; inter-chain consensus confirms blocks by
stake-weighted aggregated approval weight.
"""

__version__ = "0.1.0"

from .config import ScenarioConfig, load_config
from .engine import RunResult, Simulation, run_scenario

__all__ = ["ScenarioConfig", "load_config", "RunResult", "Simulation",
           "run_scenario", "__version__"]
