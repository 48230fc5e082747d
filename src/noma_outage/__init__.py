"""Outage-probability simulation for a multiuser multiple-antenna NOMA
uplink over a geometry-based air-ground channel."""

from .config import ScenarioConfig
from .decoders import DecodeOutcome, gsa, lgsa, ssa
from .montecarlo import OutageEstimate, run_sweep, run_trial
from .rates import MultCounter, RateEvaluator, brute_force_eval_count

__all__ = [
    "ScenarioConfig",
    "DecodeOutcome",
    "ssa",
    "gsa",
    "lgsa",
    "OutageEstimate",
    "run_trial",
    "run_sweep",
    "MultCounter",
    "RateEvaluator",
    "brute_force_eval_count",
]
