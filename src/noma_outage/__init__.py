"""Outage-probability simulation for a multiuser multiple-antenna NOMA
uplink over a geometry-based air-ground channel."""

import os

# One BLAS thread per process unless the user chose otherwise: the matrices
# are small, and the sweep's workers are the parallelism.  Set before numpy
# loads its BLAS, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
