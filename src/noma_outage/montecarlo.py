"""Trial orchestration: per-trial channel realizations, algorithm runs,
and outage-probability aggregation.

Every trial owns a random stream derived from (master_seed, trial_index),
split into independent child streams for aircraft positions, the reflector
map, rate draws, and the random decoding order, so results are bit-identical
for any worker count.  All algorithms within a trial see the same channel
matrix (common random numbers) and share one capacity cache; each carries its
own multiplication counter.

A sweep evaluates every trial at a list of sweep points (K, r_G).  Aircraft
and variable rates are drawn one after another from their streams, so the
channel and rates of K aircraft are the first K columns and entries of the
largest K's; each trial builds one channel, at the largest K, and every point
reads a prefix of it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import Iterable

import numpy as np

from . import decoders
from .channel import ArrayLayout, ChannelMatrix, GroundElectrical, LinkBudget, channel_matrix
from .config import EQUAL_RATE, VARIABLE_RATE, ScenarioConfig, parse_algorithm
from .decoders import DecodeOutcome
from .geometry import ReflectorMap, ScenarioGeometry, build_reflector_map, scenario_geometry
from .rates import MultCounter, RateEvaluator


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage estimate for one (algorithm, sweep point)."""

    algorithm: str
    k: int
    trials: int
    decoded_total: int
    mult_total: int

    @property
    def p_out(self) -> float:
        return 1.0 - self.decoded_total / (self.k * self.trials)

    @property
    def stderr(self) -> float:
        p = self.p_out
        return sqrt(max(p * (1.0 - p), 0.0) / (self.k * self.trials))

    @property
    def avg_mults(self) -> float:
        return self.mult_total / self.trials


@dataclass(frozen=True)
class SweepRow:
    algorithm: str
    k: int
    r_g: float
    rate_mode: str
    estimate: OutageEstimate
    master_seed: int


def _trial_seeds(cfg: ScenarioConfig, trial_index: int):
    ss = np.random.SeedSequence((cfg.master_seed, trial_index))
    pos_ss, map_ss, rate_ss, order_ss = ss.spawn(4)
    return pos_ss, map_ss, rate_ss, order_ss


def _map_seed(seed_seq: np.random.SeedSequence) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def build_trial_geometry(cfg: ScenarioConfig, trial_index: int) -> tuple[ScenarioGeometry, ReflectorMap]:
    pos_ss, map_ss, _, _ = _trial_seeds(cfg, trial_index)
    geom = scenario_geometry(cfg, np.random.default_rng(pos_ss))
    if cfg.freeze_reflector_map:
        frozen_ss = np.random.SeedSequence((cfg.master_seed,))
        refl = build_reflector_map(cfg, _map_seed(frozen_ss))
    else:
        refl = build_reflector_map(cfg, _map_seed(map_ss))
    return geom, refl


def build_trial_channel(cfg: ScenarioConfig, trial_index: int) -> ChannelMatrix:
    """Deterministic channel realization for one trial index."""
    geom, refl = build_trial_geometry(cfg, trial_index)
    budget = LinkBudget.from_config(cfg)
    layout = ArrayLayout.upra(cfg.m_antennas, budget.wavelength_m)
    ground = GroundElectrical.from_params(cfg.ground)
    return channel_matrix(geom, refl, layout, ground, budget)


def draw_variable_rates(cfg: ScenarioConfig, trial_index: int) -> np.ndarray:
    """Independent per-aircraft rates, uniform on [r_g, r_max]."""
    _, _, rate_ss, _ = _trial_seeds(cfg, trial_index)
    rng = np.random.default_rng(rate_ss)
    return rng.uniform(cfg.r_g, cfg.r_max, size=cfg.k_aircraft)


def _random_order(cfg: ScenarioConfig, trial_index: int, k: int) -> tuple[int, ...]:
    _, _, _, order_ss = _trial_seeds(cfg, trial_index)
    rng = np.random.default_rng(order_ss)
    return tuple(int(i) for i in rng.permutation(k))


def _one_at_a_time(name, ev, h, rates, gamma, random_order, eps) -> DecodeOutcome:
    """ISU or a fixed-order SIC baseline; the plan lists the decoded aircraft
    one by one, in decode order (index order for ISU)."""
    counter = MultCounter()
    if name == "ISU":
        decoded = decoders.isu_set(ev, rates, gamma, counter=counter, eps=eps)
        order = sorted(decoded)
    else:
        if name == "SIC_RANDOM":
            order = random_order
        elif name == "SIC_CGTR":
            order = decoders.cgtr_order(h, rates)
        else:
            # SIC_VBLAST: the order does not depend on the rates, so it is found
            # once per evaluator; its evaluations are counted at every point
            if ev.vblast is None:
                found = MultCounter()
                ev.vblast = (decoders.vblast_order(ev, gamma, counter=found), found.total)
            order, mults = ev.vblast
            counter.add(mults)
        decoded = decoders.decode_with_order(ev, rates, order, gamma, counter=counter, eps=eps)
    plan = tuple((i,) for i in order if i in decoded)
    return DecodeOutcome(decoded, frozenset(range(ev.k)) - decoded, plan, counter.total)


def run_algorithms(
    ev: RateEvaluator,
    h: np.ndarray,
    rates: np.ndarray,
    gamma: float,
    algorithms: Iterable[str],
    random_order: tuple[int, ...],
    eps: float = 0.0,
) -> dict[str, DecodeOutcome]:
    """Run the selected algorithms on one realization; shared evaluator,
    per-algorithm counters."""
    results: dict[str, DecodeOutcome] = {}
    limits: dict[str, int] = {}
    for token in algorithms:
        name, v_max = parse_algorithm(token)
        if name in ("SSA", "LGSA", "GSA"):
            limits[token] = {"SSA": 0, "LGSA": v_max, "GSA": ev.k}[name]
        else:
            results[token] = _one_at_a_time(name, ev, h, rates, gamma, random_order, eps)
    if limits:  # SSA, LGSA:v and GSA read off one run of the nested family
        results.update(zip(limits, decoders.successive(ev, rates, list(limits.values()), eps)))
    return results


def run_trial(
    cfg: ScenarioConfig, trial_index: int, r_g: float | None = None
) -> dict[str, DecodeOutcome]:
    """One trial: sample geometry, map and rates, build H once, run every
    requested algorithm on it.  Deterministic given (config, trial_index)."""
    chan = build_trial_channel(cfg, trial_index)
    gamma = LinkBudget.from_config(cfg).snr_linear
    if cfg.rate_mode == VARIABLE_RATE:
        rates = draw_variable_rates(cfg, trial_index)
    else:
        rates = np.full(cfg.k_aircraft, cfg.r_g_list[0] if r_g is None else float(r_g))
    ev = RateEvaluator(chan.h, gamma)
    return run_algorithms(
        ev, chan.h, rates, gamma, cfg.algorithms, _random_order(cfg, trial_index, cfg.k_aircraft)
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_points(cfg: ScenarioConfig) -> list[tuple[int, float]]:
    """(K, r_G) of every sweep point, in configuration order."""
    if cfg.rate_mode == EQUAL_RATE:
        return [(cfg.k_aircraft, float(r_g)) for r_g in cfg.r_g_list]
    return [(int(k), float(cfg.r_g)) for k in cfg.k_list]


def _sweep_trial(args) -> list[dict[str, tuple[int, int]]]:
    """Worker: one trial evaluated at every sweep point.

    The channel (and, in variable-rate mode, the rate draw) is built once at
    the largest K; a point with K aircraft runs on its first K columns and
    rates, with its own evaluator and random order whenever K changes.
    Returns per-point {token: (n_decoded, mults)}."""
    cfg, trial_index = args
    points = _sweep_points(cfg)
    cfg_max = cfg.replace(k_aircraft=max(k for k, _ in points))
    h_max = build_trial_channel(cfg_max, trial_index).h
    gamma = LinkBudget.from_config(cfg).snr_linear
    drawn = draw_variable_rates(cfg_max, trial_index) if cfg.rate_mode == VARIABLE_RATE else None
    ev = None
    out = []
    for k, r_g in points:
        h = h_max[:, :k]
        if ev is None or ev.k != k:
            ev = RateEvaluator(h, gamma)
            rand_order = _random_order(cfg, trial_index, k)
        rates = np.full(k, r_g) if drawn is None else drawn[:k]
        res = run_algorithms(ev, h, rates, gamma, cfg.algorithms, rand_order)
        out.append({tok: (o.n_decoded, o.mult_count) for tok, o in res.items()})
    return out


def _map_trials(tasks, threads: int):
    # a pool starts all its workers at the first submit: no more than tasks
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [_sweep_trial(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (8 * workers))
        return list(pool.map(_sweep_trial, tasks, chunksize=chunk))


def run_sweep(cfg: ScenarioConfig) -> list[SweepRow]:
    """Run the configured sweep on ``cfg.threads`` workers; one row per
    (algorithm, sweep point).

    Aggregation is an order-insensitive integer reduction, so the result is
    identical for any worker count."""
    cfg.validate()
    per_trial = _map_trials([(cfg, i) for i in range(cfg.trials)], cfg.threads)
    rows: list[SweepRow] = []
    for j, (k, r_g) in enumerate(_sweep_points(cfg)):
        for tok in cfg.algorithms:
            decoded = sum(res[j][tok][0] for res in per_trial)
            mults = sum(res[j][tok][1] for res in per_trial)
            est = OutageEstimate(tok, k, cfg.trials, decoded, mults)
            rows.append(SweepRow(tok, k, r_g, cfg.rate_mode, est, cfg.master_seed))
    rows.sort(key=lambda row: (row.algorithm, row.k, row.r_g))
    return rows
