"""Trial orchestration: per-trial channel realizations, algorithm runs,
and outage-probability aggregation.

Every trial owns a random stream derived from (master_seed, trial_index),
split into independent child streams for aircraft positions, the reflector
map, rate draws, and the random decoding order
(``SeedSequence((master_seed, trial_index)).spawn(4)``, in that order).
All algorithms within a trial see the same channel matrix (common random
numbers) and share one capacity cache; each carries its own multiplication
counter.

A trial is evaluated at a list of sweep points (K, r_G) by one trial body,
``_run_points``: a sweep trial runs it at every point of the sweep, and
``run_trial`` at one point.  Aircraft and variable rates are drawn one after
another from their streams, so the channel and rates of K aircraft are the
first K columns and entries of the largest K's; each trial builds one
channel, at the largest K, and every point reads a prefix of it.
Consecutive points with the same K share an evaluator.  The one-at-a-time
baselines (ISU and SIC in random, CGTR and V-BLAST order) and the nested
decoders' front (the prune and greedy SIC) of every point of a trial run
first, as one stack of problems in one lockstep loop
(``decoders.one_at_a_time``, through ``decoders.vblast_order``), and each
point's run reads its outcomes off that stack; SSA, LGSA and GSA continue
from the point's front.

A sweep trial returns its tally, a flat list of Python ints: (decoded,
mults) per sweep point and algorithm.  The sweeping process adds each tally
into one total as it arrives and keeps none; the sum is exact and
order-free, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import sqrt
from typing import Iterable

import numpy as np

from . import decoders
from .channel import ChannelMatrix, LinkBudget, channel_matrix
from .config import EQUAL_RATE, VARIABLE_RATE, ScenarioConfig, parse_algorithm
from .decoders import DecodeOutcome
from .geometry import GeoPoint, ReflectorMap, _gauss_legendre, build_reflector_map, scenario_geometry
from .rates import RateEvaluator


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


@lru_cache(maxsize=1)
def _trial_seeds(master_seed: int, trial_index: int) -> tuple[np.random.SeedSequence, ...]:
    """(positions, map, rates, random order) streams of one trial.  A sweep
    trial reads all four, one after another, so they are spawned once; the
    cached streams are only read, never spawned from."""
    return tuple(np.random.SeedSequence((master_seed, trial_index)).spawn(4))


def _map_seed(seed_seq: np.random.SeedSequence) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def build_trial_geometry(
    cfg: ScenarioConfig, trial_index: int
) -> tuple[tuple[GeoPoint, ...], ReflectorMap]:
    """(aircraft, reflector map) of one trial index."""
    pos_ss, map_ss, _, _ = _trial_seeds(cfg.master_seed, trial_index)
    aircraft = scenario_geometry(cfg, np.random.default_rng(pos_ss))
    if cfg.freeze_reflector_map:  # one map for every trial
        map_ss = np.random.SeedSequence((cfg.master_seed,))
    return aircraft, build_reflector_map(cfg, _map_seed(map_ss))


def build_trial_channel(cfg: ScenarioConfig, trial_index: int) -> ChannelMatrix:
    """Deterministic channel realization for one trial index."""
    return channel_matrix(cfg, *build_trial_geometry(cfg, trial_index))


def draw_variable_rates(cfg: ScenarioConfig, trial_index: int) -> np.ndarray:
    """Independent per-aircraft rates, uniform on [r_g, r_max]."""
    _, _, rate_ss, _ = _trial_seeds(cfg.master_seed, trial_index)
    rng = np.random.default_rng(rate_ss)
    return rng.uniform(cfg.r_g, cfg.r_max, size=cfg.k_aircraft)


def _permutation(order_ss: np.random.SeedSequence, k: int) -> tuple[int, ...]:
    return tuple(int(i) for i in np.random.default_rng(order_ss).permutation(k))


#: The baselines that decode one aircraft at a time, each run as one problem
#: of ``decoders.one_at_a_time``.
_BASELINES = ("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST")

#: The pseudo-name of the nested decoders' front among the baselines.
_FRONT = "FRONT"

#: Baseline outcomes and fronts found for a sweep trial, kept by evaluator
#: and dropped with it: {evaluator: {``_key``: DecodeOutcome or Front}}.
_found: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _key(name, rates, random_order, eps) -> tuple:
    """What a baseline's outcome on one evaluator depends on."""
    rates = np.asarray(rates, dtype=float).tobytes()
    return name, eps, rates, tuple(random_order) if name == "SIC_RANDOM" else None


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
    per-algorithm counters.  The baselines and the nested decoders' front
    are read off the evaluator's sweep trial stack (``_share_baselines``),
    or else run as a stack of their own."""
    keys: dict[str, tuple] = {}
    limits: dict[str, int] = {}
    for token in algorithms:
        name, v_max = parse_algorithm(token)
        if name in ("SSA", "LGSA", "GSA"):
            limits[token] = {"SSA": 0, "LGSA": v_max, "GSA": ev.k}[name]
            keys[_FRONT] = _key(_FRONT, rates, random_order, eps)
        else:
            keys[token] = _key(name, rates, random_order, eps)
    if not all(key in _found.get(ev, ()) for key in keys.values()):  # a lone point: a stack of one
        _share_baselines([key[0] for key in keys.values()], h, [ev], [0], [rates], [random_order], eps)
    results = {token: _found[ev][key] for token, key in keys.items()}
    if limits:  # SSA, LGSA:v and GSA continue from the one front of the nested family
        front = results.pop(_FRONT)
        results.update(zip(limits, decoders.from_front(ev, rates, front, list(limits.values()), eps)))
    return results


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_points(cfg: ScenarioConfig) -> list[tuple[int, float]]:
    """(K, r_G) of every sweep point, in configuration order."""
    if cfg.rate_mode == EQUAL_RATE:
        return [(cfg.k_aircraft, float(r_g)) for r_g in cfg.r_g_list]
    return [(int(k), float(cfg.r_g)) for k in cfg.k_list]


def _run_points(cfg: ScenarioConfig, trial_index: int, points) -> list[dict[str, DecodeOutcome]]:
    """One trial evaluated at the sweep points (K, r_G), in order: per point,
    {token: DecodeOutcome} of every configured algorithm.

    The channel (and, in variable-rate mode, the rate draw) is built once at
    the largest K; a point with K aircraft runs on its first K columns and
    rates, with its own evaluator and random order whenever K changes.  The
    baselines and nested decoders' fronts of every point run first, as one
    stack (``_share_baselines``); then ``run_algorithms`` runs once per
    point."""
    cfg_max = cfg.replace(k_aircraft=max(k for k, _ in points))
    h_max = build_trial_channel(cfg_max, trial_index).h
    gamma = LinkBudget.from_config(cfg).snr_linear
    drawn = draw_variable_rates(cfg_max, trial_index) if cfg.rate_mode == VARIABLE_RATE else None
    rates = [np.full(k, r_g) if drawn is None else drawn[:k] for k, r_g in points]
    order_ss = _trial_seeds(cfg.master_seed, trial_index)[3]
    evs: list[RateEvaluator] = []
    at = []  # the evaluator of each point: the points up to the next change of K share one
    for k, _ in points:
        if not evs or evs[-1].k != k:
            evs.append(RateEvaluator(h_max[:, :k], gamma))
        at.append(len(evs) - 1)
    random_orders = [_permutation(order_ss, ev.k) for ev in evs]
    names = list(dict.fromkeys(name if name in _BASELINES else _FRONT
                               for name in (parse_algorithm(tok)[0] for tok in cfg.algorithms)))
    if names:
        _share_baselines(names, h_max, evs, at, rates, random_orders)
    return [run_algorithms(evs[e], h_max[:, : evs[e].k], rr, gamma, cfg.algorithms, random_orders[e])
            for e, rr in zip(at, rates)]


def run_trial(
    cfg: ScenarioConfig, trial_index: int, r_g: float | None = None
) -> dict[str, DecodeOutcome]:
    """One trial at one sweep point: every configured algorithm on the
    trial's channel at K = ``cfg.k_aircraft``, at r_G = ``r_g`` (by default
    the first of ``cfg.r_g_list``) in equal-rate mode, on the drawn rates in
    variable-rate mode.  The sweep's own trial body (``_run_points``), so
    its outcomes are those of the sweep at that point; deterministic given
    (config, trial_index)."""
    if cfg.rate_mode == VARIABLE_RATE:
        r_g = cfg.r_g
    elif r_g is None:
        r_g = cfg.r_g_list[0]
    return _run_points(cfg, trial_index, [(cfg.k_aircraft, float(r_g))])[0]


def _sweep_trial(args) -> list[int]:
    """Worker: one trial evaluated at every sweep point (``_run_points``).
    Returns its tally: (n_decoded, mults) per point, then token, as one list."""
    cfg, trial_index = args
    return [n for res in _run_points(cfg, trial_index, _sweep_points(cfg))
            for tok in cfg.algorithms for n in (res[tok].n_decoded, res[tok].mult_count)]


def _share_baselines(names, h_max, evs, at, rates, random_orders, eps=0.0) -> None:
    """Run the baselines ``names`` at every sweep point of a trial, point j
    on evaluator at[j] with rates[j], as one stack of problems, V-BLAST
    searches included, and keep each outcome with its evaluator in
    ``_found``.  ``_FRONT`` among the names is the nested decoders' front,
    kept as the ``decoders.Front`` it is.  The CGTR orders come from one
    argsort over the stacked rate rows; each baseline outcome's plan decodes
    one aircraft per group."""
    rows = np.full((len(rates), h_max.shape[1]), np.nan)
    for row, rr in zip(rows, rates):
        row[: len(rr)] = rr
    cgtr = decoders.cgtr_order(h_max, rows) if "SIC_CGTR" in names else [None] * len(rates)
    runs = [(e, name, rr, {"ISU": decoders.ISU, "SIC_RANDOM": random_orders[e], "SIC_CGTR": order,
                           "SIC_VBLAST": decoders.VBLAST, _FRONT: decoders.GREEDY}[name])
            for e, rr, order in zip(at, rates, cgtr) for name in names]
    found = decoders.vblast_order(evs, walks=[(e, rr, order) for e, _, rr, order in runs], eps=eps)
    for (e, name, rr, _), got in zip(runs, found):
        if name != _FRONT:
            decoded = frozenset(got[0])
            got = DecodeOutcome(decoded, frozenset(range(evs[e].k)) - decoded, tuple((i,) for i in got[0]), got[1])
        _found.setdefault(evs[e], {})[_key(name, rr, random_orders[e], eps)] = got


def _map_trials(cfg: ScenarioConfig) -> list[int]:
    """The sum of ``_sweep_trial``'s tallies over the trials, each added in
    as it arrives, on min(threads, trials) processes counting this one.

    The one-off loads happen here first; with two or more processes, a pool
    of the others starts and runs trials beside this one.  Each process takes
    the next trial index from one sequence, a worker as soon as it returns
    one.  After a trial raises, no further trial starts, and the error is
    raised once the pool has shut down."""
    total = [0] * (2 * len(_sweep_points(cfg)) * len(cfg.algorithms))
    # a pool starts all its workers at the first submit: no more than trials
    workers = min(cfg.threads, cfg.trials)
    # forked workers inherit these loads; under spawn or forkserver they
    # only warm this process
    import numpy.random  # noqa: F401  (numpy loads it on first use)

    _gauss_legendre()
    errors: list[BaseException] = []  # once not empty, no trial starts
    indices = iter(range(cfg.trials))
    lock = threading.Lock()

    def take() -> int | None:
        # called under the lock: once an error is recorded, nothing starts
        return None if errors else next(indices, None)

    def add(tally: list[int]) -> None:
        with lock:
            total[:] = [a + b for a, b in zip(total, tally)]

    def hand_out() -> None:
        with lock:
            i = take()
            fut = None if i is None else pool.submit(_sweep_trial, (cfg, i))
        if fut is not None:
            fut.add_done_callback(collect)

    def collect(done) -> None:
        if done.exception() is None:
            add(done.result())
        else:
            with lock:
                errors.append(done.exception())
        hand_out()  # starts none once an error is recorded

    with ProcessPoolExecutor(max_workers=workers - 1) if workers > 1 else nullcontext() as pool:
        for _ in range(workers - 1):
            hand_out()
        try:
            while True:
                with lock:
                    i = take()
                if i is None:
                    break
                add(_sweep_trial((cfg, i)))
        except BaseException as err:
            with lock:
                errors.append(err)
            raise
    if errors:
        raise errors[0]
    return total


def run_sweep(cfg: ScenarioConfig) -> list[SweepRow]:
    """Run the configured sweep; one row per (algorithm, sweep point).

    The trials run on min(``cfg.threads``, ``cfg.trials``) processes, this
    one included: with two or more, this process forks the others after
    the one-off loads and runs trials beside them (see ``_map_trials``).
    Aggregation is an exact, order-insensitive sum of integer tallies, so
    the result is identical for any worker count."""
    cfg.validate()
    total = _map_trials(cfg)
    cells = zip(product(_sweep_points(cfg), cfg.algorithms), total[::2], total[1::2])
    rows = [SweepRow(tok, k, r_g, cfg.rate_mode, OutageEstimate(tok, k, cfg.trials, n, mults), cfg.master_seed)
            for ((k, r_g), tok), n, mults in cells]
    rows.sort(key=lambda row: (row.algorithm, row.k, row.r_g))
    return rows
