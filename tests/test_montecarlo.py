import multiprocessing
import os
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest

import helpers

from noma_outage import decoders, montecarlo
from noma_outage.channel import LinkBudget
from noma_outage.config import ConfigError, ScenarioConfig
from noma_outage.montecarlo import (
    OutageEstimate,
    build_trial_channel,
    build_trial_geometry,
    draw_variable_rates,
    run_algorithms,
    run_sweep,
    run_trial,
)
from noma_outage.rates import RateEvaluator

SMALL = ScenarioConfig(
    k_aircraft=4,
    m_antennas=4,
    trials=6,
    algorithms=("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "LGSA:2", "GSA"),
    r_g_list=(2.0, 6.0),
    master_seed=11,
)


def test_run_trial_deterministic():
    a = run_trial(SMALL, 3, r_g=4.0)
    b = run_trial(SMALL, 3, r_g=4.0)
    assert a == b


def test_run_trial_shared_channel_containment():
    # all algorithms act on the same realization, so the per-trial chain holds
    for idx in range(8):
        res = run_trial(SMALL, idx, r_g=5.0)
        assert res["ISU"].decoded <= res["SSA"].decoded
        assert res["SSA"].decoded <= res["LGSA:2"].decoded <= res["GSA"].decoded
        for token, outcome in res.items():
            assert outcome.decoded | outcome.outage == frozenset(range(4)), token


def test_variable_rate_draws_in_range_and_deterministic():
    cfg = SMALL.replace(rate_mode="variable_rate", k_list=(4,))
    r1 = draw_variable_rates(cfg, 5)
    r2 = draw_variable_rates(cfg, 5)
    assert np.array_equal(r1, r2)
    assert np.all((r1 >= cfg.r_g) & (r1 <= cfg.r_max))
    assert not np.array_equal(r1, draw_variable_rates(cfg, 6))


def test_estimate_all_decoded():
    est = OutageEstimate("SSA", k=4, trials=5, decoded_total=20, mult_total=50)
    assert est.p_out == 0.0
    assert est.stderr == 0.0
    assert est.avg_mults == 10.0


def test_estimate_none_decoded():
    est = OutageEstimate("SSA", k=4, trials=5, decoded_total=0, mult_total=50)
    assert est.p_out == 1.0
    assert est.stderr == 0.0


def test_estimate_half_decoded():
    est = OutageEstimate("SSA", k=4, trials=2, decoded_total=4, mult_total=20)
    assert est.p_out == 0.5
    assert est.stderr == pytest.approx(np.sqrt(0.25 / 8.0))


def test_outage_estimate_formula():
    est = OutageEstimate("SSA", k=8, trials=100, decoded_total=600, mult_total=1000)
    assert est.p_out == pytest.approx(1.0 - 600 / 800)
    assert est.stderr == pytest.approx(np.sqrt(est.p_out * (1 - est.p_out) / 800))


def test_sweep_rejects_zero_trials():
    with pytest.raises(ConfigError):
        run_sweep(ScenarioConfig(k_aircraft=4, m_antennas=4, trials=0))


def test_equal_rate_sweep_monotone_in_rate():
    cfg = ScenarioConfig(
        k_aircraft=6,
        m_antennas=4,
        trials=25,
        algorithms=("GSA",),
        r_g_list=(0.5, 2.0, 4.0, 8.0, 16.0),
        master_seed=3,
    )
    rows = run_sweep(cfg)
    assert [row.r_g for row in rows] == [0.5, 2.0, 4.0, 8.0, 16.0]
    p = [row.estimate.p_out for row in rows]
    assert p == sorted(p)
    assert all(row.estimate.trials == 25 for row in rows)


def test_variable_rate_sweep_rows_and_k_grid():
    cfg = ScenarioConfig(
        k_aircraft=4,
        m_antennas=4,
        trials=10,
        rate_mode="variable_rate",
        k_list=(2, 4),
        r_g=1.0,
        r_max=3.0,
        algorithms=("SSA", "GSA"),
        master_seed=5,
    )
    rows = run_sweep(cfg)
    assert {(row.algorithm, row.k) for row in rows} == {
        ("SSA", 2),
        ("SSA", 4),
        ("GSA", 2),
        ("GSA", 4),
    }
    for row in rows:
        assert row.rate_mode == "variable_rate"
        assert 0.0 <= row.estimate.p_out <= 1.0


def test_sweep_parallel_matches_serial():
    equal = SMALL.replace(trials=8)
    variable = equal.replace(rate_mode="variable_rate", k_list=(4, 2, 3))
    for cfg in (equal, variable):
        serial = run_sweep(cfg.replace(threads=1))
        for threads in (2, 3):
            assert run_sweep(cfg.replace(threads=threads)) == serial, (cfg.rate_mode, threads)


def test_smaller_k_channel_and_rates_are_prefixes_of_largest():
    # The sweep driver builds one channel per trial at the largest K and
    # evaluates each smaller K on its first columns; this is why that is exact.
    cfg = SMALL.replace(k_aircraft=6, rate_mode="variable_rate", k_list=(6,))
    for idx in range(4):
        h_max = build_trial_channel(cfg, idx).h
        rates_max = draw_variable_rates(cfg, idx)
        for k in range(1, 6):
            cfg_k = cfg.replace(k_aircraft=k)
            assert np.array_equal(build_trial_channel(cfg_k, idx).h, h_max[:, :k]), (idx, k)
            assert np.array_equal(draw_variable_rates(cfg_k, idx), rates_max[:k]), (idx, k)


def test_variable_rate_sweep_sums_per_k_trials():
    cfg = SMALL.replace(rate_mode="variable_rate", k_list=(3, 1, 4), trials=4)
    rows = run_sweep(cfg)
    assert {(row.algorithm, row.k) for row in rows} == {
        (tok, k) for tok in cfg.algorithms for k in cfg.k_list
    }
    per_k = {
        k: [run_trial(cfg.replace(k_aircraft=k), i) for i in range(cfg.trials)] for k in cfg.k_list
    }
    for row in rows:
        outcomes = [res[row.algorithm] for res in per_k[row.k]]
        assert row.r_g == cfg.r_g
        assert row.estimate.decoded_total == sum(o.n_decoded for o in outcomes), row
        assert row.estimate.mult_total == sum(o.mult_count for o in outcomes), row


def _counted(monkeypatch, name):
    """Record the arguments of every call of ``decoders.<name>``."""
    calls = []
    inner = getattr(decoders, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoders, name, counted)
    return calls


def _sums_match_lone_trials(cfg, rows):
    # every point is charged as a lone trial is, the V-BLAST search included
    for row in rows:
        outcomes = [run_trial(cfg, i, row.r_g)[row.algorithm] for i in range(cfg.trials)]
        assert row.estimate.decoded_total == sum(o.n_decoded for o in outcomes), row
        assert row.estimate.mult_total == sum(o.mult_count for o in outcomes), row


def test_equal_rate_sweep_finds_vblast_order_once_per_trial(monkeypatch):
    calls = _counted(monkeypatch, "vblast_order")
    cfg = SMALL.replace(r_g_list=(1.0, 3.0, 5.0, 7.0), trials=4)
    rows = run_sweep(cfg)
    # one stacked call per trial, on the trial's one evaluator, whose walks
    # need one search
    assert len(calls) == cfg.trials
    for (evs,), kwargs in calls:
        assert len(evs) == 1
        assert sum(order is decoders.VBLAST for _, _, order in kwargs["walks"]) == len(cfg.r_g_list)
    _sums_match_lone_trials(cfg, rows)


def test_equal_rate_sweep_walks_each_order_once_per_trial(monkeypatch):
    calls = _counted(monkeypatch, "one_at_a_time")
    starts = helpers.watch_run_starts(monkeypatch)
    cfg = SMALL.replace(algorithms=("SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "GSA"),
                        r_g_list=(1.0, 3.0, 5.0, 7.0), trials=4)
    rows = run_sweep(cfg)
    # one kernel call per trial: each baseline's order walked once per r_G
    # row, and one front per row for SSA and GSA
    assert len(calls) == cfg.trials
    for i, ((evs, walks, _), _) in enumerate(calls):
        h = build_trial_channel(cfg, i).h
        want = {(r_g, order) for r_g in cfg.r_g_list
                for order in (montecarlo._random_order(cfg, i, 4), decoders.cgtr_order(h, np.full(4, r_g)),
                              decoders.VBLAST, decoders.GREEDY)}
        got = [(float(row[0]), order if isinstance(order, str) else tuple(order)) for _, row, order in walks]
        assert sorted(got, key=str) == sorted(want, key=str)
    assert starts == []
    calls.clear()
    _sums_match_lone_trials(cfg, rows)
    # a lone trial is a stack of one point: one problem per baseline and a front
    assert {len(walks) for (_, walks, _), _ in calls} == {4}


def test_equal_rate_sweep_decides_isu_once_per_trial(monkeypatch):
    calls = _counted(monkeypatch, "one_at_a_time")
    cfg = SMALL.replace(algorithms=("ISU",), r_g_list=(1.0, 3.0, 5.0, 7.0), trials=4)
    rows = run_sweep(cfg)
    assert [[float(row[0]) for _, row, order in walks if order == decoders.ISU] for (_, walks, _), _ in calls] \
        == [list(cfg.r_g_list)] * cfg.trials
    _sums_match_lone_trials(cfg, rows)


def test_variable_rate_sweep_stacks_every_k_in_one_call(monkeypatch):
    calls = _counted(monkeypatch, "one_at_a_time")
    cfg = SMALL.replace(rate_mode="variable_rate", k_list=(3, 1, 4, 4), trials=3)
    rows = run_sweep(cfg)
    # one kernel call per trial, over one evaluator per run of equal K
    assert [[ev.k for ev in evs] for (evs, _, _), _ in calls] == [[3, 1, 4]] * cfg.trials
    for row in rows:
        outcomes = [run_trial(cfg.replace(k_aircraft=row.k), i)[row.algorithm] for i in range(cfg.trials)]
        decoded = sum(o.n_decoded for o in outcomes)
        mults = sum(o.mult_count for o in outcomes)
        assert (row.estimate.decoded_total, row.estimate.mult_total) == (decoded, mults), row


def test_sweep_random_orders_match_random_order(monkeypatch):
    seen = []
    run = montecarlo.run_algorithms

    def recording_run_algorithms(ev, h, rates, gamma, algorithms, random_order, eps=0.0):
        seen.append((ev.k, random_order))
        return run(ev, h, rates, gamma, algorithms, random_order, eps)

    monkeypatch.setattr(montecarlo, "run_algorithms", recording_run_algorithms)
    cfg = SMALL.replace(rate_mode="variable_rate", k_list=(2, 4, 3, 1), algorithms=("SIC_RANDOM",))
    for t in range(3):
        seen.clear()
        montecarlo._sweep_trial((cfg, t))
        assert seen == [(k, montecarlo._random_order(cfg, t, k)) for k in cfg.k_list]


def test_fixed_order_rates_outside_the_rows_walk_alone():
    cfg = SMALL.replace(algorithms=("SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST"))
    h = build_trial_channel(cfg, 0).h
    gamma = LinkBudget.from_config(cfg).snr_linear
    order = tuple(range(cfg.k_aircraft))
    ev = RateEvaluator(h, gamma)
    montecarlo._share_baselines(cfg.algorithms, h, [ev], [0, 0], [np.full(4, 2.0), np.full(4, 6.0)], [order])
    # rates, random orders and eps the trial's stack did not run on are run alone
    for rates in (np.full(4, 6.0), np.full(4, 4.0), np.array([2.0, 6.0, 2.0, 6.0])):
        for random_order, eps in ((order, 0.0), (order[::-1], 0.0), (order, 0.05)):
            shared = run_algorithms(ev, h, rates, gamma, cfg.algorithms, random_order, eps)
            alone = run_algorithms(RateEvaluator(h, gamma), h, rates, gamma, cfg.algorithms, random_order, eps)
            assert shared == alone


def test_frozen_reflector_map_shared_across_trials():
    cfg = SMALL.replace(freeze_reflector_map=True)
    _, map_a = build_trial_geometry(cfg, 0)
    _, map_b = build_trial_geometry(cfg, 7)
    assert np.array_equal(map_a.rects, map_b.rects)
    cfg_free = SMALL.replace(freeze_reflector_map=False)
    _, map_c = build_trial_geometry(cfg_free, 0)
    _, map_d = build_trial_geometry(cfg_free, 7)
    assert not np.array_equal(map_c.rects, map_d.rects)


def test_sweep_runs_greedy_sic_once_per_point(monkeypatch):
    calls = _counted(monkeypatch, "one_at_a_time")
    starts = helpers.watch_run_starts(monkeypatch)
    cfg = SMALL.replace(algorithms=("SSA", "LGSA:2", "LGSA:4", "GSA"), r_g_list=(1.0, 4.0, 7.0), trials=3)
    rows = run_sweep(cfg)
    # one kernel call per trial, with one front (prune and greedy SIC) per
    # point; every run continues from its front
    assert len(calls) == cfg.trials
    for (_, walks, _), _ in calls:
        assert [float(row[0]) for _, row, order in walks] == list(cfg.r_g_list)
        assert {order for _, _, order in walks} == {decoders.GREEDY}
    assert starts == []
    _sums_match_lone_trials(cfg, rows)


def test_sweep_trial_derives_its_streams_once():
    cfg = SMALL.replace(rate_mode="variable_rate", k_list=(2, 4, 3), trials=3)
    montecarlo._trial_seeds.cache_clear()
    for t in range(cfg.trials):
        montecarlo._sweep_trial((cfg, t))
    # geometry, rate draw and random order read one derivation per trial
    info = montecarlo._trial_seeds.cache_info()
    assert (info.misses, info.hits) == (cfg.trials, 2 * cfg.trials)


def test_worker_pool_capped_at_trial_count(monkeypatch):
    started = []

    class SerialPool:
        """Stands in for the process pool: records its size, runs each
        submitted trial in-process at once."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    cfg = SMALL.replace(trials=3, threads=16)
    assert run_sweep(cfg) == run_sweep(cfg.replace(threads=1))
    # three processes in all: this one and a pool of two
    assert started == [2]
    # one trial runs serially, with no pool at all
    assert run_sweep(cfg.replace(trials=1)) == run_sweep(cfg.replace(trials=1, threads=1))
    assert started == [2]


REAL_SWEEP_TRIAL = montecarlo._sweep_trial
#: Set by a test before its pool forks: the sweeping process, the file each
#: trial logs its (process, index) to, and role -> (seconds slept, raises?).
#: Only workers forked from this process see them.
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the stand-in trial needs forked workers"
)
SWEEP_PID = None
TRIAL_LOG = None
PLAN = {}


def _planned_trial(args):
    """Stands in for ``_sweep_trial``: logs who runs which trial, then sleeps
    and raises or runs the trial as PLAN says for this process's role."""
    role = "parent" if os.getpid() == SWEEP_PID else "worker"
    with open(TRIAL_LOG, "a", encoding="utf-8") as fh:
        fh.write(f"{role} {os.getpid()} {args[1]}\n")
    sleep_s, fails = PLAN.get(role, (0.0, False))
    time.sleep(sleep_s)
    if fails:
        raise RuntimeError(f"planned failure in trial {args[1]}")
    return REAL_SWEEP_TRIAL(args)


def _plan(monkeypatch, tmp_path, plan):
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "SWEEP_PID", os.getpid())
    monkeypatch.setattr(this, "TRIAL_LOG", str(tmp_path / "trials.log"))
    monkeypatch.setattr(this, "PLAN", plan)
    monkeypatch.setattr(montecarlo, "_sweep_trial", _planned_trial)


def _trials_run(tmp_path):
    """role -> indices of the trials that role started, in start order."""
    runs = {"parent": [], "worker": []}
    for line in (tmp_path / "trials.log").read_text().splitlines():
        role, _, index = line.split()
        runs[role].append(int(index))
    return runs


@forked_workers
def test_workers_run_on_while_the_sweeping_process_runs_a_long_trial(monkeypatch, tmp_path):
    cfg = SMALL.replace(trials=8, threads=2)
    serial = run_sweep(cfg.replace(threads=1))
    _plan(monkeypatch, tmp_path, {"parent": (1.0, False)})
    assert run_sweep(cfg) == serial
    runs = _trials_run(tmp_path)
    assert sorted(runs["parent"] + runs["worker"]) == list(range(8))
    # of the 7 trials besides this process's first, which sleeps 1 s
    assert len(runs["worker"]) >= 6, runs


@forked_workers
@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_failed_trial_raises_and_starts_no_further_trial(monkeypatch, tmp_path, failing):
    other = "parent" if failing == "worker" else "worker"
    _plan(monkeypatch, tmp_path, {failing: (0.0, True), other: (0.5, False)})
    with pytest.raises(RuntimeError, match="planned failure"):
        run_sweep(SMALL.replace(trials=8, threads=2))
    assert multiprocessing.active_children() == []
    # the worker is handed trial 0 and this process takes trial 1; the
    # failure stops both from taking another
    assert _trials_run(tmp_path) == {"worker": [0], "parent": [1]}
