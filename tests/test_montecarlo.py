import numpy as np
import pytest

from noma_outage import decoders, montecarlo
from noma_outage.config import ConfigError, ScenarioConfig
from noma_outage.montecarlo import (
    OutageEstimate,
    build_trial_channel,
    build_trial_geometry,
    draw_variable_rates,
    run_sweep,
    run_trial,
)

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
        parallel = run_sweep(cfg.replace(threads=2))
        assert serial == parallel, cfg.rate_mode


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


def test_equal_rate_sweep_finds_vblast_order_once_per_trial(monkeypatch):
    calls = []
    vblast_order = decoders.vblast_order

    def counted_vblast_order(*args, **kwargs):
        calls.append(args)
        return vblast_order(*args, **kwargs)

    monkeypatch.setattr(decoders, "vblast_order", counted_vblast_order)
    cfg = SMALL.replace(r_g_list=(1.0, 3.0, 5.0, 7.0), trials=4)
    rows = run_sweep(cfg)
    assert len(calls) == cfg.trials
    # every point is charged the ordering's evaluations, as a lone trial is
    for row in rows:
        outcomes = [run_trial(cfg, i, row.r_g)[row.algorithm] for i in range(cfg.trials)]
        assert row.estimate.decoded_total == sum(o.n_decoded for o in outcomes), row
        assert row.estimate.mult_total == sum(o.mult_count for o in outcomes), row


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
    calls = []
    greedy_group = decoders._greedy_group

    def counted_greedy_group(*args, **kwargs):
        calls.append(args)
        return greedy_group(*args, **kwargs)

    monkeypatch.setattr(decoders, "_greedy_group", counted_greedy_group)
    cfg = SMALL.replace(algorithms=("SSA", "LGSA:2", "LGSA:4", "GSA"), r_g_list=(1.0, 4.0, 7.0), trials=3)
    run_sweep(cfg)
    # greedy SIC is the size-one group scan: v_max = 1, from v = 1
    sic_passes = [args for args in calls if (args[7], args[10]) == (1, 1)]
    assert len(sic_passes) == cfg.trials * len(cfg.r_g_list)


def test_worker_pool_capped_at_trial_count(monkeypatch):
    started = []

    class SerialPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    cfg = SMALL.replace(trials=3, threads=16)
    assert run_sweep(cfg) == run_sweep(cfg.replace(threads=1))
    assert started == [3]
    # one trial runs serially, with no pool at all
    assert run_sweep(cfg.replace(trials=1)) == run_sweep(cfg.replace(trials=1, threads=1))
    assert started == [3]
