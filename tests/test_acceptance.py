"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them).

The heavy full-scenario batches run once per session and are shared between
criteria; trial counts are desk-scale but large enough that every ordering
and tolerance below has multi-sigma margin.
"""

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import decode_with_order, isu_set
from noma_outage import decoders
from noma_outage.channel import LinkBudget
from noma_outage.cli import main
from noma_outage.config import ScenarioConfig
from noma_outage.montecarlo import build_trial_channel, run_sweep
from noma_outage.rates import RateEvaluator, brute_force_eval_count
from noma_outage.validation import random_instance

GAMMA_DEFAULT = LinkBudget().snr_linear


def _report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:02d}] PASS  {text}")


# ---------------------------------------------------------------------------
# shared full-scenario batch: M = 64, K in {8, 16, 32}, equal rate
# ---------------------------------------------------------------------------

FULL_SCALE_POINTS = ((8, 7.0), (16, 5.0), (32, 4.0))
TRIALS_PER_POINT = 700
FULL_SCALE_TASKS = [(k, r_g, i) for (k, r_g) in FULL_SCALE_POINTS for i in range(TRIALS_PER_POINT)]

#: One line per realization of the batch, "K r_G trial digest", recorded
#: before the specular search moved into the station-aircraft plane.
PINNED_BATCH = Path(__file__).parent / "data" / "full-scale-batch.txt"


def _full_scale_worker(args):
    k, r_g, trial_index = args
    cfg = ScenarioConfig(k_aircraft=k, m_antennas=64, trials=1)
    chan = build_trial_channel(cfg, trial_index)
    gamma = LinkBudget.from_config(cfg).snr_linear
    ev = RateEvaluator(chan.h, gamma)
    r = np.full(k, r_g)
    res_ssa = decoders.ssa(ev, r, gamma)
    order = decoders.vblast_order(ev, gamma)
    vblast = decode_with_order(ev, r, order, gamma)
    res_l2 = decoders.lgsa(ev, r, gamma, 2)
    res_l4 = decoders.lgsa(ev, r, gamma, 4)
    res_gsa = decoders.gsa(ev, r, gamma)
    res_lk = decoders.lgsa(ev, r, gamma, k)
    isu = isu_set(ev, r, gamma)
    return {
        "k": k,
        "ssa": tuple(sorted(res_ssa.decoded)),
        "vblast": tuple(sorted(vblast)),
        "l2": len(res_l2.decoded),
        "l4": len(res_l4.decoded),
        "gsa": tuple(sorted(res_gsa.decoded)),
        "lk": tuple(sorted(res_lk.decoded)),
        "lk_outage": tuple(sorted(res_lk.outage)),
        "gsa_outage": tuple(sorted(res_gsa.outage)),
        "isu": tuple(sorted(isu)),
    }


@pytest.fixture(scope="module")
def full_scale_batch():
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_full_scale_worker, FULL_SCALE_TASKS, chunksize=32))
    return results


def batch_digest(res) -> str:
    """Digest of one realization's outcomes: every decoded and outage set
    and LGSA size, as plain integers."""
    canon = sorted(
        (key, tuple(int(i) for i in v) if isinstance(v, tuple) else int(v)) for key, v in res.items()
    )
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# criteria 1-2: oracle equivalence on random small instances
# ---------------------------------------------------------------------------

def test_criterion_01_gsa_equals_brute_force_max_set():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_101)
    mismatches = 0
    partial = 0
    n = 500
    for _ in range(n):
        h, r, gamma = random_instance(rng)
        got = len(decoders.gsa(h, r, gamma).decoded)
        want = len(decoders.oracle_max_set(h, r, gamma))
        mismatches += got != want
        partial += 0 < want < h.shape[1]
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert partial > 50  # the family genuinely straddles feasibility
    assert elapsed < 60.0
    _report(1, f"GSA = max-set oracle on {n}/{n} instances ({partial} partial) in {elapsed:.1f}s")


def test_criterion_02_ssa_equals_factorial_order_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_202)
    mismatches = 0
    partial = 0
    n = 500
    for _ in range(n):
        h, r, gamma = random_instance(rng)
        got = len(decoders.ssa(h, r, gamma).decoded)
        _, best = decoders.oracle_best_sic(h, r, gamma)
        mismatches += got != len(best)
        partial += 0 < len(best) < h.shape[1]
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert partial > 50
    assert elapsed < 60.0
    _report(2, f"SSA = factorial SIC oracle on {n}/{n} instances ({partial} partial) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 3-4: full-scenario equalities and containment
# ---------------------------------------------------------------------------

def test_criterion_03_equal_rate_vblast_matches_ssa(full_scale_batch):
    assert len(full_scale_batch) >= 2000
    bad = sum(len(res["vblast"]) != len(res["ssa"]) for res in full_scale_batch)
    assert bad == 0
    _report(3, f"V-BLAST decoded-set size = SSA size on {len(full_scale_batch)}/"
               f"{len(full_scale_batch)} equal-rate realizations (K in 8/16/32, M=64)")


def test_criterion_04_containment_chain(full_scale_batch):
    assert len(full_scale_batch) >= 2000
    for res in full_scale_batch:
        assert set(res["isu"]) <= set(res["ssa"])
        assert len(res["ssa"]) <= res["l2"] <= res["l4"] <= len(res["gsa"])
        assert res["lk"] == res["gsa"]
        assert res["lk_outage"] == res["gsa_outage"]
    _report(4, f"ISU in SSA, |SSA| <= |LGSA:2| <= |LGSA:4| <= |GSA|, LGSA:K = GSA on "
               f"{len(full_scale_batch)} realizations")


def test_full_scale_batch_matches_pinned_outcomes(full_scale_batch):
    pinned = [line.split() for line in PINNED_BATCH.read_text().splitlines()]
    assert [(int(k), float(r_g), int(i)) for k, r_g, i, _ in pinned] == FULL_SCALE_TASKS
    differ = [
        f"K={k} r_G={r_g} trial {i}"
        for (k, r_g, i, want), res in zip(pinned, full_scale_batch)
        if batch_digest(res) != want
    ]
    assert not differ, f"{len(differ)} of {len(pinned)} realizations differ: {', '.join(differ)}"
    print(f"[pinned batch] PASS  all {len(pinned)} realizations match their pinned outcomes")


# ---------------------------------------------------------------------------
# criterion 5: brute-force evaluation count closed form
# ---------------------------------------------------------------------------

def test_criterion_05_eval_count_closed_form():
    import math

    for k in range(1, 65):
        direct = sum(math.comb(k, v) * (2**v - 1) for v in range(1, k + 1))
        assert brute_force_eval_count(k) == direct == 3**k - 2**k
    assert brute_force_eval_count(32) == 1_853_015_893_884_545
    assert abs(brute_force_eval_count(32) / 1.8e15 - 1.0) < 0.05
    _report(5, "3^K - 2^K matches direct summation for K=1..64; K=32 -> 1,853,015,893,884,545")


# ---------------------------------------------------------------------------
# criterion 6: log-det chain rule
# ---------------------------------------------------------------------------

def test_criterion_06_sic_chain_rule():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(2, 8))
        h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
        gamma = float(10.0 ** rng.uniform(-1, 2))
        ids = list(rng.permutation(k))
        cut = int(rng.integers(1, k))
        s, s_hat = ids[:cut], tuple(ids[cut:])
        ev = RateEvaluator(h, gamma)
        total = ev.group_rate(s, s_hat)
        step_sum = 0.0
        for u, i_u in enumerate(s):
            step_sum += ev.group_rate((i_u,), tuple(s[u + 1 :]) + s_hat)
        worst = max(worst, abs(step_sum - total) / max(total, 1e-30))
    assert worst < 1e-9
    _report(6, f"per-step SIC rates telescope to the group rate; worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: figure-trend reproduction at desk scale
# ---------------------------------------------------------------------------

def test_criterion_07a_equal_rate_k32_gsa_vs_ssa():
    cfg = ScenarioConfig(
        k_aircraft=32,
        m_antennas=64,
        trials=250,
        algorithms=("SSA", "GSA"),
        r_g_list=tuple(float(r) for r in range(1, 13)),
        master_seed=7,
        threads=2,
    )
    rows = run_sweep(cfg)
    p = {(row.algorithm, row.r_g): row.estimate.p_out for row in rows}
    for r_g in cfg.r_g_list:
        assert p[("GSA", r_g)] <= p[("SSA", r_g)] + 1e-12
    gap4 = p[("SSA", 4.0)] - p[("GSA", 4.0)]
    assert gap4 >= 0.10
    assert abs(p[("SSA", 4.0)] - 0.2019) <= 0.10
    assert abs(p[("GSA", 4.0)] - 0.0128) <= 0.10
    _report(7, "fig-trend (a): GSA <= SSA pointwise for r_G=1..12; at r_G=4 "
               f"SSA={p[('SSA', 4.0)]:.4f} GSA={p[('GSA', 4.0)]:.4f} gap={gap4:.3f}")


def test_criterion_07b_variable_rate_seven_algorithm_ordering():
    cfg = ScenarioConfig(
        k_aircraft=32,
        m_antennas=64,
        trials=500,
        rate_mode="variable_rate",
        r_g=2.0,
        r_max=6.0,
        k_list=(16, 32),
        algorithms=("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "LGSA:2", "LGSA:4", "GSA"),
        master_seed=7,
        threads=2,
    )
    rows = run_sweep(cfg)
    p = {(row.algorithm, row.k): row.estimate.p_out for row in rows}
    chain = ("GSA", "LGSA:4", "LGSA:2", "SSA", "SIC_VBLAST", "SIC_CGTR", "SIC_RANDOM")
    for k in cfg.k_list:
        values = [p[(alg, k)] for alg in chain]
        assert values == sorted(values), f"ordering broken at K={k}: {values}"
    cited = dict(zip(chain, (0.023, 0.030, 0.069, 0.201, 0.241, 0.323, 0.395)))
    for alg, ref in cited.items():
        assert abs(p[(alg, 32)] - ref) <= 0.10, (alg, p[(alg, 32)], ref)
    summary = " ".join(f"{alg}={p[(alg, 32)]:.3f}" for alg in chain)
    _report(7, f"fig-trend (b): variable-rate ordering holds at K=16,32; K=32: {summary}")


# ---------------------------------------------------------------------------
# criterion 8: single-user curve pins the link-budget conventions
# ---------------------------------------------------------------------------

def test_criterion_08_single_user_crossing():
    cfg = ScenarioConfig(
        k_aircraft=1,
        m_antennas=64,
        trials=2000,
        algorithms=("GSA",),
        r_g_list=(8.0, 9.0, 10.0, 11.0, 12.0),
        master_seed=8,
        threads=2,
    )
    rows = run_sweep(cfg)
    p = {row.r_g: row.estimate.p_out for row in rows}
    assert p[8.0] < 0.5
    assert p[12.0] > 0.5
    crossing = next(r for r in (8.0, 9.0, 10.0, 11.0, 12.0) if p[r] >= 0.5)
    assert 8.0 <= crossing <= 12.0
    curve = " ".join(f"{r:.0f}:{p[r]:.3f}" for r in sorted(p))
    _report(8, f"single-user p_out crosses 0.5 at r_G={crossing:.0f} (window [8,12]); {curve}")


# ---------------------------------------------------------------------------
# criterion 9: channel invariants
# ---------------------------------------------------------------------------

def test_criterion_09_channel_invariants():
    cfg = ScenarioConfig(k_aircraft=32, m_antennas=64, trials=1)
    entries = 0
    for trial in range(50):
        chan = build_trial_channel(cfg, trial)
        mag = np.abs(chan.h)
        lo = np.abs(chan.h_los)
        assert np.all(np.abs(chan.rho_v) <= 1.0 + 1e-12)
        assert np.all(mag / lo <= 2.0)
        assert np.all(chan.d_gmp > chan.d_los)
        entries += chan.h.size
    assert entries >= 100_000
    _report(9, f"|rho_v|<=1, |h|/|h_LOS|<=2, d_GMP>d_LOS over {entries} entries")


# ---------------------------------------------------------------------------
# criterion 10: determinism under threading
# ---------------------------------------------------------------------------

def test_criterion_10_sweep_determinism(tmp_path):
    cfg_yaml = tmp_path / "cfg.yaml"
    cfg_yaml.write_text(
        "k_aircraft: 8\nm_antennas: 16\ntrials: 12\nmaster_seed: 99\n"
        "r_g_list: [2.0, 5.0, 8.0]\nalgorithms: [ISU, SIC_VBLAST, SSA, LGSA:2, GSA]\n"
    )
    outputs = []
    for threads in ("1", "2", "2"):
        out = tmp_path / f"out_{threads}_{len(outputs)}.csv"
        assert main(["sweep", "--config", str(cfg_yaml), "--out", str(out),
                     "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "sweep CSV byte-identical across reruns and worker counts")
