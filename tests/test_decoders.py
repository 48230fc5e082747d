import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import direct_group_rate, random_channel
from noma_outage import decoders
from noma_outage.decoders import (
    _greedy_group,
    _prune_aircraft,
    _prune_subsets,
    cgtr_order,
    decode_with_order,
    gsa,
    isu_set,
    lgsa,
    oracle_best_sic,
    oracle_max_set,
    ssa,
    vblast_order,
)
from noma_outage.montecarlo import run_algorithms
from noma_outage.rates import MultCounter, RateEvaluator
from noma_outage.validation import random_instance


def _near_far_instance():
    # collinear strong/weak pair: only strong-first SIC decodes both
    h = np.array([[10.0, 1.0], [0.0, 0.0]], dtype=complex)
    r = np.array([5.0, 0.5])
    return h, r, 1.0


def _identical_columns(gain=100.0):
    h = np.array([[np.sqrt(gain)], [0.0]], dtype=complex) @ np.ones((1, 2), dtype=complex)
    return h, 1.0


# ---------------------------------------------------------------------------
# prune aircraft
# ---------------------------------------------------------------------------

def test_prune_keeps_feasible_aircraft():
    h = random_channel(np.random.default_rng(0), 4, 4)
    r = np.full(4, 0.01)
    l_set, s_hat = set(range(4)), set()
    _prune_aircraft(RateEvaluator(h, 2.0), r, l_set, s_hat, None, 0.0)
    assert l_set == set(range(4)) and s_hat == set()


def test_prune_removes_unreachable_rates():
    h = random_channel(np.random.default_rng(1), 4, 4)
    r = np.full(4, 1e6)
    l_set, s_hat = set(range(4)), set()
    _prune_aircraft(RateEvaluator(h, 2.0), r, l_set, s_hat, None, 0.0)
    assert l_set == set() and s_hat == set(range(4))


def test_prune_cascade_reaches_fixpoint():
    # aircraft 2 fails alone; once it joins the outage set, aircraft 1 fails
    # under its interference on the next pass
    gamma = 1.0
    h = np.array(
        [[1.0, 3.0, 3.0], [1.0, 0.0, 0.0]], dtype=complex
    )
    a1 = direct_group_rate(h, (1,), (), gamma)
    r = np.array([0.2, 0.9 * a1, a1 + 1.0])
    r1_under_2 = direct_group_rate(h, (1,), (2,), gamma)
    assert r1_under_2 < r[1] <= a1

    l_set, s_hat = {0, 1, 2}, set()
    _prune_aircraft(RateEvaluator(h, gamma), r, l_set, s_hat, None, 0.0)
    assert s_hat == {1, 2} and l_set == {0}

    # independent fixpoint oracle: exhaustive passes on the direct formula
    l_ref, hat_ref = {0, 1, 2}, set()
    changed = True
    while changed:
        changed = False
        for l in sorted(l_ref):
            if r[l] > direct_group_rate(h, (l,), hat_ref, gamma):
                l_ref.discard(l)
                hat_ref.add(l)
                changed = True
    assert (l_set, s_hat) == (l_ref, hat_ref)


# ---------------------------------------------------------------------------
# greedy SIC
# ---------------------------------------------------------------------------

def _greedy_sic(ev, r, l_set, s_star, s_hat, plan, counter, eps):
    """Greedy SIC as ``successive`` runs it before any decode: the size-one
    group scan on the full-set inverse."""
    w = ev.whitened_inverse(range(ev.k)).copy()
    _greedy_group(ev, w, r, l_set, s_star, s_hat, plan, 1, counter, eps, 1)


def test_greedy_single_feasible_aircraft():
    h = np.array([[1.0]], dtype=complex)
    l_set, s_star = {0}, set()
    _greedy_sic(RateEvaluator(h, 3.0), np.array([1.0]), l_set, s_star, set(), [], None, 0.0)
    assert s_star == {0} and l_set == set()


def test_greedy_orthogonal_columns_order_free():
    h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    r = np.array([0.9, 0.9])
    l_set, s_star = {0, 1}, set()
    _greedy_sic(RateEvaluator(h, 1.0), r, l_set, s_star, set(), [], None, 0.0)
    assert s_star == {0, 1}
    assert l_set == set()


def test_greedy_near_far_matches_order_enumeration():
    h, r, gamma = _near_far_instance()
    l_set, s_star = {0, 1}, set()
    _greedy_sic(RateEvaluator(h, gamma), r, l_set, s_star, set(), [], None, 0.0)
    # factorial oracle under stop-at-failure semantics
    best = 0
    for order in itertools.permutations(range(2)):
        n = 0
        for u, i_u in enumerate(order):
            if r[i_u] > direct_group_rate(h, (i_u,), order[u + 1 :], gamma):
                break
            n += 1
        best = max(best, n)
    assert len(s_star) == best == 2


# ---------------------------------------------------------------------------
# SSA
# ---------------------------------------------------------------------------

def test_ssa_zero_rates_decodes_everyone():
    h = random_channel(np.random.default_rng(2), 4, 5)
    res = ssa(h, np.zeros(5), 1.0)
    assert res.decoded == frozenset(range(5))
    assert res.outage == frozenset()


def test_ssa_unreachable_rates_all_outage():
    h = random_channel(np.random.default_rng(3), 4, 5)
    res = ssa(h, np.full(5, 1e6), 1.0)
    assert res.decoded == frozenset()
    assert res.outage == frozenset(range(5))


def test_ssa_matches_factorial_oracle_on_random_instances():
    rng = np.random.default_rng(4)
    nontrivial = 0
    for _ in range(120):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 9))
        h = random_channel(rng, m, k)
        gamma = float(10.0 ** rng.uniform(0, 1.5))
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = rng.uniform(0.2, 1.2, size=k) * single
        res = ssa(h, r, gamma)
        _, best = oracle_best_sic(h, r, gamma)
        assert len(res.decoded) == len(best)
        if 0 < len(best) < k:
            nontrivial += 1
    assert nontrivial > 10


# ---------------------------------------------------------------------------
# prune subsets / greedy group
# ---------------------------------------------------------------------------

def test_prune_subsets_orthogonal_untouched():
    h = np.eye(3, dtype=complex)
    r = np.full(3, 0.5)
    l_set, s_hat = {0, 1, 2}, set()
    _prune_subsets(RateEvaluator(h, 1.0), r, l_set, s_hat, None, 0.0)
    assert l_set == {0, 1, 2} and s_hat == set()


def test_prune_subsets_identical_columns_pair_outage():
    h, gamma = _identical_columns()
    a = direct_group_rate(h, (0,), (), gamma)
    pair = direct_group_rate(h, (0, 1), (), gamma)
    r = np.array([0.9 * a, 0.9 * a])
    assert r.sum() > pair and all(ri <= a for ri in r)
    l_set, s_hat = {0, 1}, set()
    _prune_subsets(RateEvaluator(h, gamma), r, l_set, s_hat, None, 0.0)
    assert l_set == set() and s_hat == {0, 1}


def test_prune_subsets_cascades_into_single_prune():
    # pruning the identical pair (1, 2) must knock out aircraft 0, which only
    # fit its rate while the pair was still cancellable
    gamma = 1.0
    h = np.array(
        [
            [3.0, 10.0, 10.0],
            [1.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    a_pair = direct_group_rate(h, (1,), (), gamma)
    pair_sum = direct_group_rate(h, (1, 2), (), gamma)
    r1 = r2 = 0.8 * a_pair
    assert r1 + r2 > pair_sum
    r0_low = direct_group_rate(h, (0,), (1, 2), gamma)
    r0 = 1.5 * r0_low
    assert r0 <= direct_group_rate(h, (0,), (), gamma)
    r = np.array([r0, r1, r2])
    l_set, s_hat = {0, 1, 2}, set()
    _prune_subsets(RateEvaluator(h, gamma), r, l_set, s_hat, None, 0.0)
    assert s_hat == {0, 1, 2} and l_set == set()


def test_greedy_group_empty_undetermined_is_noop():
    h = random_channel(np.random.default_rng(5), 2, 3)
    l_set, s_star, s_hat, plan = set(), {0, 1}, {2}, []
    counter = MultCounter()
    ev = RateEvaluator(h, 1.0)
    w = ev.whitened_inverse(range(3)).copy()
    _greedy_group(ev, w, np.ones(3), l_set, s_star, s_hat, plan, 3, counter, 0.0, 1)
    assert (l_set, s_star, s_hat, plan) == (set(), {0, 1}, {2}, [])
    assert counter.total == 0


def test_greedy_group_decodes_interior_dominant_face_pair():
    # rates inside the region but beyond both SIC corners need joint decoding
    h, gamma = _identical_columns()
    a = direct_group_rate(h, (0,), (), gamma)
    corner = direct_group_rate(h, (0,), (1,), gamma)
    pair = direct_group_rate(h, (0, 1), (), gamma)
    r_val = 0.45 * pair
    assert corner < r_val < a and 2 * r_val <= pair
    r = np.array([r_val, r_val])

    res_ssa = ssa(h, r, gamma)
    assert res_ssa.decoded == frozenset()
    res = gsa(h, r, gamma)
    assert res.decoded == frozenset({0, 1})
    assert res.decode_plan == ((0, 1),)

    res_limited = lgsa(h, r, gamma, 1)
    assert res_limited.decoded == frozenset()
    assert res_limited.outage == frozenset({0, 1})


# ---------------------------------------------------------------------------
# GSA / LGSA
# ---------------------------------------------------------------------------

def test_gsa_single_aircraft_equals_ssa():
    h = random_channel(np.random.default_rng(6), 3, 1)
    for r in ([0.5], [1e9]):
        assert gsa(h, r, 1.0).decoded == ssa(h, r, 1.0).decoded


def test_gsa_matches_subset_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    nontrivial = 0
    for _ in range(120):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 9))
        h = random_channel(rng, m, k)
        gamma = float(10.0 ** rng.uniform(0, 1.5))
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = rng.uniform(0.25, 1.25, size=k) * single
        res = gsa(h, r, gamma)
        oracle = oracle_max_set(h, r, gamma)
        assert len(res.decoded) == len(oracle)
        if 0 < len(oracle) < k:
            nontrivial += 1
    assert nontrivial > 10


def test_lgsa_monotone_in_group_limit():
    rng = np.random.default_rng(8)
    for _ in range(40):
        k = 5
        h = random_channel(rng, 3, k)
        gamma = 4.0
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = rng.uniform(0.3, 1.1, size=k) * single
        sizes = [len(lgsa(h, r, gamma, v).decoded) for v in range(1, k + 1)]
        assert sizes == sorted(sizes)
        full = lgsa(h, r, gamma, k)
        ref = gsa(h, r, gamma)
        assert full.decoded == ref.decoded and full.outage == ref.outage


def test_lgsa_rejects_bad_group_limit():
    h = random_channel(np.random.default_rng(9), 2, 2)
    with pytest.raises(ValueError):
        lgsa(h, [0.1, 0.1], 1.0, 0)


# ---------------------------------------------------------------------------
# fixed decoding orders
# ---------------------------------------------------------------------------

def test_decode_with_order_single_aircraft():
    h = np.array([[1.0]], dtype=complex)
    assert decode_with_order(h, [1.5], (0,), 3.0) == frozenset({0})


def test_decode_with_order_replays_ssa_plan():
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = random_channel(rng, 4, 4)
        gamma = 3.0
        r = rng.uniform(0.1, 0.6, size=4) * np.log2(
            1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0)
        )
        res = ssa(h, r, gamma)
        if res.decoded != frozenset(range(4)):
            continue
        order = tuple(i for grp in res.decode_plan for i in grp)
        assert decode_with_order(h, r, order, gamma) == res.decoded


def test_decode_with_order_near_far_is_order_sensitive():
    h, r, gamma = _near_far_instance()
    strong_first = decode_with_order(h, r, (0, 1), gamma)
    weak_first = decode_with_order(h, r, (1, 0), gamma)
    assert strong_first == frozenset({0, 1})
    assert len(weak_first) < 2
    # failed weak aircraft keeps interfering, but the strong one still fits
    assert weak_first == frozenset({0})


def test_decode_with_order_validates_permutation():
    h = random_channel(np.random.default_rng(11), 2, 3)
    with pytest.raises(ValueError):
        decode_with_order(h, np.ones(3), (0, 1), 1.0)


# ---------------------------------------------------------------------------
# V-BLAST
# ---------------------------------------------------------------------------

def test_vblast_identical_columns_ties_break_by_index():
    h, gamma = _identical_columns()
    h3 = np.concatenate([h, h[:, :1]], axis=1)
    assert vblast_order(h3, gamma) == (0, 1, 2)


def test_vblast_equal_rate_matches_ssa_size():
    rng = np.random.default_rng(12)
    for _ in range(60):
        k = int(rng.integers(2, 6))
        h = random_channel(rng, 4, k)
        gamma = float(10.0 ** rng.uniform(0, 1.5))
        r_g = float(
            rng.uniform(0.3, 1.0)
            * np.median(np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0)))
        )
        r = np.full(k, r_g)
        order = vblast_order(h, gamma)
        decoded = decode_with_order(h, r, order, gamma)
        assert len(decoded) == len(ssa(h, r, gamma).decoded)


def test_vblast_suboptimal_for_variable_rates():
    # strongest-SINR-first fails when the strong aircraft carries an
    # ambitious rate that only fits after the weak one is cancelled
    gamma = 1.0
    h = np.array([[2.0, 1.9], [0.0, 0.3]], dtype=complex)
    ev = RateEvaluator(h, gamma)
    a_o = ev.group_rate((0,), ())
    r_o_interf = ev.group_rate((0,), (1,))
    r_p_interf = ev.group_rate((1,), (0,))
    assert r_o_interf > r_p_interf  # V-BLAST will decode aircraft 0 first
    r = np.array([0.5 * (r_o_interf + a_o), 0.9 * r_p_interf])
    assert r_o_interf < r[0] <= a_o

    order = vblast_order(h, gamma)
    assert order == (0, 1)
    decoded = decode_with_order(h, r, order, gamma)
    res = ssa(h, r, gamma)
    assert res.decoded == frozenset({0, 1})
    assert len(decoded) == 1


# ---------------------------------------------------------------------------
# CGTR
# ---------------------------------------------------------------------------

def test_cgtr_equal_rates_sorts_by_gain():
    rng = np.random.default_rng(13)
    h = random_channel(rng, 4, 5)
    gains = np.sum(np.abs(h) ** 2, axis=0)
    order = cgtr_order(h, np.full(5, 3.0))
    assert list(order) == sorted(range(5), key=lambda k: (-gains[k], k))


def test_cgtr_equal_gains_sorts_by_increasing_rate():
    h = np.eye(3, dtype=complex)
    r = np.array([4.0, 1.0, 2.5])
    assert cgtr_order(h, r) == (1, 2, 0)


def test_cgtr_key_values_match_formula():
    rng = np.random.default_rng(14)
    h = random_channel(rng, 3, 4)
    r = rng.uniform(1.0, 5.0, size=4)
    gains = np.sum(np.abs(h) ** 2, axis=0)
    keys = gains * (1.0 + 1.0 / (2.0**r + 1.0))
    order = cgtr_order(h, r)
    assert np.all(np.diff(keys[list(order)]) <= 1e-15)


# ---------------------------------------------------------------------------
# ISU
# ---------------------------------------------------------------------------

def test_isu_single_aircraft_reduces_to_shannon_check():
    h = np.array([[1.0]], dtype=complex)
    assert isu_set(h, [1.9], 3.0) == frozenset({0})
    assert isu_set(h, [2.1], 3.0) == frozenset()


def test_isu_contained_in_ssa_and_matches_direct_check():
    rng = np.random.default_rng(15)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        h = random_channel(rng, 3, k)
        gamma = 5.0
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = rng.uniform(0.2, 1.1, size=k) * single
        isu = isu_set(h, r, gamma)
        ref = {
            j
            for j in range(k)
            if r[j] <= direct_group_rate(h, (j,), tuple(i for i in range(k) if i != j), gamma)
        }
        assert isu == ref
        assert isu <= ssa(h, r, gamma).decoded


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_oracle_max_set_trivial_cases():
    h = random_channel(np.random.default_rng(16), 3, 4)
    assert oracle_max_set(h, np.zeros(4), 1.0) == frozenset(range(4))
    assert oracle_max_set(h, np.full(4, 1e9), 1.0) == frozenset()


def test_oracle_best_sic_two_user_cases():
    h, r, gamma = _near_far_instance()
    order, decoded = oracle_best_sic(h, r, gamma)
    assert len(decoded) == 2
    assert order == (0, 1)
    # reversed order dies at the first step under stop-at-failure semantics
    assert r[1] > direct_group_rate(h, (1,), (0,), gamma)


def test_oracle_size_limits_enforced():
    h = random_channel(np.random.default_rng(17), 2, 13)
    with pytest.raises(ValueError):
        oracle_max_set(h, np.ones(13), 1.0)
    h9 = random_channel(np.random.default_rng(18), 2, 9)
    with pytest.raises(ValueError):
        oracle_best_sic(h9, np.ones(9), 1.0)


# ---------------------------------------------------------------------------
# outcome invariants
# ---------------------------------------------------------------------------

def test_outcomes_partition_and_plan_replay():
    rng = np.random.default_rng(19)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        h = random_channel(rng, 3, k)
        gamma = float(10.0 ** rng.uniform(0, 1.2))
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = rng.uniform(0.3, 1.2, size=k) * single
        for res in (ssa(h, r, gamma), gsa(h, r, gamma), lgsa(h, r, gamma, 2)):
            everyone = frozenset(range(k))
            assert res.decoded | res.outage == everyone
            assert not res.decoded & res.outage
            flattened = [i for grp in res.decode_plan for i in grp]
            assert sorted(flattened) == sorted(res.decoded)
            # replay the plan: each group feasible against later groups + outage
            later = set(res.decoded)
            for grp in res.decode_plan:
                later -= set(grp)
                t_set = tuple(sorted(later | set(res.outage)))
                total = sum(r[i] for i in grp)
                assert total <= direct_group_rate(h, grp, t_set, gamma) + 1e-9


def test_mult_counters_accumulate_per_algorithm():
    h = random_channel(np.random.default_rng(20), 4, 4)
    r = np.full(4, 3.0)  # SSA decodes nobody, GSA three in a group
    ev = RateEvaluator(h, 5.0)
    counter = MultCounter()
    l_set, s_star, s_hat = set(range(4)), set(), set()
    _prune_aircraft(ev, r, l_set, s_hat, counter, 0.0)
    w = ev.whitened_inverse(range(4)).copy()
    _greedy_group(ev, w, r, l_set, s_star, s_hat, [], 1, counter, 0.0, 1)
    assert ssa(h, r, 5.0).mult_count == counter.total > 0
    # each outcome carries its own count; a group decoder adds to SSA's phases
    _prune_subsets(ev, r, l_set, s_hat, counter, 0.0)
    _greedy_group(ev, w, r, l_set, s_star, s_hat, [], 4, counter, 0.0, 2)
    assert ssa(h, r, 5.0).mult_count < gsa(h, r, 5.0).mult_count == counter.total


# ---------------------------------------------------------------------------
# one pass for the nested decoders
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    ties=st.lists(st.integers(0, 6), max_size=3),
)
def test_one_pass_matches_separate_runs(seed, eps, ties):
    h, r, gamma = random_instance(np.random.default_rng(seed), k_max=7)
    k = h.shape[1]
    # near ties: a rate exactly at, or one ulp either side of, its rate under
    # every other aircraft or alone
    for j, i in enumerate(ties):
        i %= k
        rest = tuple(x for x in range(k) if x != i)
        edge = RateEvaluator(h, gamma).group_rate((i,), rest if j % 2 == 0 else ())
        r[i] = (edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf))[j % 3]
    tokens = ["SSA", "GSA"] + [f"LGSA:{v}" for v in range(1, k + 2)]
    one_pass = run_algorithms(RateEvaluator(h, gamma), h, r, gamma, tokens, tuple(range(k)), eps)
    for token in tokens:
        ev = RateEvaluator(h, gamma)
        if token == "SSA":
            separate = ssa(ev, r, gamma, eps=eps)
        elif token == "GSA":
            separate = gsa(ev, r, gamma, eps=eps)
        else:
            separate = lgsa(ev, r, gamma, int(token[5:]), eps=eps)
        assert one_pass[token] == separate, token


# ---------------------------------------------------------------------------
# elimination loops against the per-candidate Cholesky loops
# ---------------------------------------------------------------------------

PHASES = ("prune_aircraft", "greedy_sic", "prune_subsets", "greedy_group")
LOOPS = PHASES + ("isu_set", "vblast_order", "decode_with_order")


def _run_loop(loop, fast, h, r, gamma, eps, outage0, order):
    """One loop, elimination version (fast) or reference oracle, on a fresh
    evaluator: everything it returns or mutates, and its mult count."""
    ev = RateEvaluator(h, gamma)
    counter = MultCounter()
    k = h.shape[1]
    l_set, s_star, s_hat, plan = set(range(k)) - outage0, set(), set(outage0), []
    if loop == "prune_aircraft":
        (_prune_aircraft if fast else helpers.ref_prune_aircraft)(ev, r, l_set, s_hat, counter, eps)
    elif loop == "greedy_sic":
        (_greedy_sic if fast else helpers.ref_greedy_sic)(ev, r, l_set, s_star, s_hat, plan, counter, eps)
    elif loop == "greedy_group":  # from size 2, as after the pair prune, with no size limit
        if fast:
            w = ev.whitened_inverse(range(k)).copy()
            _greedy_group(ev, w, r, l_set, s_star, s_hat, plan, k, counter, eps, 2)
        else:
            helpers.ref_greedy_group(ev, r, l_set, s_star, s_hat, plan, k, counter, eps, 2)
    elif loop == "prune_subsets":
        (_prune_subsets if fast else helpers.ref_prune_subsets)(ev, r, l_set, s_hat, counter, eps)
    elif loop == "isu_set":
        s_star = isu_set(ev, r, gamma, counter, eps) if fast else helpers.ref_isu_set(ev, r, counter, eps)
    elif loop == "vblast_order":
        plan = vblast_order(ev, gamma, counter) if fast else helpers.ref_vblast_order(ev, counter)
    else:
        s_star = (decode_with_order(ev, r, order, gamma, counter, eps) if fast
                  else helpers.ref_decode_with_order(ev, r, order, counter, eps))
    return l_set, set(s_star), s_hat, list(plan), counter.total


@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    k=st.integers(2, 7),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    outage_mask=st.integers(0, 2**7 - 1),
    twin=st.booleans(),
    ties=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from(["outage", "others", "pair", "group"]), st.sampled_from([-1, 0, 1])),
        max_size=4,
    ),
)
# a three-aircraft group one ulp under its full rate, reached with U = everyone
@example(seed=0, m=1, k=4, eps=0.0, outage_mask=0, twin=False, ties=[(0, "group", -1)])
def test_elimination_loop_matches_cholesky_loop(loop, seed, m, k, eps, outage_mask, twin, ties):
    rng = np.random.default_rng(seed)
    h = random_channel(rng, m, k)  # rank-deficient whenever m < k
    if twin:  # two equal columns: exact ties between their rates
        h[:, 1] = h[:, 0]
    gamma = float(10.0 ** rng.uniform(0.0, 1.5))
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    r = rng.uniform(0.02, 1.25, size=k) * single
    # the phase functions also start from a nonempty outage set
    outage0 = {i for i in range(k) if outage_mask >> i & 1} if loop in PHASES else set()
    if len(outage0) == k:
        outage0.discard(0)
    ev = RateEvaluator(h, gamma)
    # set rates exactly at, or one ulp either side of, a Cholesky threshold;
    # a pair gets half the threshold each and a group of three a quarter,
    # a quarter and a half, so their sum is exact too; the pair is the first
    # the pair prune scans, the group the first three-aircraft candidate of
    # the group scan, at its full rate against everyone else
    live = sorted(set(range(k)) - outage0)
    for i, kind, ulp in ties:
        size = {"pair": 2, "group": 3}.get(kind, 1)
        if len(live) < size:
            continue
        group = tuple(live[:size]) if size > 1 else (i % k,)
        rest = set(range(k)) - set(group) if kind in ("others", "group") else outage0 - set(group)
        target = ev.group_rate(group, rest) + eps
        target = target if ulp == 0 else np.nextafter(target, ulp * np.inf)
        r[list(group)] = target * np.array({1: [1.0], 2: [0.5, 0.5], 3: [0.25, 0.25, 0.5]}[size])
    order = tuple(int(i) for i in rng.permutation(k))
    fast = _run_loop(loop, True, h, r, gamma, eps, outage0, order)
    assert fast == _run_loop(loop, False, h, r, gamma, eps, outage0, order)
