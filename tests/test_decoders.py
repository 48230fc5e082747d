import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import decode_with_order, direct_group_rate, isu_set, random_channel, subset_conditions_hold
from noma_outage import decoders
from noma_outage.decoders import (
    _greedy_group,
    _prune_aircraft,
    _prune_subsets,
    cgtr_order,
    gsa,
    lgsa,
    one_at_a_time,
    oracle_best_sic,
    oracle_max_set,
    ssa,
    vblast_order,
)
from noma_outage.channel import LinkBudget
from noma_outage.cli import PRESETS
from noma_outage.config import ScenarioConfig
from noma_outage.montecarlo import build_trial_channel, draw_variable_rates, run_algorithms
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
    ev = RateEvaluator(h, 2.0)
    _prune_aircraft(ev, ev.a.copy(), r, l_set, s_hat, None, 0.0)
    assert l_set == set(range(4)) and s_hat == set()


def test_prune_removes_unreachable_rates():
    h = random_channel(np.random.default_rng(1), 4, 4)
    r = np.full(4, 1e6)
    l_set, s_hat = set(range(4)), set()
    ev = RateEvaluator(h, 2.0)
    _prune_aircraft(ev, ev.a.copy(), r, l_set, s_hat, None, 0.0)
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
    ev = RateEvaluator(h, gamma)
    _prune_aircraft(ev, ev.a.copy(), r, l_set, s_hat, None, 0.0)
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
    ev = RateEvaluator(h, 1.0)
    _prune_subsets(ev, ev.a.copy(), r, l_set, s_hat, None, 0.0)
    assert l_set == {0, 1, 2} and s_hat == set()


def test_prune_subsets_identical_columns_pair_outage():
    h, gamma = _identical_columns()
    a = direct_group_rate(h, (0,), (), gamma)
    pair = direct_group_rate(h, (0, 1), (), gamma)
    r = np.array([0.9 * a, 0.9 * a])
    assert r.sum() > pair and all(ri <= a for ri in r)
    l_set, s_hat = {0, 1}, set()
    ev = RateEvaluator(h, gamma)
    _prune_subsets(ev, ev.a.copy(), r, l_set, s_hat, None, 0.0)
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
    ev = RateEvaluator(h, gamma)
    _prune_subsets(ev, ev.a.copy(), r, l_set, s_hat, None, 0.0)
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


def _reference(h, gamma, row, order, eps):
    """(aircraft, mults) of one ``one_at_a_time`` problem on the reference
    loops, on a fresh evaluator."""
    fresh = RateEvaluator(h, gamma)
    counter = MultCounter()
    if isinstance(order, str) and order == decoders.ISU:
        return tuple(sorted(helpers.ref_isu_set(fresh, row, counter, eps))), counter.total
    if isinstance(order, str):  # V-BLAST: the search, then a walk of its order
        order = helpers.ref_vblast_order(fresh, counter)
        if row is None:
            return order, counter.total
    done = helpers.ref_decode_with_order(fresh, row, order, counter, eps)
    return tuple(i for i in order if i in done), counter.total


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    n_rows=st.integers(1, 4),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    twin=st.booleans(),
    ties=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7), st.sampled_from([-1, 0, 1])), max_size=4),
)
# every row of every problem an exact tie at the first position
@example(seed=1, ks=[3, 1], n_rows=2, eps=0.0, twin=False, ties=[(i, 0, 0) for i in range(16)])
def test_one_at_a_time_matches_reference_loops(seed, ks, n_rows, eps, twin, ties):
    # a stack of evaluators of several K, each with rows, orders, V-BLAST
    # walks, ISU and a V-BLAST search alone, in a shuffled stack
    rng = np.random.default_rng(seed)
    chans, problems = [], []
    for e, k in enumerate(ks):
        h = random_channel(rng, int(rng.integers(1, 9)), k)
        if twin and k > 1:  # two equal columns: exact ties in the V-BLAST search
            h[:, 1] = h[:, 0]
        gamma = float(10.0 ** rng.uniform(0.0, 1.5))
        chans.append((h, gamma))
        # equal-rate rows and perturbed copies of one variable-rate row
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = rng.uniform(0.02, 1.25, size=k) * single
        levels = np.sort(rng.uniform(0.05, 1.0, size=n_rows)) * single.max()
        perturbed = r * np.where(rng.random((n_rows, k)) < 0.3, rng.uniform(0.7, 1.3, size=(n_rows, k)), 1.0)
        rows = np.where(rng.random((n_rows, 1)) < 0.5, levels[:, None] * np.ones(k), perturbed)
        for row in rows:
            order = tuple(int(i) for i in rng.permutation(k))
            problems += [(e, row, order), (e, row, decoders.VBLAST), (e, row, decoders.ISU)]
        problems.append((e, None, decoders.VBLAST))
    # a rate exactly at, or one ulp either side of, the threshold a position
    # meets when its problem runs alone (ISU: against everyone else)
    for i, p, ulp in ties:
        e, row, order = problems[i % len(problems)]
        if row is None:
            continue
        k = len(row)
        if isinstance(order, str) and order == decoders.ISU:
            x, before = p % k, set()
        else:
            walked = _reference(*chans[e], None, order, eps)[0] if isinstance(order, str) else order
            x = walked[p % k]
            before = set(_reference(*chans[e], row, walked, eps)[0]) & set(walked[: p % k])
        edge = RateEvaluator(*chans[e]).group_rate((x,), set(range(k)) - before - {x}) + eps
        row[x] = edge if ulp == 0 else np.nextafter(edge, ulp * np.inf)
    problems = [problems[i] for i in rng.permutation(len(problems))]
    want = [_reference(*chans[e], row, order, eps) for e, row, order in problems]
    assert one_at_a_time([RateEvaluator(*chan) for chan in chans], problems, eps) == want
    # and each problem alone, a stack of one
    for (e, row, order), got in zip(problems, want):
        assert one_at_a_time([RateEvaluator(*chans[e])], [(0, row, order)], eps) == [got]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    n_rows=st.integers(1, 3),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    ties=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7), st.booleans(), st.sampled_from([-1, 0, 1])),
                  max_size=4),
)
# every row an exact tie at its first aircraft against everyone else
@example(seed=2, ks=[3, 5], n_rows=2, eps=0.0, ties=[(i, 0, True, 0) for i in range(4)])
def test_fronts_match_reference_start(seed, ks, n_rows, eps, ties):
    # PRUNE and GREEDY problems on several rows of evaluators of several K,
    # in a shuffled stack with V-BLAST walks, against the one-row start
    rng = np.random.default_rng(seed)
    chans, rows = [], []
    for e, k in enumerate(ks):
        h = random_channel(rng, int(rng.integers(1, 9)), k)
        gamma = float(10.0 ** rng.uniform(0.0, 1.5))
        chans.append((h, gamma))
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        scale = np.where(rng.random((n_rows, k)) < 0.15, 0.02, rng.uniform(0.25, 1.25, size=(n_rows, k)))
        rows += [(e, row) for row in scale * single]
    # a rate exactly at, or one ulp either side of, the threshold the prune
    # meets first (against nobody) or greedy SIC does (against everyone else)
    for i, x, others, ulp in ties:
        e, row = rows[i % len(rows)]
        k = len(row)
        rest = set(range(k)) - {x % k} if others else ()
        edge = RateEvaluator(*chans[e]).group_rate((x % k,), rest) + eps
        row[x % k] = edge if ulp == 0 else np.nextafter(edge, ulp * np.inf)
    problems = [(e, row, kind) for e, row in rows for kind in (decoders.PRUNE, decoders.GREEDY, decoders.VBLAST)]
    problems = [problems[i] for i in rng.permutation(len(problems))]
    evs = [RateEvaluator(*chan) for chan in chans]
    got = one_at_a_time(evs, problems, eps)
    for (e, row, kind), res in zip(problems, got):
        k = len(row)
        (undetermined, outage, plan, mults), (pruned, pruned_mults), outcomes = helpers.ref_successive(
            RateEvaluator(*chans[e]), row, (0, k, 2, 4), eps)
        if kind == decoders.PRUNE:
            assert len(res[0]) == len(pruned) and set(res[0]) == pruned
            assert res[1] == pruned_mults
        elif kind == decoders.GREEDY:
            assert res.decoded == tuple(i for grp in plan for i in grp)
            assert res.outage == outage
            assert set(range(k)) - set(res.decoded) - res.outage == undetermined
            assert res.mults == mults
            assert (res.w is None) == (len(undetermined) < 2)
            assert decoders.from_front(evs[e], row, res, (0, k, 2, 4), eps) == outcomes
        else:
            assert res == _reference(*chans[e], row, kind, eps)
    # and each front alone, a stack of one
    for e, row in rows:
        k = len(row)
        assert decoders.successive(RateEvaluator(*chans[e]), row, (0, k, 2, 4), eps) \
            == helpers.ref_successive(RateEvaluator(*chans[e]), row, (0, k, 2, 4), eps)[2]


def _tie_at(ev, row, order, p, eps, ulp):
    """Set row's rate at order position p exactly at, or one ulp either side
    of, the threshold that position meets when the row is walked alone."""
    x = order[p]
    before = helpers.ref_decode_with_order(ev, row, order, None, eps) & set(order[:p])
    edge = ev.group_rate((x,), set(range(ev.k)) - before - {x}) + eps
    row[x] = edge if ulp == 0 else np.nextafter(edge, ulp * np.inf)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 15),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    ties=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 6), st.sampled_from([-1, 0, 1])), max_size=4),
)
# every row an exact tie at the first position, against everyone else
@example(seed=1, n_rows=3, eps=0.0, ties=[(0, 0, 0), (1, 0, 0), (2, 0, 0)])
def test_walk_order_matches_reference_row_by_row(seed, n_rows, eps, ties):
    # many rate rows walked in one fixed order on one evaluator
    rng = np.random.default_rng(seed)
    h, r, gamma = random_instance(rng, k_max=7)
    k = h.shape[1]
    order = tuple(int(i) for i in rng.permutation(k))
    # equal-rate rows share decoded prefixes; perturbed copies of r share
    # some and split off where a perturbed rate changes a decision
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    levels = np.sort(rng.uniform(0.05, 1.0, size=n_rows)) * single.max()
    perturbed = r * np.where(rng.random((n_rows, k)) < 0.3, rng.uniform(0.7, 1.3, size=(n_rows, k)), 1.0)
    rows = np.where(rng.random((n_rows, 1)) < 0.5, levels[:, None] * np.ones(k), perturbed)
    ev = RateEvaluator(h, gamma)
    for i, p, ulp in ties:
        _tie_at(ev, rows[i % n_rows], order, p % k, eps, ulp)
    walked = one_at_a_time([RateEvaluator(h, gamma)], [(0, row, order) for row in rows], eps)
    assert len(walked) == n_rows
    for row, (done, mults) in zip(rows, walked):
        counter = MultCounter()
        ref = helpers.ref_decode_with_order(RateEvaluator(h, gamma), row, order, counter, eps)
        assert done == tuple(i for i in order if i in ref)
        assert mults == counter.total
        assert one_at_a_time([RateEvaluator(h, gamma)], [(0, row, order)], eps) == [(done, mults)]


def test_fixed_orders_decode_inside_ssa():
    # SSA's set is the largest any SIC order decodes, whatever the order
    rng = np.random.default_rng(5)
    for trial in range(300):
        h, r, gamma = random_instance(rng, k_max=7)
        k = h.shape[1]
        eps = (0.0, -0.1, 0.05)[trial % 3]
        tokens = ("SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA")
        order = tuple(int(i) for i in rng.permutation(k))
        res = run_algorithms(RateEvaluator(h, gamma), h, r, gamma, tokens, order, eps)
        for token in tokens[:3]:
            assert res[token].decoded <= res["SSA"].decoded, (trial, token)


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


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 40),
    n_gains=st.integers(1, 5),
    n_rates=st.integers(1, 5),
)
def test_cgtr_order_matches_sorted_definition_with_exact_ties(seed, k, n_gains, n_rates):
    # a few distinct columns and rates, so many keys tie exactly
    rng = np.random.default_rng(seed)
    cols = random_channel(rng, 3, n_gains)
    h = cols[:, rng.integers(0, n_gains, size=k)]
    r = rng.uniform(1.0, 5.0, size=n_rates)[rng.integers(0, n_rates, size=k)]
    gains = np.sum(np.abs(h) ** 2, axis=0)
    keys = gains * (1.0 + 1.0 / (2.0**r + 1.0))
    assert cgtr_order(h, r) == tuple(sorted(range(k), key=lambda i: (-keys[i], i)))


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


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 15),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    ties=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 6), st.sampled_from([-1, 0, 1])), max_size=4),
)
def test_isu_rows_match_reference_row_by_row(seed, n_rows, eps, ties):
    # ISU of many rate rows on one evaluator
    rng = np.random.default_rng(seed)
    h, r, gamma = random_instance(rng, k_max=7)
    k = h.shape[1]
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    levels = np.sort(rng.uniform(0.05, 1.0, size=n_rows)) * single.max()
    perturbed = r * rng.uniform(0.7, 1.3, size=(n_rows, k))
    rows = np.where(rng.random((n_rows, 1)) < 0.5, levels[:, None] * np.ones(k), perturbed)
    ev = RateEvaluator(h, gamma)
    # a rate exactly at, or one ulp either side of, its threshold
    for i, x, ulp in ties:
        edge = ev.group_rate((x % k,), set(range(k)) - {x % k}) + eps
        rows[i % n_rows, x % k] = edge if ulp == 0 else np.nextafter(edge, ulp * np.inf)
    stacked = one_at_a_time([RateEvaluator(h, gamma)], [(0, row, decoders.ISU) for row in rows], eps)
    assert len(stacked) == n_rows
    for row, (done, mults) in zip(rows, stacked):
        counter = MultCounter()
        ref = helpers.ref_isu_set(RateEvaluator(h, gamma), row, counter, eps)
        assert done == tuple(sorted(ref))
        assert mults == counter.total
        assert one_at_a_time([RateEvaluator(h, gamma)], [(0, row, decoders.ISU)], eps) == [(done, mults)]


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


@pytest.mark.parametrize("k", [1, 5, 7, 8, 12])
def test_subset_sums_are_row_sums_bit_for_bit(k):
    # from 8 terms on, numpy's pairwise sum groups them by position
    rng = np.random.default_rng(k)
    r = rng.uniform(0.0, 10.0, k) * 10.0 ** rng.uniform(-3, 3, k)
    sums = decoders.subset_sums(r, k)
    for size in range(k + 1):
        for s in itertools.combinations(range(k), size):
            assert sums[sum(1 << i for i in s)] == r[list(s)].sum(), s


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 10),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    ties=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2**10 - 1), st.sampled_from([-1, 0, 1])), max_size=3),
)
def test_oracles_match_reference_loops(seed, k, eps, ties):
    rng = np.random.default_rng(seed)
    h = random_channel(rng, int(rng.choice([1, 2, 4, 8])), k)
    gamma = float(10.0 ** rng.uniform(0.0, 1.5))
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    r = np.where(rng.random(k) < 0.15, 0.02, rng.uniform(0.25, 1.25, size=k)) * single
    ev = RateEvaluator(h, gamma)
    # a group's rate sum exactly at, or one ulp either side of, its capacity
    # threshold against an interference set (a bitmask of the rest)
    for size, mask, ulp in ties:
        group = sorted(rng.permutation(k)[: min(size, k)].tolist())
        rest = {i for i in range(k) if mask >> i & 1} - set(group)
        _put_tie(r, group, ev.group_rate(group, rest) + eps, ulp)
    ref = RateEvaluator(h, gamma)
    assert oracle_max_set(ev, r, gamma, eps) == helpers.ref_oracle_max_set(ref, r, eps)
    if k <= 8:
        assert oracle_best_sic(ev, r, gamma, eps) == helpers.ref_oracle_best_sic(ref, r, eps)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 7),
    n=st.integers(1, 5),
    eps=st.sampled_from([0.0, -0.1, 0.05]),
    ties=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2**7 - 1), st.sampled_from([-1, 0, 1])), max_size=3),
)
def test_stacked_oracles_match_reference_loops(seed, k, n, eps, ties):
    # n instances with one K and any M, decided at once; n = 1 is a stack of one
    rng = np.random.default_rng(seed)
    evs, rows = [], []
    for _ in range(n):
        h = random_channel(rng, int(rng.choice([1, 2, 4, 8])), k)
        gamma = float(10.0 ** rng.uniform(0.0, 1.5))
        single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
        r = np.where(rng.random(k) < 0.15, 0.02, rng.uniform(0.25, 1.25, size=k)) * single
        ev = RateEvaluator(h, gamma)
        # as above: rate sums at, or one ulp either side of, a capacity threshold
        for size, mask, ulp in ties:
            group = sorted(rng.permutation(k)[: min(size, k)].tolist())
            rest = {i for i in range(k) if mask >> i & 1} - set(group)
            _put_tie(r, group, ev.group_rate(group, rest) + eps, ulp)
        evs.append(ev)
        rows.append(r)
    rows = np.array(rows)
    assert oracle_max_set(evs, rows, None, eps) == [helpers.ref_oracle_max_set(ev, r, eps) for ev, r in zip(evs, rows)]
    assert oracle_best_sic(evs, rows, None, eps) == [helpers.ref_oracle_best_sic(ev, r, eps) for ev, r in zip(evs, rows)]


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
    a = ev.a.copy()
    _prune_aircraft(ev, a, r, l_set, s_hat, counter, 0.0)
    w = ev.whitened_inverse(range(4)).copy()
    _greedy_group(ev, w, r, l_set, s_star, s_hat, [], 1, counter, 0.0, 1)
    assert ssa(h, r, 5.0).mult_count == counter.total > 0
    # each outcome carries its own count; a group decoder adds to SSA's phases
    _prune_subsets(ev, a, r, l_set, s_hat, counter, 0.0)
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
        if fast:
            _prune_aircraft(ev, helpers.schur(ev, s_hat), r, l_set, s_hat, counter, eps)
        else:
            helpers.ref_prune_aircraft(ev, r, l_set, s_hat, counter, eps)
    elif loop == "greedy_sic":
        (_greedy_sic if fast else helpers.ref_greedy_sic)(ev, r, l_set, s_star, s_hat, plan, counter, eps)
    elif loop == "greedy_group":  # from size 2, as after the pair prune, with no size limit
        if fast:
            w = ev.whitened_inverse(range(k)).copy()
            _greedy_group(ev, w, r, l_set, s_star, s_hat, plan, k, counter, eps, 2)
        else:
            helpers.ref_greedy_group(ev, r, l_set, s_star, s_hat, plan, k, counter, eps, 2)
    elif loop == "prune_subsets":
        if fast:
            _prune_subsets(ev, helpers.schur(ev, s_hat), r, l_set, s_hat, counter, eps)
        else:
            helpers.ref_prune_subsets(ev, r, l_set, s_hat, counter, eps)
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


@pytest.mark.parametrize("v", [1, 2, 3, 5, 17, 40])
def test_batched_log2det_matches_slogdet(v):
    # 40 aircraft at about 46 bits each: det W[C, C] of the whole set is
    # below 2^-1074 and underflows, its log does not
    rng = np.random.default_rng(v)
    w = RateEvaluator(random_channel(rng, 64, 40), 1e12).whitened_inverse(range(40))
    pos = np.array([np.sort(rng.choice(40, v, replace=False)) for _ in range(50)])
    want = [np.linalg.slogdet(w[np.ix_(c, c)])[1] / np.log(2.0) for c in pos]
    np.testing.assert_allclose(decoders._batched_submatrix_log2det(w, pos), want, rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# polymatroid certificates against brute force
# ---------------------------------------------------------------------------

def _put_tie(r, group, target, ulp):
    """Rates on a group summing to target exactly, or one ulp either side:
    halves down to two equal smallest shares, so the sum in index order is exact."""
    target = target if ulp == 0 else np.nextafter(target, ulp * np.inf)
    n = len(group)
    r[group] = target * np.array([2.0 ** -(n - 1)] + [2.0 ** -(n - j) for j in range(1, n)])


def _state(seed, tie):
    """A random_instance draw (K <= 7) part-way through a decoder run:
    (ev, W, r, L, S_hat), with the decoded aircraft pivoted out of W.

    ``tie`` = (size, side, ulp) puts a rate sum exactly at, or one ulp either
    side of, its threshold (eps included): on the first ``size`` aircraft of
    L, for the full condition against U minus them (side "full") or for the
    subset condition inside L, against S_hat (side "subset")."""
    rng = np.random.default_rng(seed)
    h, r, gamma = random_instance(rng, k_max=7)
    k = h.shape[1]
    ev = RateEvaluator(h, gamma)
    order = rng.permutation(k).tolist()
    n_dec = int(rng.integers(0, k - 1))
    n_out = int(rng.integers(0, k - n_dec - 1))
    decoded, s_hat, l_set = order[:n_dec], set(order[n_dec : n_dec + n_out]), set(order[n_dec + n_out :])
    w = ev.whitened_inverse(range(k)).copy()
    for p in decoded:
        decoders._eliminate(w, p)
    if tie is not None:
        size, side, ulp, eps = tie
        group = sorted(l_set)[: min(size, len(l_set) - (side == "subset"))]
        if group:
            rest = s_hat if side == "subset" else (l_set | s_hat) - set(group)
            _put_tie(r, group, ev.group_rate(group, rest) + eps, ulp)
    return ev, w, r, l_set, s_hat


_TIES = st.none() | st.tuples(st.integers(1, 7), st.sampled_from(["full", "subset"]), st.sampled_from([-1, 0, 1]))
_EPS = st.sampled_from([0.0, -0.1, 0.05])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=_EPS, v=st.integers(1, 4), tie=_TIES)
def test_fruitless_certificate_never_skips_a_passing_group(seed, eps, v, tie):
    ev, w, r, l_set, s_hat = _state(seed, tie and tie + (eps,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoders, "_CERTIFY_ABOVE", 0)
        last = decoders._fruitless_through(w, r, l_set, v, len(l_set), eps)
    assert v - 1 <= last <= max(len(l_set), v - 1)
    u = l_set | s_hat
    for size in range(v, last + 1):
        for c in itertools.combinations(sorted(l_set), size):
            assert r[list(c)].sum() > ev.group_rate(c, u - set(c)) + eps, c


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=_EPS, tie=_TIES)
def test_subset_certificate_matches_brute_force(seed, eps, tie):
    ev, w, r, l_set, s_hat = _state(seed, tie and tie + (eps,))
    u = l_set | s_hat
    for size in range(2, len(l_set) + 1):
        for c in itertools.combinations(sorted(l_set), size):
            t = u - set(c)
            if r[list(c)].sum() > ev.group_rate(c, t) + eps:
                continue  # the scan checks subsets of feasible groups only
            brute = MultCounter()
            want = subset_conditions_hold(ev, r, c, t, brute, eps, skip_full=True)
            # every group tries a certificate first; at the default threshold
            # no group of K <= 7 does, and the subset scan on W decides it,
            # one size at a time or, in chunks of two, a few subsets at a time
            for certify_above, chunk in ((0, decoders._SCAN_CHUNK), (decoders._CERTIFY_ABOVE, decoders._SCAN_CHUNK),
                                         (decoders._CERTIFY_ABOVE, 2)):
                counter = MultCounter()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(decoders, "_CERTIFY_ABOVE", certify_above)
                    mp.setattr(decoders, "_SCAN_CHUNK", chunk)
                    got = decoders._subsets_hold(ev, w, r, c, t, counter, eps)
                assert (got, counter.total) == (want, brute.total), (c, certify_above, chunk)


def test_certificates_fire_on_most_random_states(monkeypatch):
    # the brute-force tests above pass vacuously if nothing is certified
    # the subset scan on W is what a group falls back to without a certificate
    monkeypatch.setattr(decoders, "_CERTIFY_ABOVE", 0)
    fallbacks = []
    scan = decoders._subset_scan

    def counted(*args, **kwargs):
        fallbacks.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(decoders, "_subset_scan", counted)
    fruitless = certified = feasible = 0
    for seed in range(300):
        ev, w, r, l_set, s_hat = _state(seed, None)
        u = l_set | s_hat
        fails = {c: r[list(c)].sum() > ev.group_rate(c, u - set(c))
                 for size in range(1, len(l_set) + 1) for c in itertools.combinations(sorted(l_set), size)}
        if all(fails.values()):
            fruitless += 1
            certified += decoders._fruitless_through(w, r, l_set, 1, len(l_set), 0.0) == len(l_set)
        for c, fail in fails.items():
            t = u - set(c)
            if len(c) > 1 and not fail and subset_conditions_hold(ev, r, c, t, skip_full=True):
                feasible += 1
                assert decoders._subsets_hold(ev, w, r, c, t, None, 0.0)
    assert fruitless > 40 and certified >= 0.9 * fruitless
    assert feasible > 300 and feasible - len(fallbacks) >= 0.9 * feasible


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=_EPS,
    ties=st.lists(st.tuples(st.integers(0, 20), st.sampled_from([-1, 0, 1])), max_size=3),
    chunk=st.sampled_from([1, 2, decoders._SCAN_CHUNK]),
)
def test_pair_scan_matches_reference_loop(seed, eps, ties, chunk):
    # a pair's one-aircraft subset exactly at, or one ulp either side of, its
    # threshold against U minus the pair, with the pair's own condition
    # holding by a margin: pairs whose full check passes, in one chunk or many
    ev, w, r, l_set, s_hat = _state(seed, None)
    pairs = list(itertools.combinations(sorted(l_set), 2))
    u = l_set | s_hat
    for i, ulp in ties:
        if pairs:
            a, b = pairs[i % len(pairs)][:: 1 - 2 * (i % 2)]
            t = u - {a, b}
            r[a] = ev.group_rate((a,), t) + eps
            r[a] = r[a] if ulp == 0 else np.nextafter(r[a], ulp * np.inf)
            r[b] = 0.5 * (ev.group_rate((a, b), t) - ev.group_rate((a,), t))
    counter, brute = MultCounter(), MultCounter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoders, "_SCAN_CHUNK", chunk)
        got = decoders._scan_groups_of_size(ev, w, r, l_set, s_hat, 2, counter, eps)
    want = next((c for c in pairs if subset_conditions_hold(ev, r, c, u - set(c), brute, eps)), None)
    assert (got, counter.total) == (want, brute.total)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=_EPS,
    ties=st.lists(st.tuples(st.integers(1, 7), st.sampled_from(["full", "subset"]), st.sampled_from([-1, 0, 1])), max_size=2),
)
def test_certificates_leave_nested_outcomes_unchanged(seed, eps, ties):
    h, r, gamma = random_instance(np.random.default_rng(seed), k_max=7)
    k = h.shape[1]
    ev = RateEvaluator(h, gamma)
    for size, side, ulp in ties:  # ties on the first aircraft, against the rest or alone
        group = list(range(min(size, k)))
        _put_tie(r, group, ev.group_rate(group, set(range(k)) - set(group) if side == "full" else ()) + eps, ulp)
    limits = (0, 1, 2, 3, 4, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoders, "_CERTIFY_ABOVE", 0)
        certified = decoders.successive(RateEvaluator(h, gamma), r, limits, eps)
        mp.setattr(decoders, "_CERTIFY_ABOVE", float("inf"))
        scanned = decoders.successive(RateEvaluator(h, gamma), r, limits, eps)
    assert certified == scanned


# ---------------------------------------------------------------------------
# group-scan tails, pinned to the outcomes of the full scan
# ---------------------------------------------------------------------------

_VARIABLE_07B = dict(k_aircraft=32, m_antennas=64, rate_mode="variable_rate", r_g=2.0, r_max=6.0,
                     k_list=(16, 32), master_seed=7)


@pytest.mark.parametrize(
    "config, trial, r_g, want",
    [
        # acceptance criterion 07b, trial 364 at K = 32: a 21-aircraft group
        # decodes after sizes 5-20 all fail; 2^21 - 2 subset checks
        (_VARIABLE_07B, 364, None,
         {"SSA": (11, 98897920), "LGSA:2": (11, 228782080), "LGSA:4": (11, 4693155840),
          "GSA": (32, 1370181148672)}),
        # paper-fig4, seed 4, trial 5 at r_G = 8: a fruitless round with |L| = 18
        (dict(PRESETS["paper-fig4"], master_seed=4), 5, 8.0,
         {"SSA": (7, 107372544), "LGSA:2": (9, 374591488), "LGSA:4": (9, 2771881984),
          "GSA": (9, 162403225600)}),
    ],
    ids=["criterion-07b-trial-364", "fig4-seed4-trial5"],
)
def test_group_scan_tail_trials(monkeypatch, config, trial, r_g, want):
    cfg = ScenarioConfig().replace(**config)
    h = build_trial_channel(cfg, trial).h
    gamma = LinkBudget.from_config(cfg).snr_linear
    r = draw_variable_rates(cfg, trial) if r_g is None else np.full(cfg.k_aircraft, r_g)
    work = {"group_rate": 0, "scanned": 0}
    group_rate, batched = RateEvaluator.group_rate, decoders._batched_submatrix_log2det

    def counted_group_rate(ev, *args, **kwargs):
        work["group_rate"] += 1
        return group_rate(ev, *args, **kwargs)

    def counted_batched(w, pos):
        work["scanned"] += len(pos)
        return batched(w, pos)

    monkeypatch.setattr(RateEvaluator, "group_rate", counted_group_rate)
    monkeypatch.setattr(decoders, "_batched_submatrix_log2det", counted_batched)
    res = run_algorithms(RateEvaluator(h, gamma), h, r, gamma, tuple(want), tuple(range(cfg.k_aircraft)))
    assert {tok: (out.n_decoded, out.mult_count) for tok, out in res.items()} == want
    # the full scan made about 2.1M group_rate calls and scanned 2.1M
    # candidates on the first trial, 2 calls and 262,505 on the second
    assert work["group_rate"] <= 100
    assert work["scanned"] <= 10_000
