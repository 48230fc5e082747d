import itertools
import math

import numpy as np
import pytest

from helpers import direct_group_rate, random_channel, subset_conditions_hold
from noma_outage.channel import LinkBudget
from noma_outage.rates import MultCounter, RateEvaluator, brute_force_eval_count, capacity_tables, whitened_inverses


def group_rate(h, s, t, gamma, counter=None):
    """R_S^T on a fresh evaluator for h."""
    return RateEvaluator(h, gamma).group_rate(s, t, counter)


# ---------------------------------------------------------------------------
# link budget
# ---------------------------------------------------------------------------

def test_snr_unity_when_power_equals_noise():
    assert LinkBudget(tx_power_dbm=-30.0, noise_power_dbm=-30.0).snr_linear == 1.0


def test_snr_default_budget():
    assert LinkBudget().snr_linear == pytest.approx(10.0**14.8, rel=1e-12)
    assert LinkBudget().snr_linear == pytest.approx(6.31e14, rel=0.01)


def test_snr_ten_db_steps():
    base = LinkBudget().snr_linear
    assert LinkBudget(tx_power_dbm=51.0).snr_linear == pytest.approx(10.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# group rates
# ---------------------------------------------------------------------------

def test_empty_decode_set_rate_is_zero():
    h = np.ones((2, 2), dtype=complex)
    counter = MultCounter()
    assert group_rate(h, (), (0, 1), 1.0, counter) == 0.0
    assert counter.total == 0


def test_scalar_shannon_rate():
    h = np.array([[1.0 + 0.0j]])
    assert group_rate(h, (0,), (), 3.0) == pytest.approx(2.0, abs=1e-12)


def test_matches_direct_determinant_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(60):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(2, 7))
        h = random_channel(rng, m, k)
        gamma = float(10.0 ** rng.uniform(-1, 2))
        ids = rng.permutation(k)
        cut = int(rng.integers(1, k))
        s, t = tuple(ids[:cut]), tuple(ids[cut:])
        got = group_rate(h, s, t, gamma)
        want = direct_group_rate(h, s, t, gamma)
        if want > 1e-9:
            worst = max(worst, abs(got - want) / want)
    assert worst < 1e-10


def test_two_user_sinr_expansion():
    rng = np.random.default_rng(5)
    h = random_channel(rng, 2, 2)
    gamma = 2.5
    got = group_rate(h, (0,), (1,), gamma)
    want = direct_group_rate(h, (0,), (1,), gamma)
    assert got == pytest.approx(want, rel=1e-10)


def test_extreme_snr_scale_is_stable():
    # gamma ~ 6e14 against |h|^2 ~ 1e-14, the production operating point
    rng = np.random.default_rng(8)
    h = 1e-7 * random_channel(rng, 4, 3)
    gamma = 10.0**14.8
    got = group_rate(h, (0, 1), (2,), gamma)
    want = direct_group_rate(h, (0, 1), (2,), gamma)
    assert got == pytest.approx(want, rel=1e-9)
    assert got > 0.0


def test_monotone_interference():
    # growing the interference set can only lower the rate
    rng = np.random.default_rng(3)
    for _ in range(40):
        h = random_channel(rng, 4, 6)
        gamma = 5.0
        ev = RateEvaluator(h, gamma)
        s = (0, 1)
        t1 = (2, 3)
        t2 = (2, 3, 4, 5)
        assert ev.group_rate(s, t1) >= ev.group_rate(s, t2) - 1e-12


def test_corner_point_chain_rule():
    # R_{12}^T = R_1^{T u {2}} + R_2^T, exact by construction
    rng = np.random.default_rng(9)
    for _ in range(30):
        h = random_channel(rng, 4, 4)
        ev = RateEvaluator(h, 7.0)
        lhs = ev.group_rate((0, 1), (2, 3))
        rhs = ev.group_rate((0,), (1, 2, 3)) + ev.group_rate((1,), (2, 3))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_counter_increments_match_convention():
    h = random_channel(np.random.default_rng(1), 4, 5)
    ev = RateEvaluator(h, 1.0)
    m = 4
    counter = MultCounter()
    ev.group_rate((0, 1), (), counter)
    assert counter.total == m**2 * 2
    ev.group_rate((0, 1, 2), (3, 4), counter)
    assert counter.total == m**2 * 2 + (m**2 * (3 + 2) + 2 * m**3)
    # counting is per call even when the capacity values are cached
    before = counter.total
    ev.group_rate((0, 1, 2), (3, 4), counter)
    assert counter.total == before + (m**2 * 5 + 2 * m**3)


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MultCounter().add(-1)


def test_disjointness_enforced():
    h = random_channel(np.random.default_rng(2), 2, 3)
    with pytest.raises(ValueError):
        group_rate(h, (0, 1), (1, 2), 1.0)


# ---------------------------------------------------------------------------
# capacity table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 13))
def test_capacity_table_is_capacity_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for m in sorted({max(k // 2, 1), k, 64}):  # M < K is rank-deficient
        ev = RateEvaluator(random_channel(rng, m, k), float(10.0 ** rng.uniform(-1, 3)))
        (table,) = capacity_tables([ev])
        kept = ev._table
        assert table.shape == (2**k,) and np.array_equal(capacity_tables([ev])[0], table)
        assert ev._table is kept  # built once
        for size in range(k + 1):
            for s in itertools.combinations(range(k), size):
                assert table[sum(1 << i for i in s)] == ev.capacity(s), s


@pytest.mark.parametrize("k", range(1, 13))
def test_stacked_capacity_tables_are_capacity_bit_for_bit(k):
    rng = np.random.default_rng(100 + k)
    # one K, any M: M < K is rank-deficient; the third evaluator's row is
    # built alone first, so the stack builds the others around it
    evs = [RateEvaluator(random_channel(rng, m, k), float(10.0 ** rng.uniform(-1, 3)))
           for m in (max(k // 2, 1), k, 64, 3)]
    (alone,) = capacity_tables([evs[2]])
    kept = evs[2]._table
    tables = capacity_tables(evs)
    assert tables.shape == (len(evs), 2**k) and evs[2]._table is kept
    assert np.array_equal(tables[2], alone)
    for ev, table in zip(evs, tables):
        assert np.array_equal(capacity_tables([ev])[0], table)
        for size in range(k + 1):
            for s in itertools.combinations(range(k), size):
                assert table[sum(1 << i for i in s)] == ev.capacity(s), s


def test_batched_whitened_inverses_are_lone_inverses_bit_for_bit():
    # a stack mixing K = 1..12, M < K included, with one inverse cached
    # before: the stack inverts the others around it, one call per K
    rng = np.random.default_rng(7)
    chans = [(random_channel(rng, m, k), float(10.0 ** rng.uniform(-1, 3)))
             for k in range(1, 13) for m in (max(k // 2, 1), k, 64)]
    evs = [RateEvaluator(*chan) for chan in chans]
    alone = evs[5].whitened_inverse(range(evs[5].k))
    got = whitened_inverses(evs)
    assert got[5] is alone
    for ev, chan, inv in zip(evs, chans, got):
        assert inv is ev.whitened_inverse(range(ev.k))
        assert np.array_equal(inv, RateEvaluator(*chan).whitened_inverse(range(ev.k)))


def test_stacked_capacity_tables_need_one_k():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        capacity_tables([RateEvaluator(random_channel(rng, 2, 3), 1.0), RateEvaluator(random_channel(rng, 2, 4), 1.0)])


def test_capacity_table_size_limit():
    with pytest.raises(ValueError):
        capacity_tables([RateEvaluator(random_channel(np.random.default_rng(1), 2, 13), 1.0)])


# ---------------------------------------------------------------------------
# subset conditions
# ---------------------------------------------------------------------------

def test_singleton_subset_condition_is_single_rate_check():
    rng = np.random.default_rng(4)
    h = random_channel(rng, 3, 3)
    gamma = 4.0
    rate = group_rate(h, (1,), (0, 2), gamma)
    r = np.zeros(3)
    ev = RateEvaluator(h, gamma)
    r[1] = rate * 0.999
    assert subset_conditions_hold(ev, r, (1,), (0, 2))
    r[1] = rate * 1.001
    assert not subset_conditions_hold(ev, r, (1,), (0, 2))


def test_zero_rates_always_hold():
    h = random_channel(np.random.default_rng(6), 4, 4)
    assert subset_conditions_hold(RateEvaluator(h, 2.0), np.zeros(4), (0, 1, 2, 3), ())


def test_corner_point_rates_feasible_with_equality():
    # rate pair exactly on the capacity-region corner satisfies the sum
    # constraint with equality
    rng = np.random.default_rng(7)
    h = random_channel(rng, 4, 2)
    gamma = 3.0
    ev = RateEvaluator(h, gamma)
    a = ev.group_rate((0,), ())          # aircraft 0 without interference
    r2 = ev.group_rate((1,), (0,))       # aircraft 1 under 0's interference
    total = ev.group_rate((0, 1), ())
    assert a + r2 == pytest.approx(total, rel=1e-12)
    assert subset_conditions_hold(ev, np.array([a, r2]), (0, 1), ())
    bumped = np.array([a, r2 * (1.0 + 1e-9)])
    assert not subset_conditions_hold(ev, bumped, (0, 1), ())


def test_subset_conditions_count_short_circuit():
    # an infeasible full-group sum is detected in one evaluation
    h = random_channel(np.random.default_rng(10), 2, 4)
    m = 2
    counter = MultCounter()
    huge = np.full(4, 1e6)
    assert not subset_conditions_hold(RateEvaluator(h, 1.0), huge, (0, 1, 2), (3,), counter)
    assert counter.total == m**2 * (3 + 1) + 2 * m**3


# ---------------------------------------------------------------------------
# brute-force evaluation count
# ---------------------------------------------------------------------------

def test_eval_count_small_values():
    assert brute_force_eval_count(1) == 1
    assert brute_force_eval_count(2) == 5


def test_eval_count_closed_form_matches_summation():
    for k in range(1, 65):
        total = sum(math.comb(k, v) * (2**v - 1) for v in range(1, k + 1))
        assert brute_force_eval_count(k) == total


def test_eval_count_k32_matches_reported_magnitude():
    value = brute_force_eval_count(32)
    assert value == 1_853_015_893_884_545
    assert value == pytest.approx(1.8e15, rel=0.05)


def test_eval_count_rejects_bad_k():
    with pytest.raises(ValueError):
        brute_force_eval_count(0)

