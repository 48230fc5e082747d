"""Decoding-set algorithms: greedy SIC search, group decoding extensions,
literature ordering baselines, and small-instance brute-force oracles.

Every algorithm partitions the aircraft {0..K-1} into a decoded set, an
outage set, and (internally) an undetermined set L; at termination L has been
emptied into the outage set, since nothing in it could be decoded by the
strategy under consideration.  Rate-feasibility comparisons use
``r <= R + eps`` with eps = 0 by default; ties have probability zero under
the stochastic channel, and eps exists for synthetic tests and fault
injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from itertools import islice as itertools_islice
from typing import Sequence

import numpy as np

from .rates import LOG2E, MultCounter, RateEvaluator, subset_conditions_hold

ORACLE_MAX_SET_LIMIT = 12
ORACLE_BEST_SIC_LIMIT = 8


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one decoding-set algorithm on one channel realization.

    ``decode_plan`` lists the decoded groups in decode order; replaying it,
    each group satisfies its subset conditions against the union of all later
    groups and the outage set.
    """

    decoded: frozenset
    outage: frozenset
    decode_plan: tuple[tuple[int, ...], ...]
    mult_count: int

    @property
    def n_decoded(self) -> int:
        return len(self.decoded)


def _as_evaluator(h, gamma: float) -> RateEvaluator:
    if isinstance(h, RateEvaluator):
        return h
    return RateEvaluator(h, gamma)


# ---------------------------------------------------------------------------
# Phase functions
# ---------------------------------------------------------------------------

def _prune_aircraft(ev, r, l_set, s_hat, counter, eps) -> None:
    """Move every aircraft that cannot reach its rate even with only the
    outage set interfering.  Full passes until a pass adds nothing; the
    outage set grows during a pass, so one pass can trigger the next."""
    while l_set:
        before = len(s_hat)
        for l in sorted(l_set):
            if r[l] > ev.group_rate((l,), s_hat, counter) + eps:
                l_set.discard(l)
                s_hat.add(l)
        if len(s_hat) == before:
            break


def _greedy_sic(ev, r, l_set, s_star, s_hat, plan, counter, eps) -> None:
    """Decode any aircraft feasible under all currently undecoded signals,
    then rescan: each removal shrinks the remaining constraint sets."""
    while True:
        moved = False
        for l in sorted(l_set):
            t_l = (l_set | s_hat) - {l}
            if r[l] <= ev.group_rate((l,), t_l, counter) + eps:
                l_set.discard(l)
                s_star.add(l)
                plan.append((l,))
                moved = True
                break
        if not moved:
            return


def _prune_subsets(ev, r, l_set, s_hat, counter, eps) -> None:
    """Discard pairs whose sum rate exceeds their joint capacity under the
    outage set: both members are then provably in outage.  After each removal
    the single-aircraft prune is repeated before rescanning pairs."""
    while len(l_set) >= 2:
        moved = False
        for c in combinations(sorted(l_set), 2):
            rate = ev.group_rate(c, s_hat, counter)
            if r[c[0]] + r[c[1]] > rate + eps:
                l_set.difference_update(c)
                s_hat.update(c)
                moved = True
                break
        if not moved:
            break
        _prune_aircraft(ev, r, l_set, s_hat, counter, eps)


_SCAN_CHUNK = 16_384


def _batched_submatrix_log2det(w: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """log2 det(W[C, C]) for a batch of index tuples; W Hermitian positive
    definite, so the determinants are real positive."""
    v = pos.shape[1]
    if v == 1:
        return np.log2(w[pos[:, 0], pos[:, 0]].real)
    if v == 2:
        a = w[pos[:, 0], pos[:, 0]].real
        d = w[pos[:, 1], pos[:, 1]].real
        bc = np.abs(w[pos[:, 0], pos[:, 1]]) ** 2
        return np.log2(a * d - bc)
    sub = w[pos[:, :, None], pos[:, None, :]]
    if v <= 16:
        # det(W[C,C]) = 2^{-R_C} with R_C <= v * max single rate, far from
        # double-precision underflow at these sizes
        return np.log2(np.linalg.det(sub).real)
    _, logabs = np.linalg.slogdet(sub)
    return logabs * LOG2E


def _scan_groups_of_size(ev, r, l_set, s_hat, v, counter, eps):
    """First group of size v in the candidate scan whose every subset
    sum-rate fits under the residual interference, or None.

    The binding full-group condition is evaluated for whole combination
    batches through the cached whitened inverse (Schur identity); survivors
    get the remaining subset checks one by one, preserving the scan order
    and the per-candidate evaluation accounting.
    """
    members = sorted(l_set)
    u_ids = tuple(sorted(l_set | s_hat))
    w = ev.whitened_inverse(u_ids)
    lut = np.full(max(u_ids) + 1, -1, dtype=np.int64)
    lut[list(u_ids)] = np.arange(len(u_ids))
    # one conditional-rate evaluation per scanned candidate
    cost_full = ev.m**2 * len(u_ids) + (2 * ev.m**3 if len(u_ids) > v else 0)
    rates = np.asarray(r, dtype=float)

    combo_iter = combinations(members, v)
    while True:
        chunk = list(itertools_islice(combo_iter, _SCAN_CHUNK))
        if not chunk:
            return None
        combos = np.asarray(chunk, dtype=np.int64)
        pos = lut[combos]
        full_rate = -_batched_submatrix_log2det(w, pos)
        sums = rates[combos].sum(axis=1)
        scanned = 0
        for j in np.flatnonzero(sums <= full_rate + eps):
            cand = chunk[j]
            if counter is not None:
                counter.add(cost_full * (int(j) + 1 - scanned))
            scanned = int(j) + 1
            t_c = (l_set | s_hat) - set(cand)
            if subset_conditions_hold(ev, r, cand, t_c, counter, eps, skip_full=True):
                return cand
        if counter is not None:
            counter.add(cost_full * (len(chunk) - scanned))


def _greedy_group(ev, r, l_set, s_star, s_hat, plan, v_max, counter, eps, v=2) -> int:
    """Search decodable groups of growing size from v; after any success drop
    back to singletons, since the shrunken constraint sets may unlock SIC
    moves.  Returns the size it stopped at, where a larger v_max resumes."""
    while v <= min(len(l_set), v_max):
        hit = _scan_groups_of_size(ev, r, l_set, s_hat, v, counter, eps)
        if hit is not None:
            l_set.difference_update(hit)
            s_star.update(hit)
            plan.append(hit)
            v = 1
        else:
            v += 1
    return v


# ---------------------------------------------------------------------------
# Full algorithms
# ---------------------------------------------------------------------------

def successive(ev: RateEvaluator, r, limits: Sequence[int], eps=0.0) -> list[DecodeOutcome]:
    """SSA, LGSA and GSA in one run, one outcome per group-size limit: 0 is
    SSA, v is LGSA:v and K is GSA.  Each limited run is a prefix of the next,
    so every outcome, mult count included, equals a separate run of its limit."""
    rr = np.asarray(r, dtype=float)
    counter = MultCounter()
    l_set, s_star, s_hat, plan = set(range(ev.k)), set(), set(), []
    _prune_aircraft(ev, rr, l_set, s_hat, counter, eps)
    _greedy_sic(ev, rr, l_set, s_star, s_hat, plan, counter, eps)
    by_limit, v = {}, 0
    for limit in sorted(set(limits)):
        if limit >= 1:
            if not v:  # the pair prune runs once, before the first group search
                _prune_subsets(ev, rr, l_set, s_hat, counter, eps)
                v = 2
            v = _greedy_group(ev, rr, l_set, s_star, s_hat, plan, limit, counter, eps, v)
        by_limit[limit] = DecodeOutcome(frozenset(s_star), frozenset(s_hat | l_set), tuple(plan), counter.total)
    return [by_limit[limit] for limit in limits]


def ssa(h, r, gamma, eps=0.0) -> DecodeOutcome:
    """Single successive algorithm: optimal SIC-only decoded set; aircraft no
    SIC order decodes are outage, though ``gsa`` may decode them in groups."""
    return successive(_as_evaluator(h, gamma), r, (0,), eps)[0]


def lgsa(h, r, gamma, v_max, eps=0.0) -> DecodeOutcome:
    """Group successive algorithm with joint groups limited to v_max."""
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    return successive(_as_evaluator(h, gamma), r, (v_max,), eps)[0]


def gsa(h, r, gamma, eps=0.0) -> DecodeOutcome:
    """Group successive algorithm: maximal decodable set with unrestricted
    joint group sizes."""
    ev = _as_evaluator(h, gamma)
    return successive(ev, r, (ev.k,), eps)[0]


# ---------------------------------------------------------------------------
# Fixed-order decoding and ordering baselines
# ---------------------------------------------------------------------------

def decode_with_order(h, r, order: Sequence[int], gamma, counter=None, eps=0.0) -> frozenset:
    """Walk a fixed decoding order; a failed aircraft stays as interference
    for everyone after it (it is never cancelled)."""
    ev = _as_evaluator(h, gamma)
    rr = np.asarray(r, dtype=float)
    order = list(order)
    if sorted(order) != list(range(ev.k)):
        raise ValueError("order must be a permutation of all aircraft")
    decoded: set[int] = set()
    s_hat: set[int] = set()
    for u, i_u in enumerate(order):
        f_u = s_hat | set(order[u + 1 :])
        if rr[i_u] <= ev.group_rate((i_u,), f_u, counter) + eps:
            decoded.add(i_u)
        else:
            s_hat.add(i_u)
    return frozenset(decoded)


def vblast_order(h, r, gamma, counter=None) -> tuple[int, ...]:
    """Highest post-detection SINR first: each step picks the aircraft with
    the largest achievable rate under the not-yet-selected interferers.
    Ties break to the lowest index."""
    ev = _as_evaluator(h, gamma)
    remaining = set(range(ev.k))
    order: list[int] = []
    while remaining:
        best_k = -1
        best_rate = -np.inf
        for k in sorted(remaining):
            rate = ev.group_rate((k,), remaining - {k}, counter)
            if rate > best_rate:
                best_k, best_rate = k, rate
        order.append(best_k)
        remaining.discard(best_k)
    return tuple(order)


def cgtr_order(h, r) -> tuple[int, ...]:
    """Channel-gain-and-transmission-rate ordering: decreasing
    ||h_k||^2 (1 + 1/(2^{r_k} + 1)), ties to the lowest index."""
    hm = np.asarray(h, dtype=complex)
    rr = np.asarray(r, dtype=float)
    gains = np.sum(np.abs(hm) ** 2, axis=0)
    keys = gains * (1.0 + 1.0 / (2.0**rr + 1.0))
    return tuple(sorted(range(hm.shape[1]), key=lambda k: (-keys[k], k)))


def isu_set(h, r, gamma, counter=None, eps=0.0) -> frozenset:
    """Independent single-user decoders: everyone else is noise."""
    ev = _as_evaluator(h, gamma)
    rr = np.asarray(r, dtype=float)
    everyone = set(range(ev.k))
    return frozenset(
        k for k in everyone if rr[k] <= ev.group_rate((k,), everyone - {k}, counter) + eps
    )


# ---------------------------------------------------------------------------
# Brute-force oracles (small instances only)
# ---------------------------------------------------------------------------

def oracle_max_set(h, r, gamma, eps=0.0) -> frozenset:
    """Exhaustive maximal decodable set: scan candidate sets by decreasing
    size (lexicographic within a size) and return the first whose every
    subset sum-rate fits under the complement's interference."""
    ev = _as_evaluator(h, gamma)
    if ev.k > ORACLE_MAX_SET_LIMIT:
        raise ValueError(f"oracle_max_set limited to K <= {ORACLE_MAX_SET_LIMIT}")
    rr = np.asarray(r, dtype=float)
    everyone = frozenset(range(ev.k))
    for size in range(ev.k, 0, -1):
        for cand in combinations(sorted(everyone), size):
            s_hat = everyone - set(cand)
            if subset_conditions_hold(ev, rr, cand, s_hat, None, eps):
                return frozenset(cand)
    return frozenset()


def oracle_best_sic(h, r, gamma, eps=0.0) -> tuple[tuple[int, ...], frozenset]:
    """Exhaustive SIC-order search under stop-at-first-failure semantics:
    the decoded set of an order is its longest feasible prefix.  Returns a
    maximizing order (first found in lexicographic order) and its set."""
    ev = _as_evaluator(h, gamma)
    if ev.k > ORACLE_BEST_SIC_LIMIT:
        raise ValueError(f"oracle_best_sic limited to K <= {ORACLE_BEST_SIC_LIMIT}")
    rr = np.asarray(r, dtype=float)
    best_order: tuple[int, ...] = tuple(range(ev.k))
    best_len = -1
    for perm in permutations(range(ev.k)):
        n = 0
        for u, i_u in enumerate(perm):
            t_u = perm[u + 1 :]
            if rr[i_u] > ev.group_rate((i_u,), t_u, None) + eps:
                break
            n += 1
        if n > best_len:
            best_order, best_len = perm, n
            if best_len == ev.k:
                break
    return best_order, frozenset(best_order[:best_len])
