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
from itertools import chain, combinations, islice, permutations
from typing import Sequence

import numpy as np

from .rates import LOG2E, MultCounter, RateEvaluator, eval_cost, subset_conditions_hold

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
# Elimination arrays
#
# The decoders read their rates off one K x K array per loop instead of a
# Cholesky per candidate.  With A = I + gG:
#
# - S, the Schur complement of A on the outage set, gives the rate of l against
#   the outage set as log2 S[l, l] and of a pair as log2 det S[{a, b}];
# - W = (A_U)^{-1} gives the rate of a group C against the rest of U as
#   -log2 det W[C, C], and of one aircraft k as -log2 W[k, k].  Every loop on W
#   starts from a copy of the full-set inverse, U = everyone.
#
# Moving l into the outage set and removing k from U are the same pivot step.
# A decision within TIE of its threshold is taken again on the Cholesky rate,
# ``RateEvaluator.group_rate``, so every decision equals the reference one;
# evaluations are charged in closed form, as ``group_rate`` would charge them.
# ---------------------------------------------------------------------------

#: Bits.  The elimination rates differ from the Cholesky rates by at most
#: 6.1e-12 bits over the 2,100 channels of the acceptance batch (K = 8, 16, 32;
#: M = 64) and 7.1e-14 over 2,000 ``random_instance(k_max=7)`` draws, where no
#: decision came within TIE: the fallback is for exact and near ties.
TIE = 1e-7


def _eliminate(a: np.ndarray, p: int) -> None:
    """Pivot p out of a Hermitian array in place; row and column p become 0."""
    a -= a[:, p, None] * (a[p] / a[p, p])
    a[p, :] = 0.0
    a[:, p] = 0.0


def _schur(ev: RateEvaluator, s_hat) -> np.ndarray:
    """I + gG with the outage set eliminated."""
    a = ev.a.copy()
    for p in sorted(s_hat):
        _eliminate(a, p)
    return a


def _decide(need, fast, eps, reference) -> np.ndarray:
    """need <= R + eps for each candidate, R its elimination rate; within TIE
    of the threshold, R is reference(j), the Cholesky rate of candidate j."""
    margin = need - fast - eps
    ok = margin <= 0.0
    for j in (np.abs(margin) <= TIE).nonzero()[0]:
        ok[j] = need[j] <= reference(j) + eps
    return ok


def _charge(ev: RateEvaluator, counter, n: int, s: int, t: int) -> None:
    """n evaluations of a rate of s aircraft against t interferers."""
    if counter is not None:
        counter.add(n * eval_cost(ev.m, s, t))


def _first(want: bool, ev, counter, s: int, t: int, need, fast, eps, reference) -> int | None:
    """Scan position of the first candidate whose ``_decide`` decision is
    ``want``, or None; charges the evaluations a scan stopping there makes."""
    hits = (_decide(need, fast, eps, reference) == want).nonzero()[0]
    _charge(ev, counter, int(hits[0]) + 1 if hits.size else len(need), s, t)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# Phase functions
# ---------------------------------------------------------------------------

def _prune_aircraft(ev, r, l_set, s_hat, counter, eps) -> None:
    """Move every aircraft that cannot reach its rate even with only the
    outage set interfering.  Full passes until a pass adds nothing; the
    outage set grows during a pass, so one pass can trigger the next."""
    a = _schur(ev, s_hat)
    while l_set:
        before = len(s_hat)
        todo = np.asarray(sorted(l_set), dtype=np.intp)
        while todo.size:
            fast = np.log2(a[todo, todo].real)
            j = _first(False, ev, counter, 1, len(s_hat), r[todo], fast, eps,
                       lambda i: ev.group_rate((int(todo[i]),), s_hat))
            if j is None:
                break
            l = int(todo[j])
            l_set.discard(l)
            s_hat.add(l)
            _eliminate(a, l)
            todo = todo[j + 1 :]
        if len(s_hat) == before:
            break


def _prune_subsets(ev, r, l_set, s_hat, counter, eps) -> None:
    """Discard pairs whose sum rate exceeds their joint capacity under the
    outage set: both members are then provably in outage.  After each removal
    the single-aircraft prune is repeated before rescanning pairs."""
    while len(l_set) >= 2:
        a = _schur(ev, s_hat)
        members = np.asarray(sorted(l_set), dtype=np.intp)
        pairs = members[np.column_stack(np.triu_indices(members.size, 1))]  # combinations order
        fast = _batched_submatrix_log2det(a, pairs)
        j = _first(False, ev, counter, 2, len(s_hat), r[pairs[:, 0]] + r[pairs[:, 1]], fast, eps,
                   lambda i: ev.group_rate(pairs[i].tolist(), s_hat))
        if j is None:
            break
        hit = pairs[j].tolist()
        l_set.difference_update(hit)
        s_hat.update(hit)
        _prune_aircraft(ev, r, l_set, s_hat, counter, eps)


_SCAN_CHUNK = 16_384


def _batched_submatrix_log2det(w: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """log2 det(W[C, C]) for a batch of index tuples; W Hermitian positive
    definite (a whitened inverse, or a Schur complement S for the pair prune),
    so the determinants are real positive."""
    v = pos.shape[1]
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


def _scan_groups_of_size(ev, w, r, l_set, s_hat, v, counter, eps):
    """First group of size v in the candidate scan whose every subset
    sum-rate fits under the residual interference, or None.  The full-group
    condition is decided for whole combination batches on W, the inverse of
    I + gG on U = L u S_hat (rate of C against U \\ C: -log2 det W[C, C]);
    survivors get the remaining subset checks one by one, in scan order."""
    u = l_set | s_hat
    t = len(u) - v
    if v == 1:  # a singleton has no subset left to check: the first hit is the group
        cand = np.asarray(sorted(l_set), dtype=np.intp)
        j = _first(True, ev, counter, 1, t, r[cand], -np.log2(w[cand, cand].real), eps,
                   lambda i: ev.group_rate((int(cand[i]),), u - {int(cand[i])}))
        return None if j is None else (int(cand[j]),)
    flat = chain.from_iterable(combinations(sorted(l_set), v))
    while (combos := np.fromiter(islice(flat, _SCAN_CHUNK * v), np.intp).reshape(-1, v)).size:
        ok = _decide(r[combos].sum(axis=1), -_batched_submatrix_log2det(w, combos), eps,
                     lambda j: ev.group_rate(combos[j].tolist(), u.difference(combos[j].tolist())))
        scanned = 0
        for j in ok.nonzero()[0].tolist():
            _charge(ev, counter, j + 1 - scanned, v, t)
            scanned = j + 1
            cand = tuple(combos[j].tolist())
            if subset_conditions_hold(ev, r, cand, u.difference(cand), counter, eps, skip_full=True):
                return cand
        _charge(ev, counter, len(combos) - scanned, v, t)
    return None


def _greedy_group(ev, w, r, l_set, s_star, s_hat, plan, v_max, counter, eps, v) -> int:
    """Search decodable groups of growing size from v on W, the inverse of
    I + gG on L u S_hat; after any success pivot the group out of W and drop
    back to singletons, since the shrunken constraint sets may unlock SIC
    moves.  Greedy SIC is the run from v = 1 with v_max = 1.  Returns the
    size it stopped at, where a larger v_max resumes."""
    while v <= min(len(l_set), v_max):
        hit = _scan_groups_of_size(ev, w, r, l_set, s_hat, v, counter, eps)
        if hit is not None:
            l_set.difference_update(hit)
            s_star.update(hit)
            plan.append(hit)
            for p in hit:
                _eliminate(w, p)
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
    w = ev.whitened_inverse(range(ev.k)).copy()  # U = L u S_hat is everyone until the first decode
    _prune_aircraft(ev, rr, l_set, s_hat, counter, eps)
    _greedy_group(ev, w, rr, l_set, s_star, s_hat, plan, 1, counter, eps, 1)  # greedy SIC
    by_limit, v = {}, 0
    for limit in sorted(set(limits)):
        if limit >= 1:
            if not v:  # the pair prune runs once, before the first group search
                _prune_subsets(ev, rr, l_set, s_hat, counter, eps)
                v = 2
            v = _greedy_group(ev, w, rr, l_set, s_star, s_hat, plan, limit, counter, eps, v)
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
    # everyone not yet decoded interferes; a decoded aircraft leaves W
    w = ev.whitened_inverse(range(ev.k)).copy()
    live = set(range(ev.k))
    rest = np.asarray(order, dtype=np.intp)
    while rest.size:
        fast = -np.log2(w[rest, rest].real)
        j = _first(True, ev, counter, 1, len(live) - 1, rr[rest], fast, eps,
                   lambda i: ev.group_rate((int(rest[i]),), live - {int(rest[i])}))
        if j is None:
            break
        live.discard(int(rest[j]))
        _eliminate(w, int(rest[j]))
        rest = rest[j + 1 :]
    return frozenset(range(ev.k)) - live


def vblast_order(h, gamma, counter=None) -> tuple[int, ...]:
    """Highest post-detection SINR first: each step picks the aircraft with
    the largest achievable rate under the not-yet-selected interferers.
    Ties break to the lowest index.  The order depends only on the channel."""
    ev = _as_evaluator(h, gamma)
    w = ev.whitened_inverse(range(ev.k)).copy()
    remaining = list(range(ev.k))
    order: list[int] = []
    while remaining:
        fast = -np.log2(w[remaining, remaining].real)
        _charge(ev, counter, len(remaining), 1, len(remaining) - 1)
        best = int(np.argmax(fast))
        near = np.flatnonzero(fast >= fast[best] - TIE)
        if near.size > 1:
            rest = set(remaining)
            ref = [ev.group_rate((remaining[j],), rest - {remaining[j]}) for j in near]
            best = int(near[int(np.argmax(ref))])
        order.append(remaining.pop(best))
        _eliminate(w, order[-1])
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
    w = ev.whitened_inverse(everyone)
    ok = _decide(rr, -np.log2(np.diagonal(w).real), eps,
                 lambda i: ev.group_rate((int(i),), everyone - {int(i)}))
    _charge(ev, counter, ev.k, 1, ev.k - 1)
    return frozenset(np.flatnonzero(ok).tolist())


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
