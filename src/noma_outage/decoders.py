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
from functools import cache
from itertools import chain, combinations, compress, islice, permutations
from math import comb
from typing import Sequence

import numpy as np

from .rates import (TABLE_LIMIT, MultCounter, RateEvaluator, capacity_tables, eval_cost, subsets_of_size,
                    whitened_inverses)

ORACLE_MAX_SET_LIMIT = TABLE_LIMIT
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
#   starts from the full-set inverse, U = everyone.
#
# Moving l into the outage set and removing k from U are the same pivot step.
# The one-at-a-time loops (``one_at_a_time``: ISU, V-BLAST, fixed-order SIC
# and the nested decoders' prune and greedy SIC) factor A or W, one column
# per pivot; the group loops that continue a nested run pivot the arrays the
# factors leave (``Front``) in place.
# A decision within TIE of its threshold is taken again on the Cholesky rate,
# ``RateEvaluator.group_rate``, so every decision equals the reference one;
# evaluations are charged in closed form, as ``group_rate`` would charge them.
# ---------------------------------------------------------------------------

#: Bits.  The elimination rates differ from the Cholesky rates by at most
#: 2.5e-11 bits over the 2,100 channels of the acceptance batch (K = 8, 16, 32;
#: M = 64; 1.77M sampled candidates) and 7.6e-14 over 2,000 ``random_instance``
#: draws (K <= 7), where no decision came within TIE: the fallback is for ties.
TIE = 1e-7


def _eliminate(a: np.ndarray, p: int) -> None:
    """Pivot p out of a Hermitian array in place; row and column p become 0."""
    a -= a[:, p, None] * (a[p] / a[p, p])
    a[p, :] = 0.0
    a[:, p] = 0.0


def _decide(need, fast, eps, reference) -> np.ndarray:
    """need <= R + eps for each candidate, R its elimination rate; within TIE
    of the threshold, R is reference(j), the Cholesky rate of candidate j.
    ``need`` may stack rows of candidates over ``fast``; j is then the index
    into the flattened stack."""
    margin = need - fast - eps
    ok = margin <= 0.0
    for j in (np.abs(margin) <= TIE).ravel().nonzero()[0]:
        ok.flat[j] = need.flat[j] <= reference(j) + eps
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
# Polymatroid certificates
#
# Both exponential loops of the group scan ask whether a rate vector lies in a
# polymatroid, the capacity region of the Gaussian MAC (Tse & Hanly, 1998).
# For a submodular f with f({}) = 0, any x in its base polytope B(f) has
# x(S) <= f(S), so a base with every entry above thr > 0 proves f(S) > thr
# for every nonempty S.  Fujishige's minimum-norm base, which Wolfe's
# algorithm finds, has the largest smallest entry of any base, so it is such
# a base whenever one exists.  A greedy
# vertex of B(f) for a chain order takes one Cholesky factor of W on that
# order.  A certificate only lets the scan skip work whose every outcome it
# proves; without one the scan runs as before.
# ---------------------------------------------------------------------------

#: Candidates a certificate would replace (groups left in a round, or subsets
#: of a feasible group) above which the scan first tries one.  On paper-fig4
#: states (40 trials, master seed 11) a certificate attempt took 0.1-0.4 ms
#: (1.3 ms at most), the batched group scan 2-3 us per candidate and the
#: subset scan on W about 2.4 us per subset from ten aircraft on (20-50 us per
#: subset for groups of two to four, where a call's fixed cost dominates), so
#: a certificate that fails costs at most a fraction of the work it tried to
#: replace; the nested decoders' time per trial (22-25 ms) did not move
#: beyond run-to-run noise between 2^8 and 2^12.
_CERTIFY_ABOVE = 2**10

#: Greedy vertices per certificate attempt before the scan takes over.
_WOLFE_STEPS = 200


def _chain_rates(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rate of p[..., i] against U \\ {p[..., 0..i]}, for W the inverse on U."""
    chol = np.linalg.cholesky(w[p[..., :, None], p[..., None, :]])
    return -2.0 * np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real)


def _min_norm_certificate(vertex, n: int, thr: float) -> bool:
    """True when Wolfe's minimum-norm-point algorithm reaches a base of B(f)
    whose every entry exceeds thr > 0.

    ``vertex(order)`` is the greedy vertex of B(f) for a chain order,
    indexed like ``order``: entry i is f(P_i) - f(P_{i-1}), P_i the first i
    elements.  False as soon as a chain prefix has f(P_i) <= thr, which rules
    such a base out, when the minimum-norm base has an entry at or below thr,
    and when the steps run out or a factor fails."""

    def base(order):
        try:
            gain = vertex(order)
        except np.linalg.LinAlgError:
            return None
        if np.cumsum(gain).min() <= thr:
            return None
        x = np.empty(n)
        x[order] = gain
        return x

    x = base(np.arange(n))
    if x is None:
        return False
    pts, lam = x[None, :], np.ones(1)
    for _ in range(_WOLFE_STEPS):
        if x.min() > thr:
            return True
        q = base(np.argsort(x, kind="stable"))  # the vertex minimizing <x, q>
        if q is None or x @ (x - q) <= 1e-12 * (x @ x):
            return False
        pts, lam = np.vstack([pts, q]), np.append(lam, 0.0)
        while True:  # minor cycle: toward the affine minimizer, inside the hull
            try:  # min |alpha @ pts| over sum(alpha) = 1
                alpha = np.linalg.solve(pts @ pts.T + 1.0, np.ones(len(pts)))
            except np.linalg.LinAlgError:
                return False
            alpha /= alpha.sum()
            if alpha.min() > 0.0:
                lam = alpha
                break
            out = (alpha <= 0.0).nonzero()[0]
            if not lam[out].all():  # no step inside the hull: numerically stuck
                return False
            ratio = lam[out] / (lam[out] - alpha[out])
            lam = lam + ratio.min() * (alpha - lam)
            lam[out[np.argmin(ratio)]] = 0.0
            keep = lam > 0.0
            pts, lam = pts[keep], lam[keep] / lam[keep].sum()
        x = lam @ pts
    return False


# ---------------------------------------------------------------------------
# Phase functions
# ---------------------------------------------------------------------------

def _prune_aircraft(ev, a, r, l_set, s_hat, counter, eps) -> None:
    """Move every aircraft that cannot reach its rate even with only the
    outage set interfering.  Full passes until a pass adds nothing; the
    outage set grows during a pass, so one pass can trigger the next.
    ``a`` is I + gG with the outage set eliminated; each aircraft moved into
    the outage set is pivoted out of it in place."""
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


def _prune_subsets(ev, a, r, l_set, s_hat, counter, eps) -> None:
    """Discard pairs whose sum rate exceeds their joint capacity under the
    outage set: both members are then provably in outage.  After each removal
    the single-aircraft prune is repeated before rescanning pairs.  ``a`` is
    as for ``_prune_aircraft``."""
    while len(l_set) >= 2:
        members = np.asarray(sorted(l_set), dtype=np.intp)
        pairs = members[subsets_of_size(members.size, 2)[0]]
        fast = _batched_submatrix_log2det(a, pairs)
        j = _first(False, ev, counter, 2, len(s_hat), r[pairs[:, 0]] + r[pairs[:, 1]], fast, eps,
                   lambda i: ev.group_rate(pairs[i].tolist(), s_hat))
        if j is None:
            break
        hit = pairs[j].tolist()
        l_set.difference_update(hit)
        s_hat.update(hit)
        for p in hit:
            _eliminate(a, p)
        _prune_aircraft(ev, a, r, l_set, s_hat, counter, eps)


_SCAN_CHUNK = 16_384


def _batched_submatrix_log2det(w: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """log2 det(W[C, C]) for a batch of index tuples; W Hermitian positive
    definite (a whitened inverse, or a Schur complement S for the pair prune).
    Above pairs: minus C's chain rates, which cannot underflow as a det can, on
    W's Hermitian part, since pivot steps leave W's triangles apart by rounding."""
    if pos.shape[1] == 1:
        return np.log2(w[pos[:, 0], pos[:, 0]].real)
    if pos.shape[1] == 2:
        a = w[pos[:, 0], pos[:, 0]].real
        d = w[pos[:, 1], pos[:, 1]].real
        bc = np.abs(w[pos[:, 0], pos[:, 1]]) ** 2
        return np.log2(a * d - bc)
    return -_chain_rates((w + w.conj().T) / 2.0, pos).sum(axis=1)


def _scan_groups_of_size(ev, w, r, l_set, s_hat, v, counter, eps):
    """First group of size v in the candidate scan whose every subset
    sum-rate fits under the residual interference, or None.  The full-group
    condition is decided for whole combination batches on W, the inverse of
    I + gG on U = L u S_hat (rate of C against U \\ C: -log2 det W[C, C]);
    survivors get the remaining subset checks one by one, in scan order,
    except pairs, whose survivors in a batch are decided together."""
    u = l_set | s_hat
    t = len(u) - v
    if v == 1:  # a singleton has no subset left to check: the first hit is the group
        cand = np.asarray(sorted(l_set), dtype=np.intp)
        j = _first(True, ev, counter, 1, t, r[cand], -np.log2(w[cand, cand].real), eps,
                   lambda i: ev.group_rate((int(cand[i]),), u - {int(cand[i])}))
        return None if j is None else (int(cand[j]),)
    for combos in _group_chunks(sorted(l_set), v):
        ok = _decide(r[combos].sum(axis=1), -_batched_submatrix_log2det(w, combos), eps,
                     lambda j: ev.group_rate(combos[j].tolist(), u.difference(combos[j].tolist())))
        hits, scanned = ok.nonzero()[0], 0
        if v == 2:  # the survivors' proper subsets are single aircraft: decide them together
            if hits.size:
                held = _pair_subsets(ev, w, r, combos[hits], u, eps)
                passed = held.all(axis=1).nonzero()[0]
                stop = int(passed[0]) + 1 if passed.size else len(hits)
                # as ``_subset_scan`` charges each survivor: through its first failing subset
                _charge(ev, counter, stop + int(held[:stop, 0].sum()), 1, t)
                if passed.size:
                    _charge(ev, counter, int(hits[stop - 1]) + 1, v, t)
                    return tuple(combos[hits[stop - 1]].tolist())
        else:
            for j in hits.tolist():
                _charge(ev, counter, j + 1 - scanned, v, t)
                scanned = j + 1
                cand = tuple(combos[j].tolist())
                if _subsets_hold(ev, w, r, cand, u.difference(cand), counter, eps):
                    return cand
        _charge(ev, counter, len(combos) - scanned, v, t)
    return None


def _group_chunks(members, v: int):
    """The groups of v of the members in combinations order, in chunks of
    ``_SCAN_CHUNK``.  Pairs that fit one chunk, as all pairs of up to 181
    aircraft do, are read off the cached ``subsets_of_size``."""
    if v == 2 and comb(len(members), 2) <= _SCAN_CHUNK:
        yield np.asarray(members, dtype=np.intp)[subsets_of_size(len(members), 2)[0]]
        return
    flat = chain.from_iterable(combinations(members, v))
    while (combos := np.fromiter(islice(flat, _SCAN_CHUNK * v), np.intp).reshape(-1, v)).size:
        yield combos


def _pair_subsets(ev, w, r, pairs, u, eps) -> np.ndarray:
    """``_subset_scan``'s decisions on the two single-aircraft subsets of
    each pair C = (a, b) against T = U \\ C, one row per pair: on the same
    Hermitian part of W[C, C], R_a^T = log2 W[b, b] - log2 det W[C, C] and
    R_b^T = log2 W[a, a] - log2 det W[C, C]."""
    wc = w[pairs[:, :, None], pairs[:, None, :]]
    wc = (wc + wc.conj().transpose(0, 2, 1)) / 2.0
    diag = wc[:, [0, 1], [0, 1]].real
    full = np.log2(diag[:, 0] * diag[:, 1] - np.abs(wc[:, 0, 1]) ** 2)
    return _decide(r[pairs], np.log2(diag[:, ::-1]) - full[:, None], eps,
                   lambda j: ev.group_rate((int(pairs.flat[j]),), u.difference(pairs[j // 2].tolist())))


def _subsets_hold(ev, w, r, cand, t, counter, eps) -> bool:
    """The proper-subset conditions of a group whose full condition holds
    against T = U \\ C.  With F(S) = R_S^T - r_S, a base of F's polytope with
    every entry above max(-eps, 0) + TIE proves them all, and the subset
    evaluations are charged in closed form; otherwise ``_subset_scan``
    checks them.  Both read W[C, C]'s Hermitian part."""
    v = len(cand)
    c = np.asarray(cand, dtype=np.intp)
    wc = w[c[:, None], c]
    wc = (wc + wc.conj().T) / 2.0
    if 2**v - 2 > _CERTIFY_ABOVE:

        def vertex(order):  # decoded in reverse chain order: rate of pi_i against T u P_{i-1}
            return _chain_rates(wc, order[::-1])[::-1] - r[c[order]]

        if _min_norm_certificate(vertex, v, max(-eps, 0.0) + TIE):
            for s in range(1, v):
                _charge(ev, counter, comb(v, s), s, len(t))
            return True
    return _subset_scan(ev, wc, r, c, t, counter, eps)


def _subset_scan(ev, wc, r, c, t, counter, eps) -> bool:
    """Every proper subset S of C checked against T = U \\ C, largest first
    and in combinations order within a size, on wc = W[C, C]:
    R_S^T = log2 det W[C \\ S] - log2 det W[C].  Stops at the first chunk
    with a failing subset and charges the evaluations a one-by-one scan
    makes through it."""
    v = len(c)
    full = _batched_submatrix_log2det(wc, np.arange(v)[None, :])[0]
    for s in range(v - 1, 0, -1):
        scanned = 0
        for pos, rest in _position_chunks(v, s):
            sub = c[pos]
            ok = _decide(r[sub].sum(axis=1), _batched_submatrix_log2det(wc, rest) - full, eps,
                         lambda j: ev.group_rate(sub[j].tolist(), t))
            if not ok.all():
                _charge(ev, counter, scanned + int(np.argmin(ok)) + 1, s, len(t))
                return False
            scanned += len(pos)
        _charge(ev, counter, scanned, s, len(t))
    return True


def _position_chunks(v: int, s: int):
    """The subsets of s of v positions in combinations order, in chunks of
    ``_SCAN_CHUNK``, each with the complements of its rows.  The complements
    of a size in combinations order are those of the other size in reverse,
    so a size that fits one chunk is read off ``subsets_of_size``."""
    if comb(v, s) <= _SCAN_CHUNK:
        yield subsets_of_size(v, s)[0], subsets_of_size(v, v - s)[0][::-1]
        return
    flat = chain.from_iterable(combinations(range(v), s))
    while (pos := np.fromiter(islice(flat, _SCAN_CHUNK * s), np.intp).reshape(-1, s)).size:
        rest = np.ones((len(pos), v), dtype=bool)
        rest[np.arange(len(pos))[:, None], pos] = False
        yield pos, rest.nonzero()[1].reshape(len(pos), v - s)


def _fruitless_through(w, r, l_set, v, top, eps) -> int:
    """Largest size s <= top such that a certificate shows that no group of L
    of size v..s passes its full condition, or v - 1.

    With g(C) = r_C - R_C^{U \\ C}, a base of g's polytope with every entry
    above max(eps, 0) + TIE bounds g(C) above eps for every nonempty C.  When
    L itself may pass, a base for each L minus one aircraft covers every
    smaller group instead."""
    n = len(l_set)
    if sum(comb(n, s) for s in range(v, top + 1)) <= _CERTIFY_ABOVE:
        return v - 1
    idx = np.asarray(sorted(l_set), dtype=np.intp)
    wl = w[idx[:, None], idx]
    wl = (wl + wl.conj().T) / 2.0
    thr = max(eps, 0.0) + TIE

    def none_pass(ground) -> bool:  # ground: positions in idx
        def vertex(order):  # decoded in chain order: rate of pi_i against U \ P_i
            return r[idx[ground[order]]] - _chain_rates(wl, ground[order])

        return _min_norm_certificate(vertex, len(ground), thr)

    every = np.arange(n)
    if r[idx].sum() + _batched_submatrix_log2det(wl, every[None, :])[0] > thr:
        return top if none_pass(every) else v - 1
    return min(top, n - 1) if all(none_pass(np.delete(every, i)) for i in range(n)) else v - 1


def _greedy_group(ev, w, r, l_set, s_star, s_hat, plan, v_max, counter, eps, v) -> int:
    """Search decodable groups of growing size from v on W, the inverse of
    I + gG on L u S_hat; after any success pivot the group out of W and drop
    back to singletons, since the shrunken constraint sets may unlock SIC
    moves.  Greedy SIC is the run from v = 1 with v_max = 1.  Returns the
    size it stopped at, where a larger v_max resumes.

    At the first size of 3 or more in each state of L, sizes a certificate
    shows fruitless are skipped and charged as the scan would charge them,
    every candidate failing its full check."""
    tried = False
    while v <= (top := min(len(l_set), v_max)):
        if v >= 3 and not tried:
            tried = True
            last = _fruitless_through(w, r, l_set, v, top, eps)
            n, u = len(l_set), len(l_set) + len(s_hat)
            for s in range(v, last + 1):
                _charge(ev, counter, comb(n, s), s, u - s)
            v = last + 1
            continue
        hit = _scan_groups_of_size(ev, w, r, l_set, s_hat, v, counter, eps)
        if hit is not None:
            l_set.difference_update(hit)
            s_star.update(hit)
            plan.append(hit)
            for p in hit:
                _eliminate(w, p)
            v, tried = 1, False
        else:
            v += 1
    return v


# ---------------------------------------------------------------------------
# Full algorithms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Front:
    """The start every nested decoder shares on one rate row: the prune,
    then greedy SIC.  ``decoded`` is in decode order, one plan group each.
    A run continues on ``a``, the Hermitian part of I + gG with the outage
    set eliminated, and ``w``, that of W with the decoded aircraft
    eliminated; both are None when fewer than two aircraft are left
    undetermined, since no group scan can then decode one."""

    decoded: tuple[int, ...]
    outage: frozenset
    mults: int
    a: np.ndarray | None = None
    w: np.ndarray | None = None


def successive(ev: RateEvaluator, r, limits: Sequence[int], eps=0.0) -> list[DecodeOutcome]:
    """SSA, LGSA and GSA in one run, one outcome per group-size limit: 0 is
    SSA, v is LGSA:v and K is GSA.  The front is a stack of one
    (``one_at_a_time``), the rest ``from_front``."""
    (front,) = one_at_a_time([ev], [(0, r, GREEDY)], eps)
    return from_front(ev, r, front, limits, eps)


def from_front(ev: RateEvaluator, r, front: Front, limits: Sequence[int], eps=0.0) -> list[DecodeOutcome]:
    """SSA, LGSA and GSA on (ev, r) from their ``Front``, one outcome per
    group-size limit.  The pair prune runs once, before the first group
    search, and each limited run is a prefix of the next, so every outcome,
    mult count included, equals a separate run of its limit.  With fewer
    than two aircraft undetermined, the front is every limit's outcome."""
    plan = [(x,) for x in front.decoded]
    if front.w is None:
        decoded = frozenset(front.decoded)
        return [DecodeOutcome(decoded, frozenset(range(ev.k)) - decoded, tuple(plan), front.mults)] * len(limits)
    rr = np.asarray(r, dtype=float)
    counter = MultCounter(front.mults)
    s_star, s_hat = set(front.decoded), set(front.outage)
    l_set = set(range(ev.k)) - s_star - s_hat
    a, w = front.a.copy(), front.w.copy()  # a front may be read again, by another token's run
    by_limit, v = {}, 0
    for limit in sorted(set(limits)):
        if limit >= 1:
            if not v:  # the pair prune runs once, before the first group search
                _prune_subsets(ev, a, rr, l_set, s_hat, counter, eps)
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
# One-at-a-time decoders: ISU, V-BLAST, fixed-order SIC and the nested
# decoders' front
# ---------------------------------------------------------------------------

#: The order of a problem that decides every aircraft against all the others.
ISU = "ISU"
#: The order of a problem that walks its evaluator's V-BLAST order.
VBLAST = "V-BLAST"
#: The order of a problem that moves into outage every aircraft that cannot
#: reach its rate against the outage set, in passes until one moves nobody.
PRUNE = "prune"
#: The order of a problem that prunes, then decodes by greedy SIC, the
#: lowest-index aircraft that fits first: the nested decoders' ``Front``.
GREEDY = "greedy SIC"


def _single_costs(m, t):
    """eval_cost(m, 1, t), elementwise."""
    return np.where(t > 0, m * m * (1 + t) + 2 * m**3, m * m)


def _prune(evs, at, a, need, eps):
    """The prune of each rate row need[n] on evs[at[n]], all rows in
    lockstep, on ``a``, the stack of the evaluators' Hermitian parts of
    I + gG.  A row keeps the diagonal s of the Schur complement of its a on
    its outage set and a left-looking factor, one column per aircraft moved,
    as ``one_at_a_time`` keeps them on W; log2 s_l is l's rate against the
    outage set.  Each step takes the first failure at or after the row's
    pointer, and a pass that moves nobody ends the row; each aircraft
    scanned is charged eval_cost(m, 1, |outage set|).  Per row: the
    aircraft moved, in order and padded with -1, the factor and the mults."""
    n, kmax = need.shape
    pos = np.arange(kmax)
    ks = np.array([evs[e].k for e in at], dtype=np.int64)
    ms = np.array([evs[e].m for e in at], dtype=np.int64)
    s = np.where(pos < ks[:, None], np.diagonal(a, axis1=1, axis2=2).real[at], np.inf)
    c = np.zeros((n, kmax, kmax), dtype=complex)
    moved = np.full((n, kmax), -1, dtype=np.intp)
    n_moved, ptr = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    added = np.zeros(n, dtype=bool)
    scans = np.zeros((n, kmax + 1), dtype=np.int64)  # aircraft scanned, by the outage set's size
    live = np.arange(n)
    while live.size:
        scan = (pos >= ptr[live, None]) & np.isfinite(s[live])  # not moved, at or after the pointer

        def reference(j, live=live):
            q = live[j // kmax]
            return evs[at[q]].group_rate((j % kmax,), moved[q, : n_moved[q]].tolist())

        fail = ~_decide(np.where(scan, need[live], -np.inf), np.log2(s[live]), eps, reference)
        has, x = fail.any(axis=1), fail.argmax(axis=1)
        scanned = np.where(has, np.cumsum(scan, axis=1)[np.arange(live.size), x], scan.sum(axis=1))
        scans[live, n_moved[live]] += scanned
        q, x = live[has], x[has]
        col = a[at[q], :, x] - (c[q, None, :, x].conj() @ c[q])[:, 0]
        col /= np.sqrt(s[q, x])[:, None]
        c[q, n_moved[q]] = col
        s[q] -= np.abs(col) ** 2
        s[q, x] = np.inf
        moved[q, n_moved[q]] = x
        n_moved[q] += 1
        ptr[q], added[q] = x + 1, True
        miss = live[~has]
        again = miss[added[miss]]  # the pass moved someone: another pass
        ptr[again], added[again] = 0, False
        live = np.sort(np.concatenate([q, again]))
    return moved, c, (scans * _single_costs(ms[:, None], np.arange(kmax + 1))).sum(axis=1)


def one_at_a_time(evs: Sequence[RateEvaluator], problems, eps=0.0) -> list:
    """ISU, V-BLAST searches, fixed-order SIC walks and the nested decoders'
    fronts on a stack of evaluators of any K, in one loop over positions.

    A problem (e, row, order) is evs[e], a rate row and an order: a
    permutation (SIC in that order, a failed aircraft left interfering),
    ``VBLAST`` (SIC in the order ``vblast_order`` finds on evs[e], or with
    row None the search alone), ``ISU``, ``PRUNE`` or ``GREEDY``.  Per
    problem: the aircraft it decodes (moves into outage, for ``PRUNE``), in
    that order, and the mults of a lone run of it, a V-BLAST walk's search
    included; a ``GREEDY`` problem gets its ``Front``.  A search, walk or
    greedy SIC keeps the diagonal s of the Schur complement of W's Hermitian
    part and a left-looking factor C with one column per pivot: pivoting x
    at step j makes c = (W[:, x] - C[:, :j] C[x, :j]^H) / sqrt(s_x) and
    s -= |c|^2, and -log2 s_x is x's rate against everyone not pivoted out.
    ``PRUNE`` and ``GREEDY`` problems are all pruned first, together
    (``_prune``).  Each decision goes through ``_decide``; each aircraft
    tried against t others is charged eval_cost(m, 1, t), in closed form."""
    out: list = [None] * len(problems)
    kmax = max((ev.k for ev in evs), default=0)
    ks, ms = np.array([ev.k for ev in evs], dtype=np.int64), np.array([ev.m for ev in evs], dtype=np.int64)
    w = np.zeros((len(evs), kmax, kmax), dtype=complex)
    for e, (ev, inv) in enumerate(zip(evs, whitened_inverses(evs))):
        w[e, : ev.k, : ev.k] = inv
    w = (w + w.conj().transpose(0, 2, 1)) / 2.0
    s0 = np.where(np.arange(kmax) < ks[:, None], np.diagonal(w, axis1=1, axis2=2).real, np.inf)
    need = np.zeros((len(problems), kmax))  # each problem's rates, zero past its K
    for i, (e, row, _) in enumerate(problems):
        need[i, : evs[e].k] = 0.0 if row is None else row

    kinds = [order if isinstance(order, str) else None for _, _, order in problems]
    isu = [i for i, kind in enumerate(kinds) if kind == ISU]
    at = np.array([problems[i][0] for i in isu], dtype=np.intp)
    ok = _decide(need[isu], -np.log2(s0[at]), eps, lambda j: evs[at[j // kmax]].group_rate(
        (j % kmax,), set(range(evs[at[j // kmax]].k)) - {j % kmax}))
    for i, e, row in zip(isu, at.tolist(), ok.tolist()):
        out[i] = (tuple(compress(range(kmax), row)), evs[e].k * eval_cost(evs[e].m, 1, evs[e].k - 1))

    # every prune runs to its end before the loop: pruned aircraft fail the
    # greedy test in exact arithmetic but not at ties, so a GREEDY row's
    # candidates are the aircraft its prune leaves, the others at rate inf
    pruning = [i for i, kind in enumerate(kinds) if kind in (PRUNE, GREEDY)]
    a = np.zeros((len(evs), kmax, kmax), dtype=complex)
    for e in {problems[i][0] for i in pruning}:
        a[e, : evs[e].k, : evs[e].k] = evs[e].a
    a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    moved, c_p, p_mults = _prune(evs, np.array([problems[i][0] for i in pruning], dtype=np.intp), a,
                                 need[pruning], eps)
    gone = (moved[:, :, None] == np.arange(kmax)).any(axis=1)
    need[pruning] = np.where(gone, np.inf, need[pruning])
    moved, p_mults = [[x for x in row if x >= 0] for row in moved.tolist()], p_mults.tolist()
    for n, i in enumerate(pruning):
        if kinds[i] == PRUNE:
            out[i] = (tuple(moved[n]), p_mults[n])

    # the problems that pivot, one row each: the rows that pick their
    # aircraft, a search per evaluator a V-BLAST problem is on and each
    # greedy SIC, by their number of steps up, then the walks, by K down,
    # so that the rows whose last step is past step j are the two ends
    searched = list(dict.fromkeys(e for (e, _, _), kind in zip(problems, kinds) if kind == VBLAST))
    front_of = {i: n for n, i in enumerate(pruning) if kinds[i] == GREEDY}
    picks = sorted([(evs[e].k, e, -1) for e in searched]
                   + [(evs[problems[i][0]].k - len(moved[n]), problems[i][0], i) for i, n in front_of.items()],
                   key=lambda p: p[0])
    walks = sorted((i for i, kind in enumerate(kinds) if kind in (None, VBLAST) and problems[i][1] is not None),
                   key=lambda i: -evs[problems[i][0]].k)
    n_p = len(picks)
    on = np.array([e for _, e, _ in picks] + [problems[i][0] for i in walks], dtype=np.intp)
    if not on.size:
        return out
    steps = np.array([n for n, _, _ in picks] + [evs[problems[i][0]].k for i in walks], dtype=np.int64)
    is_search = np.array([i < 0 for _, _, i in picks] + [False] * len(walks))
    search_row = {e: q for q, (_, e, i) in enumerate(picks) if i < 0}
    src = np.array([search_row[problems[i][0]] if kinds[i] else -1 for i in walks], dtype=np.intp)
    tried = np.tile(np.arange(kmax), (len(on), 1))  # each row's aircraft by position, past K the position
    for n, i in enumerate(walks):
        if src[n] < 0:
            tried[n_p + n, : evs[problems[i][0]].k] = problems[i][2]
    if (np.sort(tried, axis=1) != np.arange(kmax)).any():
        raise ValueError("order must be a permutation of all aircraft")
    need = np.vstack([need[[max(i, 0) for _, _, i in picks]], need[walks]])  # a search's row is unused
    k_on, m_on, s = ks[on], ms[on], s0[on]
    left = k_on[:, None] - np.arange(kmax)
    # evaluations per step: a search tries every aircraft left, a walk one,
    # a greedy SIC those up to its pick, or at its miss every candidate
    evals = np.where(is_search[:, None], left, left > 0)
    evals[:n_p][~is_search[:n_p]] = 0
    c = np.zeros((len(on), kmax, kmax), dtype=complex)  # c[q, j]: row q's pivot column at step j
    decoded = np.zeros((len(on), kmax), dtype=bool)
    missed = np.zeros(len(on), dtype=bool)
    by_search = n_p + (src >= 0).nonzero()[0]
    live = steps[:, None] > np.arange(kmax)
    ends = zip((n_p - live[:n_p].sum(axis=0)).tolist(), (n_p + live[n_p:].sum(axis=0)).tolist())
    for j, (lo, hi) in enumerate(ends):  # the rows whose last step is past step j: lo:hi
        if lo == hi:
            break
        rows = lo + is_search[lo:n_p].nonzero()[0]
        if rows.size:
            fast = -np.log2(s[rows])
            best = fast.argmax(axis=1)
            near = fast >= fast.max(axis=1, keepdims=True) - TIE
            for q in (near.sum(axis=1) > 1).nonzero()[0]:
                ev, cand = evs[on[rows[q]]], near[q].nonzero()[0].tolist()
                rest = set(range(ev.k)).difference(tried[rows[q], :j].tolist())
                best[q] = cand[int(np.argmax([ev.group_rate((x,), rest - {x}) for x in cand]))]
            tried[rows, j] = best
            decoded[rows, j] = True
            tried[by_search, j] = tried[src[by_search - n_p], j]
        rows = lo + (~is_search[lo:n_p] & ~missed[lo:n_p]).nonzero()[0]
        if rows.size:  # greedy SIC: the lowest-index candidate that fits, or a miss
            fit = _decide(need[rows], -np.log2(s[rows]), eps, _reference(evs, on, tried, decoded, rows, j, kmax))
            hit, x = fit.any(axis=1), fit.argmax(axis=1)
            cand = np.isfinite(need[rows]) & np.isfinite(s[rows])
            evals[rows, j] = np.where(hit, np.cumsum(cand, axis=1)[np.arange(rows.size), x], cand.sum(axis=1))
            tried[rows, j], decoded[rows, j] = x, hit
            missed[rows] = ~hit
        rows, x = np.arange(lo, hi), tried[lo:hi, j]
        s_x = s[rows, x]
        if hi > n_p:
            walk = rows[n_p - lo :]
            decoded[walk, j] = _decide(need[walk, x[n_p - lo :]], -np.log2(s_x[n_p - lo :]), eps,
                                       _reference(evs, on, tried, decoded, walk, j, None))
        # every row's column at x is formed, and kept where it decodes
        col = w[on[lo:hi], :, x] - (c[rows, None, :j, x].conj() @ c[lo:hi, :j])[:, 0]
        col *= (decoded[lo:hi, j] / np.sqrt(s_x))[:, None]
        c[lo:hi, j] = col
        s[lo:hi] -= np.abs(col) ** 2
        s[rows[: n_p - lo], x[: n_p - lo]] = np.inf

    # each aircraft tried is charged against everyone the row has not
    # decoded but itself
    t = k_on[:, None] - 1 - np.cumsum(decoded, axis=1) + decoded
    mults = (np.where(left > 0, _single_costs(m_on[:, None], t), 0) * evals).sum(axis=1)
    mults[n_p:] += np.where(src >= 0, mults[src], 0)  # a V-BLAST walk's search
    done, mults = [tuple(compress(*row)) for row in zip(tried.tolist(), decoded.tolist())], mults.tolist()
    row_of = {i: n_p + n for n, i in enumerate(walks)}
    row_of.update((i, search_row[e]) for i, (e, row, _) in enumerate(problems) if kinds[i] == VBLAST and row is None)
    for i, q in row_of.items():
        out[i] = (done[q], mults[q])
    for q, (_, e, i) in enumerate(picks):
        if i >= 0:
            n = front_of[i]
            out[i] = _front(evs[e].k, a[e], w[e], c_p[n], c[q], moved[n], done[q], p_mults[n] + mults[q])
    return out


def _reference(evs, on, tried, decoded, rows, j, width):
    """The ``_decide`` fallback of pivot rows ``rows`` at step j: the
    Cholesky rate of an aircraft against everyone its row has not decoded
    but itself.  The aircraft is the row's at step j, or with ``width`` the
    flat index's column in a stack of rows that wide."""
    x = None if width else tried[rows, j].copy()

    def reference(n):
        q, y = (rows[n // width], n % width) if width else (rows[n], int(x[n]))
        ev, done = evs[on[q]], tried[q, :j][decoded[q, :j]].tolist()
        return ev.group_rate((y,), set(range(ev.k)).difference(done, (y,)))

    return reference


def _front(k, a, w, c_p, c, outage, decoded, mults) -> Front:
    """A ``GREEDY`` problem's ``Front`` on K aircraft off its prune's factor
    c_p and its greedy SIC's factor c, on its evaluator's stacked a and W."""
    if k - len(outage) - len(decoded) < 2:
        return Front(decoded, frozenset(outage), mults)
    a = a[:k, :k] - c_p[:, :k].T @ c_p[:, :k].conj()
    a[outage], a[:, outage] = 0.0, 0.0
    w = w[:k, :k] - c[:, :k].T @ c[:, :k].conj()
    w[list(decoded)], w[:, list(decoded)] = 0.0, 0.0
    return Front(decoded, frozenset(outage), mults, a, w)


def vblast_order(h, gamma=None, counter=None, walks=None, eps=0.0):
    """Highest post-detection SINR first: each step picks the aircraft with
    the largest achievable rate under the not-yet-selected interferers.
    Ties break to the lowest index.  The order depends only on the channel.
    Returns it for one channel or evaluator ``h``, the search's evaluations
    charged to ``counter``; with ``walks`` on a stack ``h``, it is
    ``one_at_a_time(h, walks, eps)``, as a sweep trial runs its baselines."""
    if walks is not None:
        return one_at_a_time(h, walks, eps)
    ((order, mults),) = one_at_a_time([_as_evaluator(h, gamma)], [(0, None, VBLAST)])
    if counter is not None:
        counter.add(mults)
    return order


def cgtr_order(h, r):
    """Channel-gain-and-transmission-rate ordering: decreasing
    ||h_k||^2 (1 + 1/(2^{r_k} + 1)), ties to the lowest index.  A 2-D ``r``
    stacks rate rows, each on the first columns of ``h`` it has rates for
    (NaN after them): one order per row from one stable argsort, each the
    order of that row on those columns alone."""
    hm = np.asarray(h, dtype=complex)
    rows = np.atleast_2d(np.asarray(r, dtype=float))
    lengths = (~np.isnan(rows)).sum(axis=1)
    keys = np.full(rows.shape, np.nan)  # sorts last
    for k in set(lengths.tolist()):  # gains summed on k columns, as a call on them sums them
        gains = np.sum(np.abs(hm[:, :k]) ** 2, axis=0)
        keys[lengths == k, :k] = gains * (1.0 + 1.0 / (2.0 ** rows[lengths == k, :k] + 1.0))
    orders = [tuple(o[:k].tolist()) for o, k in zip(np.argsort(-keys, kind="stable"), lengths)]
    return orders if np.ndim(r) == 2 else orders[0]


# ---------------------------------------------------------------------------
# Brute-force oracles (small instances only)
# ---------------------------------------------------------------------------

def subset_sums(r, k: int) -> np.ndarray:
    """r_S for every subset S of the K aircraft, indexed by the bitmask of S,
    for a rate row or a stack of them (one row of sums each).  One row sum
    per set size, so each entry is ``r[list(S)].sum()`` over S ascending,
    bit for bit; a zero-padded row would regroup the terms of sets of 8 or
    more."""
    rr = np.asarray(r, dtype=float)
    sums = np.zeros(rr.shape[:-1] + (1 << k,))
    for size in range(1, k + 1):
        idx, masks = subsets_of_size(k, size)
        sums[..., masks] = rr[..., idx].sum(axis=-1)
    return sums


@cache
def _subsets_within(v: int) -> np.ndarray:
    """Every nonempty subset of v positions, one 0/1 row each."""
    return np.arange(1, 1 << v)[:, None] >> np.arange(v) & 1


def subset_masks(groups, k: int) -> np.ndarray:
    """Bitmasks of the nonempty subsets of each row of ``groups``, aircraft
    indices among K with -1 padding a smaller group: a mask is 0 where a
    subset holds padding only."""
    groups = np.asarray(groups, dtype=np.intp)
    bit = np.append(1 << np.arange(k), 0)  # -1 reads the 0 at the end
    return bit[groups] @ _subsets_within(groups.shape[1]).T


def subsets_fit(cap, sums, inst, sub, t, eps=0.0) -> np.ndarray:
    """For each group C, given by the bitmasks ``sub`` of its nonempty
    subsets along the last axis (0 is skipped), its instance ``inst`` and its
    interference set T, a bitmask in ``t``: whether every subset S has
    r_S <= R_S^T + eps.  ``inst`` picks the rows of ``cap``, the instances'
    ``rates.capacity_tables``, and of ``sums``, their ``subset_sums``;
    ``inst`` and ``t`` broadcast against the leading axes of ``sub``.
    R_S^T = C(S u T) - C(T) and r_S are read off those rows, so each
    comparison is the one a ``group_rate`` loop makes, bit for bit."""
    inst = np.asarray(inst, dtype=np.intp)[..., None]
    t = np.asarray(t, dtype=np.intp)[..., None]
    return ~((sums[inst, sub] > cap[inst, sub | t] - cap[inst, t] + eps) & (sub != 0)).any(axis=-1)


@cache
def _candidates(k: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups of ``size`` in combinations order, the bitmasks of their
    nonempty subsets, and the bitmasks of their complements."""
    cand, masks = subsets_of_size(k, size)
    return cand, subset_masks(cand, k), masks ^ ((1 << k) - 1)


def _instances(h, r, gamma) -> tuple[list[RateEvaluator], np.ndarray, bool]:
    """(evaluators, rate rows, whether a stack) of an oracle call: one
    instance, a channel or evaluator with a rate row, or a stack, a sequence
    of evaluators with one K and a 2-D array of their rate rows."""
    rows = np.asarray(r, dtype=float)
    if rows.ndim == 2:
        return list(h), rows, True
    return [_as_evaluator(h, gamma)], rows[None, :], False


def oracle_max_set(h, r, gamma, eps=0.0):
    """Exhaustive maximal decodable set: scan candidate sets by decreasing
    size (lexicographic within a size) and return the first whose every
    subset sum-rate fits under the complement's interference.

    A stack of instances (see ``_instances``) gets a list of sets, one per
    instance: all instances still open are decided at once per size, largest
    first, and each takes its first fitting candidate at its first size with
    one."""
    evs, rows, stacked = _instances(h, r, gamma)
    k = evs[0].k
    if k > ORACLE_MAX_SET_LIMIT:
        raise ValueError(f"oracle_max_set limited to K <= {ORACLE_MAX_SET_LIMIT}")
    cap, sums = capacity_tables(evs), subset_sums(rows, k)
    found = [frozenset()] * len(evs)
    open_ = np.arange(len(evs))
    for size in range(k, 0, -1):
        cand, sub, rest = _candidates(k, size)
        fit = subsets_fit(cap, sums, open_[:, None], sub, rest, eps)
        hit = fit.any(axis=1)
        for i, j in zip(open_[hit].tolist(), fit[hit].argmax(axis=1).tolist()):
            found[i] = frozenset(cand[j].tolist())
        if not (open_ := open_[~hit]).size:
            break
    return found if stacked else found[0]


@cache
def _orders(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All K! orders in lexicographic order, and per step the bitmasks of
    the aircraft from that step on and of those after it."""
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    bits = 1 << perms
    after = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] - bits
    return perms, after | bits, after


def oracle_best_sic(h, r, gamma, eps=0.0):
    """Exhaustive SIC-order search under stop-at-first-failure semantics:
    the decoded set of an order is its longest feasible prefix.  Returns a
    maximizing order (first found in lexicographic order) and its set.
    Every order is decided at once: step u decodes perm[u] against the
    aircraft after it, at C(perm[u:]) - C(perm[u+1:]) off the capacity table.
    A stack of instances (see ``_instances``) is decided at once too, and
    gets a list of (order, set), one per instance."""
    evs, rows, stacked = _instances(h, r, gamma)
    k = evs[0].k
    if k > ORACLE_BEST_SIC_LIMIT:
        raise ValueError(f"oracle_best_sic limited to K <= {ORACLE_BEST_SIC_LIMIT}")
    cap = capacity_tables(evs)
    perms, now, after = _orders(k)
    fail = rows[:, perms] > cap[:, now] - cap[:, after] + eps
    n = np.where(fail.any(axis=2), fail.argmax(axis=2), k)
    found = [(tuple(perms[best].tolist()), frozenset(perms[best, :got].tolist()))
             for best, got in zip(n.argmax(axis=1).tolist(), n.max(axis=1).tolist())]
    return found if stacked else found[0]
