"""Output checks written independently of the program.

Every rate here comes from the defining M-space formula

    R_S^T = log2 det(I_M + g H_S H_S^H (I_M + g H_T H_T^H)^{-1}).

Group replays evaluate it as log2 det(A_T + g H_S H_S^H) - log2 det(A_T)
with A_T = I_M + g H_T H_T^H.  Single-aircraft rates log2(1 + g h^H A_T^{-1} h)
keep A_T^{-1} up to date by the matrix inversion lemma as aircraft leave the
interference set, starting from one M x M inverse per channel.  The program evaluates the same rates as K-space Cholesky log-dets, so the two
agree to rounding; a decision whose margin is below TOL is reported as
ambiguous instead of being compared.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

#: Decisions closer than this (bps/Hz) to their threshold are not compared.
TOL = 1e-6
#: Groups up to this size are replayed on every subset; larger groups on the
#: full group, singletons, pairs and the complements of singletons.
REPLAY_FULL_MAX = 12

#: The eight algorithms of both sweep presets, in the program's default order.
ALGORITHMS = ("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "LGSA:2", "LGSA:4", "GSA")
SIC_TOKENS = ("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST")
CHAIN = ("GSA", "LGSA:4", "LGSA:2", "SSA")
MONOTONE_TOKENS = ("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "GSA")


def _interference(h: np.ndarray, g: float, cols) -> np.ndarray:
    hc = h[:, list(cols)]
    return np.eye(h.shape[0], dtype=complex) + g * (hc @ hc.conj().T)


def _remove(a_inv: np.ndarray, y: np.ndarray, g: float, x, where=True) -> np.ndarray:
    """(A - g h h^H)^{-1} from A^{-1}, y = A^{-1} h and x = h^H y (matrix
    inversion lemma), in place and batched over leading axes; rows where
    ``where`` is false keep A."""
    coef = np.where(where, g / (1.0 - g * x), 0.0)
    a_inv += (coef[..., None] * y)[..., :, None] * y[..., None, :].conj()
    return a_inv


def _removal_rates(a_inv: np.ndarray, cols: np.ndarray, g: float):
    """Rate of each column h of cols against A - g h h^H, where A holds h:
    log2(1 + g h^H (A - g h h^H)^{-1} h) = -log2(1 - g h^H A^{-1} h).
    Returns (rates, A^{-1} cols, h^H A^{-1} h)."""
    y = a_inv @ cols
    x = np.einsum("...mk,...mk->...k", cols.conj(), y).real
    return -np.log2(1.0 - g * x), y, x


def random_order(master_seed: int, trial: int, k: int) -> tuple[int, ...]:
    """The documented per-trial stream layout: (positions, map, rates,
    order) children of SeedSequence((master_seed, trial))."""
    order_ss = np.random.SeedSequence((master_seed, trial)).spawn(4)[3]
    return tuple(int(i) for i in np.random.default_rng(order_ss).permutation(k))


def cgtr_order(h: np.ndarray, r: np.ndarray) -> tuple[int, ...]:
    keys = np.sum(np.abs(h) ** 2, axis=0) * (1.0 + 1.0 / (2.0 ** r + 1.0))
    return tuple(sorted(range(h.shape[1]), key=lambda k: (-keys[k], k)))


def vblast_order(h: np.ndarray, g: float, a_inv: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """Highest single-user rate under the not-yet-ordered interferers first,
    ties to the lowest index; a_inv is (I + g H H^H)^{-1}.  Returns (order,
    ambiguous)."""
    remaining = list(range(h.shape[1]))
    order: list[int] = []
    ambiguous = False
    a_inv = a_inv.copy()
    while remaining:
        rates, y, x = _removal_rates(a_inv, h[:, remaining], g)
        best = int(np.argmax(rates))
        if len(rates) > 1 and np.sort(rates)[-2] > rates[best] - TOL:
            ambiguous = True
        _remove(a_inv, y[:, best], g, x[best])
        order.append(remaining.pop(best))
    return tuple(order), ambiguous


def order_counts(h, g, r, order, a_inv) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-order SIC walk for every rate row of r (P, K) at once: a failed
    aircraft stays as interference for everyone after it."""
    p = r.shape[0]
    a_inv = np.repeat(a_inv[None], p, axis=0)
    count = np.zeros(p, dtype=int)
    ambiguous = np.zeros(p, dtype=bool)
    for k in order:
        rate, y, x = _removal_rates(a_inv, h[:, k : k + 1], g)
        margin = rate[:, 0] - r[:, k]
        ok = margin >= 0
        ambiguous |= np.abs(margin) < TOL
        count += ok
        _remove(a_inv, y[:, :, 0], g, x[:, 0], ok)
    return count, ambiguous


def sic_counts(h, g, r, order_random) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Decoded counts of ISU and the three fixed-order SIC baselines for every
    rate row of r (P, K); each value is (counts, ambiguous flags)."""
    a_inv = np.linalg.inv(_interference(h, g, range(h.shape[1])))
    isu_rate = _removal_rates(a_inv, h, g)[0]
    isu_margin = isu_rate[None, :] - r
    out = {"ISU": ((isu_margin >= 0).sum(axis=1), (np.abs(isu_margin) < TOL).any(axis=1))}
    out["SIC_RANDOM"] = order_counts(h, g, r, order_random, a_inv)
    vb, vb_amb = vblast_order(h, g, a_inv)
    counts, amb = order_counts(h, g, r, vb, a_inv)
    out["SIC_VBLAST"] = (counts, amb | vb_amb)
    counts, amb = np.zeros(len(r), int), np.zeros(len(r), bool)
    orders = [cgtr_order(h, row) for row in r]
    for order in set(orders):
        rows = [i for i, o in enumerate(orders) if o == order]
        counts[rows], amb[rows] = order_counts(h, g, r[rows], order, a_inv)
    out["SIC_CGTR"] = (counts, amb)
    return out


def _log2det(a: np.ndarray) -> np.ndarray:
    return np.linalg.slogdet(a)[1] / np.log(2.0)


def group_margins(h, g, r, group, interference) -> np.ndarray:
    """R_S^T - sum(r_S) for the replayed subsets S of a decoded group."""
    group = list(group)
    v = len(group)
    if v <= REPLAY_FULL_MAX:
        subsets = [c for size in range(1, v + 1) for c in combinations(range(v), size)]
    else:
        subsets = {(i,) for i in range(v)} | set(combinations(range(v), 2))
        subsets |= {tuple(j for j in range(v) if j != i) for i in range(v)}
        subsets = sorted(subsets | {tuple(range(v))})
    a_t = _interference(h, g, interference)
    base = _log2det(a_t)
    hg = h[:, group]
    out = np.empty(len(subsets))
    for lo in range(0, len(subsets), 256):
        batch = subsets[lo : lo + 256]
        stack = np.repeat(a_t[None], len(batch), axis=0)
        for b, s in enumerate(batch):
            hs = hg[:, list(s)]
            stack[b] += g * (hs @ hs.conj().T)
        rates = _log2det(stack) - base
        sums = np.array([r[[group[i] for i in s]].sum() for s in batch])
        out[lo : lo + len(batch)] = rates - sums
    return out


def replay_plan(h, g, r, outcome) -> tuple[bool, bool]:
    """Replay a decode plan: each group must meet every subset condition
    against all later groups plus the outage set.  Returns (ok, ambiguous)."""
    later = set(outcome.decoded)
    planned = [i for grp in outcome.decode_plan for i in grp]
    if sorted(planned) != sorted(outcome.decoded):
        return False, False
    ok, ambiguous = True, False
    for grp in outcome.decode_plan:
        later -= set(grp)
        margins = group_margins(h, g, r, grp, sorted(later | set(outcome.outage)))
        ambiguous |= bool((np.abs(margins) < TOL).any())
        ok &= bool((margins > -TOL).all())
    return ok, ambiguous


def brute_force_max_set(h, g, r) -> tuple[int, bool]:
    """Largest set decodable as one joint group against the rest, by
    enumeration.  Returns (size, ambiguous)."""
    k = h.shape[1]
    everyone = set(range(k))
    ambiguous = False
    for size in range(k, 0, -1):
        for cand in combinations(range(k), size):
            margins = group_margins(h, g, r, cand, sorted(everyone - set(cand)))
            ambiguous |= bool((np.abs(margins) < TOL).any())
            if (margins >= 0).all():
                return size, ambiguous
    return 0, ambiguous


# ---------------------------------------------------------------------------
# CSV checks
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> dict[tuple[str, int, float], dict]:
    lines = text.strip().splitlines()
    if not lines:
        return {}
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        k, trials = int(rec["K"]), int(rec["trials"])
        p_out = float(rec["p_out"])
        rows[(rec["algorithm"], k, float(rec["r_G"]))] = {
            "decoded": round((1.0 - p_out) * k * trials),
            "p_out": p_out,
            "avg_mults": float(rec["avg_mults"]),
            "trials": trials,
            "master_seed": int(rec["master_seed"]),
        }
    return rows


def csv_problems(rows, points, algorithms, trials, master_seed, equal_rate) -> list[str]:
    """Structural, chain, V-BLAST/SSA and monotonicity checks on one CSV."""
    problems = []
    expected = {(a, k, rg) for a in algorithms for k, rg in points}
    if set(rows) != expected:
        return [f"rows {sorted(set(rows) ^ expected)[:4]} missing or unexpected"]
    for key, row in rows.items():
        if row["trials"] != trials or row["master_seed"] != master_seed:
            problems.append(f"{key}: trials/master_seed column")
    for k, rg in points:
        dec = {a: rows[(a, k, rg)]["decoded"] for a in algorithms}
        for hi, lo in zip(CHAIN, CHAIN[1:]):
            if dec[hi] < dec[lo]:
                problems.append(f"K={k} r_G={rg}: p_out({hi}) > p_out({lo})")
        for base in SIC_TOKENS:
            if dec["SSA"] < dec[base]:
                problems.append(f"K={k} r_G={rg}: p_out(SSA) > p_out({base})")
        if equal_rate and dec["SIC_VBLAST"] != dec["SSA"]:
            problems.append(f"r_G={rg}: SIC_VBLAST {dec['SIC_VBLAST']} != SSA {dec['SSA']}")
    if equal_rate:
        for a in MONOTONE_TOKENS:
            series = [rows[(a, k, rg)]["decoded"] for k, rg in sorted(points, key=lambda p: p[1])]
            if any(x < y for x, y in zip(series, series[1:])):
                problems.append(f"{a}: p_out decreases in r_G")
    return problems
