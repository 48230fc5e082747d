"""Log-det group rates on the multiple-access channel, with cost accounting.

The achievable sum rate of a set S decoded under residual interference from
a set T is

    R_S^T = log2 det( I_M + g H_S H_S^H (I_M + g H_T H_T^H)^{-1} )

with g = P/N0.  Numerically this is evaluated as a difference of two
capacity terms,

    R_S^T = C(S u T) - C(T),    C(A) = log2 det(I + g H_A^H H_A),

which follows from det(I + X + Y) / det(I + Y) and the Sylvester identity.
Each C(A) comes from a Cholesky factorization of the |A| x |A| principal
submatrix of I + g H^H H (log-diagonals summed), which stays well-conditioned
for g ~ 6e14 against |h|^2 ~ 1e-14, and makes the SIC chain rule telescope
exactly.  This is the reference path.  The decoders read the same rates off
one eliminated K x K array per loop (see ``decoders``): the Schur complement
of I + g H^H H on the outage set for the prunes, and for every other loop
the full-set inverse ``RateEvaluator.whitened_inverse(range(K))``
(``whitened_inverses`` for a stack), with each decoded aircraft pivoted
out (the one-at-a-time loops factor these arrays, one column per pivot).
Any decision within ``decoders.TIE`` of its threshold is taken again on
``group_rate``.

The multiplication counter follows the reference cost convention: forming a
Gram product of v columns costs M^2 v and an M x M inverse or product costs
M^3, so one conditional rate evaluation costs M^2|S| when T is empty and
M^2(|S| + |T|) + 2 M^3 otherwise (``eval_cost``).  Counts are a cost model
of the defining formula, independent of how a rate is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

LOG2E = float(np.log2(np.e))

#: Largest K for which ``capacity_tables`` holds all 2^K sets.
TABLE_LIMIT = 12


@dataclass
class MultCounter:
    """Running count of complex multiplications; additive, never decreasing."""

    total: int = 0

    def add(self, n: int) -> None:
        if n < 0:
            raise ValueError("counter increments must be nonnegative")
        self.total += n


def eval_cost(m: int, s: int, t: int) -> int:
    """Mults charged for one evaluation of R_S^T with |S| = s, |T| = t."""
    return m * m * (s + t) + 2 * m**3 if t else m * m * s


@cache
def subsets_of_size(k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsets of ``size`` of K aircraft in combinations order: one
    ascending row of indices each, and their bitmasks (shared, read-only)."""
    idx = np.array(list(combinations(range(k), size)), dtype=np.intp).reshape(-1, size)
    masks = (1 << idx).sum(axis=1)
    idx.flags.writeable = masks.flags.writeable = False
    return idx, masks


class RateEvaluator:
    """Caches capacity terms C(A) for one channel matrix.

    Safe to share across decoding algorithms within a trial; counters are
    passed per call, and each decoder run keeps its own.
    """

    def __init__(self, h, gamma: float):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {h.shape}")
        self.m, self.k = h.shape
        self.gamma = float(gamma)
        #: I + g H^H H: every capacity is the log-det of a principal
        #: submatrix, and the decoders' elimination loops start from it.
        self.a = np.eye(self.k) + self.gamma * (h.conj().T @ h)
        self._cap: dict[tuple[int, ...], float] = {(): 0.0}
        self._inv: dict[tuple[int, ...], np.ndarray] = {}
        self._table: np.ndarray | None = None

    def capacity(self, ids: Sequence[int]) -> float:
        """C(A) = log2 det(I + g H_A^H H_A) for a set of column indices."""
        key = tuple(sorted(ids))
        hit = self._cap.get(key)
        if hit is not None:
            return hit
        idx = np.asarray(key, dtype=np.intp)
        chol = np.linalg.cholesky(self.a[idx[:, None], idx])
        val = 2.0 * LOG2E * float(np.sum(np.log(np.real(np.diagonal(chol)))))
        self._cap[key] = val
        return val

    def whitened_inverse(self, ids: Sequence[int]) -> np.ndarray:
        """(I + g H_A^H H_A)^{-1} for a column set A, cached.

        By the Schur-complement determinant identity, for any C inside A the
        conditional group rate of C against interference A \\ C is
        -log2 det(W[C, C]) with W this inverse.  The decoders take A = all K
        aircraft and pivot each decoded aircraft out of a copy: pivoting D out
        of W leaves the inverse on A \\ D, so one inverse per evaluator serves
        every SIC step and group scan.
        """
        key = tuple(sorted(ids))
        hit = self._inv.get(key)
        if hit is None:
            idx = np.asarray(key, dtype=np.intp)
            hit = np.linalg.inv(self.a[idx[:, None], idx])
            self._inv[key] = hit
        return hit

    def group_rate(self, s: Iterable[int], t: Iterable[int], counter: MultCounter | None = None) -> float:
        """R_S^T in bps/Hz; S and T must be disjoint."""
        s = tuple(sorted(s))
        t = tuple(sorted(t))
        if not s:
            return 0.0
        if counter is not None:
            counter.add(eval_cost(self.m, len(s), len(t)))
        if not t:
            return self.capacity(s)
        union = tuple(sorted(set(s) | set(t)))
        if len(union) != len(s) + len(t):
            raise ValueError("decode set and interference set must be disjoint")
        return self.capacity(union) - self.capacity(t)


def capacity_tables(evs: Sequence[RateEvaluator]) -> np.ndarray:
    """C(A) for every column set A of each of a stack of evaluators with one
    K, one row each, indexed by the bitmask of A.  Each row is built once:
    the rows not yet built are built together, with one batched
    Cholesky per set size over the stack of their ``a``, and each evaluator
    keeps its row.  Each entry is ``capacity(A)`` bit for bit: the same
    factor of the same submatrix, and the same sum of log-diagonals."""
    k = evs[0].k
    if any(ev.k != k for ev in evs):
        raise ValueError("capacity tables are stacked for one K")
    if k > TABLE_LIMIT:
        raise ValueError(f"capacity table limited to K <= {TABLE_LIMIT}")
    todo = [ev for ev in evs if ev._table is None]
    if todo:
        a = np.stack([ev.a for ev in todo])
        table = np.zeros((len(todo), 1 << k))
        for size in range(1, k + 1):
            idx, masks = subsets_of_size(k, size)
            chol = np.linalg.cholesky(a[:, idx[:, :, None], idx[:, None, :]])
            logs = np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1)))
            table[:, masks] = 2.0 * LOG2E * logs.sum(axis=-1)
        for ev, row in zip(todo, table):
            ev._table = row
    return np.stack([ev._table for ev in evs])


def whitened_inverses(evs: Sequence[RateEvaluator]) -> list[np.ndarray]:
    """``whitened_inverse(range(K))`` of each of a stack of evaluators of any
    K.  The inverses not yet cached are taken together, one batched
    ``np.linalg.inv`` per K over the stack of their ``a``, and each
    evaluator keeps its own; each is the lone call's inverse bit for bit."""
    by_k: dict[int, list[RateEvaluator]] = {}
    for ev in evs:
        if tuple(range(ev.k)) not in ev._inv:
            by_k.setdefault(ev.k, []).append(ev)
    for k, todo in by_k.items():
        for ev, inv in zip(todo, np.linalg.inv(np.stack([ev.a for ev in todo]))):
            ev._inv[tuple(range(k))] = inv
    return [ev._inv[tuple(range(ev.k))] for ev in evs]


def brute_force_eval_count(k: int) -> int:
    """Number of condition evaluations in the brute-force max-set search:
    sum over v of C(K, v) (2^v - 1), which closes to 3^K - 2^K."""
    if k < 1:
        raise ValueError(f"need K >= 1, got {k}")
    return 3**k - 2**k
