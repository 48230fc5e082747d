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
of I + g H^H H on the outage set for the prunes, and for every other loop a
copy of the full-set inverse ``RateEvaluator.whitened_inverse(range(K))``,
from which each decoded aircraft is pivoted out.  Any decision within
``decoders.TIE`` of its threshold is taken again on ``group_rate``.

The multiplication counter follows the reference cost convention: forming a
Gram product of v columns costs M^2 v and an M x M inverse or product costs
M^3, so one conditional rate evaluation costs M^2|S| when T is empty and
M^2(|S| + |T|) + 2 M^3 otherwise (``eval_cost``).  Counts are a cost model
of the defining formula, independent of how a rate is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

LOG2E = float(np.log2(np.e))


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
        #: (V-BLAST order, mults that found it) on this channel, filled by
        #: the first SIC_VBLAST run: the order does not depend on the rates.
        self.vblast: tuple[tuple[int, ...], int] | None = None

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


def subset_conditions_hold(
    ev: RateEvaluator,
    r: np.ndarray,
    c: Iterable[int],
    t: Iterable[int],
    counter: MultCounter | None = None,
    eps: float = 0.0,
    skip_full: bool = False,
) -> bool:
    """True iff every nonempty subset S of C satisfies sum(r_S) <= R_S^T + eps.

    Short-circuits on the first violated subset; subsets are scanned largest
    first since the full-group sum constraint binds most often.  With
    ``skip_full`` the full set C is taken as already checked.
    """
    t = tuple(sorted(t))
    items = sorted(c)
    for size in range(len(items) - 1 if skip_full else len(items), 0, -1):
        for s in combinations(items, size):
            if float(r[list(s)].sum()) > ev.group_rate(s, t, counter) + eps:
                return False
    return True


def brute_force_eval_count(k: int) -> int:
    """Number of condition evaluations in the brute-force max-set search:
    sum over v of C(K, v) (2^v - 1), which closes to 3^K - 2^K."""
    if k < 1:
        raise ValueError(f"need K >= 1, got {k}")
    return 3**k - 2**k
