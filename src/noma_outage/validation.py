"""Randomized cross-validation of the greedy algorithms against the
brute-force oracles, on synthetic small instances.

Instances use complex Gaussian channels with rates scaled off each column's
single-user capacity so that feasibility straddles: some aircraft decode
alone, some only in groups, some never.  The ``mutation_eps`` knob shifts the
algorithms' rate comparisons (not the oracles'), which makes injected faults
detectable; a correct build passes only with the default 0.

A run goes in blocks of ``BLOCK`` instances, a size set by the bytes of a
block's check arrays.  A block is drawn in one pass over the stream
(``random_instances``), its evaluators are formed with one stacked product
per (M, K) (``rates.evaluators``), and its checks are decided at once per K.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import count

import numpy as np

from . import decoders
from .rates import capacity_tables, evaluators


@dataclass
class Violation:
    index: int
    seed: int
    kind: str
    detail: str
    h: list
    r: list

    def to_json(self) -> str:
        return json.dumps(
            {
                "instance": self.index,
                "seed": self.seed,
                "kind": self.kind,
                "detail": self.detail,
                "h_re": self.h[0],
                "h_im": self.h[1],
                "r": self.r,
            }
        )


@dataclass
class ValidationReport:
    instances: int
    violations: list[Violation] = field(default_factory=list)
    decoded_histogram: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


def random_instances(rng: np.random.Generator, n: int, k_max: int = 5, m_choices=(2, 4, 8)) -> list[tuple]:
    """n synthetic instances (H, r, gamma) with feasibility straddled, in
    draw order.  Per instance only the generator calls run one at a time:
    K and M, one ``standard_normal`` for the real and imaginary parts of H,
    the gamma exponent, and one ``random`` for the rate scales' coin and
    value; H, the single-user rates and r are then formed for all instances
    of one (M, K) at once, elementwise.  Gamma stays Python's ``10.0 ** x``
    per instance (numpy's ``power`` can differ in the last ulp)."""
    draws = []
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        k = int(rng.integers(2, k_max + 1))
        m = int(m_choices[rng.integers(0, len(m_choices))])
        # 1.5 * u is uniform(0, 1.5) and the second half of u uniform(0.25, 1.25), bit for bit
        draws.append((rng.standard_normal((2, m, k)), 10.0 ** (1.5 * rng.random()), rng.random(2 * k)))
        by_shape.setdefault((m, k), []).append(i)
    out: list = [None] * n
    for (_, k), idx in by_shape.items():
        z, gamma, u = (np.array(col) for col in zip(*(draws[i] for i in idx)))
        h = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        single = np.log2(1.0 + gamma[:, None] * np.sum(np.abs(h) ** 2, axis=1))
        r = np.where(u[:, :k] < 0.15, 0.02, 0.25 + u[:, k:]) * single
        for i, hi, ri, g in zip(idx, h, r, gamma.tolist()):
            out[i] = (hi, ri, g)
    return out


def random_instance(rng: np.random.Generator, k_max: int = 5, m_choices=(2, 4, 8)):
    """One synthetic instance (H, r, gamma), the one-instance call of
    ``random_instances``: n calls read the stream as one call of n."""
    return random_instances(rng, 1, k_max, m_choices)[0]


#: Instances drawn and run before their checks are decided, together for
#: the instances of a block that share K.  A constant, so the check arrays
#: stay bounded for any instance count.  The largest are the best-order
#: oracle's n x K! x K float arrays, 4.8 kB per instance each at K = 5 with
#: about five alive at once; a quarter of the instances draw K = 5, so at
#: 512 instances that oracle call peaks near 2.7 MB and the block's kernel
#: call near 1.7 MB.  A run of up to 512 instances (the CLI default among
#: them) then pays the per-block work once: one kernel call, and per K one
#: capacity-table build, one replay and two oracle calls.
BLOCK = 512


@cache
def _mask(ids) -> int:
    """Bitmask of a set or group of aircraft."""
    return sum(1 << j for j in ids)


def _replay(evs, rows, runs, eps) -> list[list[tuple[str, tuple[int, ...]]]]:
    """Every group of the SSA and GSA plans of a stack of instances with one
    K, checked against its later groups plus the outage set, all in one
    ``subsets_fit`` call.  Per instance: (algorithm, group) of each group
    that fails, in plan order."""
    # per replayed group: its instance, algorithm, aircraft, and the bitmask
    # of the later groups and the outage set
    inst, names, groups, later = [], [], [], []
    for i, (_, res_ssa, res_gsa, *_) in enumerate(runs):
        for name, res in (("SSA", res_ssa), ("GSA", res_gsa)):
            # the decoded aircraft outside this group and the earlier ones,
            # off a running OR of the plan's group masks, and the outage set
            decoded, outage, before = _mask(res.decoded), _mask(res.outage), 0
            for grp in res.decode_plan:
                before |= _mask(grp)
                inst.append(i)
                names.append(name)
                groups.append(grp)
                later.append(decoded & ~before | outage)
    failed: list[list] = [[] for _ in runs]
    if groups:
        k = evs[0].k
        width = max(map(len, groups))
        padded = [grp + (-1,) * (width - len(grp)) for grp in groups]
        fits = decoders.subsets_fit(capacity_tables(evs), decoders.subset_sums(rows, k), inst,
                                    decoders.subset_masks(padded, k), later, eps)
        for j in np.flatnonzero(~fits).tolist():
            failed[inst[j]].append((names[j], groups[j]))
    return failed


def _problems(run, isu, failed, best_sic: int, max_set: int) -> list[tuple[str, str]]:
    """One instance's violations, in check order, given ISU's decoded
    aircraft, its replay failures and the sizes of the oracles' best SIC set
    and maximum decodable set."""
    ev, res_ssa, res_gsa, res_l2, res_l4 = run
    problems: list[tuple[str, str]] = []
    everyone = frozenset(range(ev.k))
    for name, res in (("SSA", res_ssa), ("GSA", res_gsa), ("LGSA:2", res_l2)):
        if res.decoded | res.outage != everyone:
            problems.append(("partition", f"{name}: bad partition {res}"))
        if res.decoded & res.outage:
            problems.append(("partition", f"{name}: overlapping sets {res}"))
        planned = [i for grp in res.decode_plan for i in grp]
        if sorted(planned) != sorted(res.decoded):
            problems.append(("plan", f"{name}: plan does not partition decoded set"))
    for name, grp in failed:
        problems.append(("plan", f"{name}: group {grp} infeasible on replay"))
    if len(res_ssa.decoded) != best_sic:
        problems.append(("ssa_optimality", f"SSA decoded {len(res_ssa.decoded)}, best order {best_sic}"))
    if len(res_gsa.decoded) != max_set:
        problems.append(("gsa_optimality", f"GSA decoded {len(res_gsa.decoded)}, oracle {max_set}"))
    if not set(isu) <= res_ssa.decoded:
        problems.append(("containment", "ISU set not inside SSA set"))
    if not (
        len(res_ssa.decoded) <= len(res_l2.decoded) <= len(res_l4.decoded) <= len(res_gsa.decoded)
    ):
        problems.append(("containment", "SSA/LGSA/GSA size chain violated"))
    return problems


def check_block(instances, mutation_eps: float = 0.0) -> list[tuple[list[tuple[str, str]], int]]:
    """All decoder invariants plus oracle equalities on a block of instances
    (H, r, gamma).  ISU and the nested algorithms' fronts, the prune and
    greedy SIC, run for the whole block in one ``one_at_a_time`` call; each
    instance's SSA, GSA, LGSA:2 and LGSA:4 continue from its front on their
    own (``from_front``).  Then the plan replays and both oracles are decided
    at once for all instances of the block with one K.

    Per instance, in block order: the list of (kind, detail) violations,
    empty when everything holds, and the size of the oracle's maximum
    decodable set."""
    evs = evaluators([h for h, _, _ in instances], [gamma for _, _, gamma in instances])
    found = decoders.one_at_a_time(evs, [(i, r, kind) for kind in (decoders.ISU, decoders.GREEDY)
                                         for i, (_, r, _) in enumerate(instances)], mutation_eps)
    isu = found[: len(evs)]
    runs = [(ev, *decoders.from_front(ev, r, front, (0, ev.k, 2, 4), mutation_eps))
            for ev, (_, r, _), front in zip(evs, instances, found[len(evs):])]
    failed: list[list] = [[] for _ in runs]
    best_sic, max_set = [0] * len(runs), [0] * len(runs)
    by_k: dict[int, list[int]] = {}
    for i, run in enumerate(runs):
        by_k.setdefault(run[0].k, []).append(i)
    for idx in by_k.values():
        evs = [runs[i][0] for i in idx]
        rows = np.array([instances[i][1] for i in idx], dtype=float)
        for i, got in zip(idx, _replay(evs, rows, [runs[i] for i in idx], mutation_eps)):
            failed[i] = got
        for i, (_, got) in zip(idx, decoders.oracle_best_sic(evs, rows)):
            best_sic[i] = len(got)
        for i, got in zip(idx, decoders.oracle_max_set(evs, rows)):
            max_set[i] = len(got)
    return [(_problems(run, isu[i][0], failed[i], best_sic[i], max_set[i]), max_set[i])
            for i, run in enumerate(runs)]


def run_validation(seed: int, instances: int, mutation_eps: float = 0.0) -> ValidationReport:
    """Draw the instances from one stream, in ``BLOCK``s, and check each
    block at once; the report lists violations in instance order."""
    if instances < 1:
        raise ValueError(f"need at least one instance, got {instances}")
    rng = np.random.default_rng(seed)
    report = ValidationReport(instances=instances)
    for start in range(0, instances, BLOCK):
        block = random_instances(rng, min(BLOCK, instances - start))
        for idx, (h, r, _), (problems, n_dec) in zip(count(start), block, check_block(block, mutation_eps)):
            k = h.shape[1]
            bucket = "all" if n_dec == k else ("none" if n_dec == 0 else "partial")
            report.decoded_histogram[bucket] = report.decoded_histogram.get(bucket, 0) + 1
            for kind, detail in problems:
                report.violations.append(
                    Violation(
                        index=idx,
                        seed=seed,
                        kind=kind,
                        detail=detail,
                        h=[h.real.tolist(), h.imag.tolist()],
                        r=list(map(float, r)),
                    )
                )
    return report
