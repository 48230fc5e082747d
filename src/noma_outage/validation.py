"""Randomized cross-validation of the greedy algorithms against the
brute-force oracles, on synthetic small instances.

Instances use complex Gaussian channels with rates scaled off each column's
single-user capacity so that feasibility straddles: some aircraft decode
alone, some only in groups, some never.  The ``mutation_eps`` knob shifts the
algorithms' rate comparisons (not the oracles'), which makes injected faults
detectable; a correct build passes only with the default 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import decoders
from .rates import RateEvaluator, capacity_tables


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


def random_instance(rng: np.random.Generator, k_max: int = 5, m_choices=(2, 4, 8)):
    """One synthetic instance (H, r, gamma) with feasibility straddled."""
    k = int(rng.integers(2, k_max + 1))
    m = int(m_choices[rng.integers(0, len(m_choices))])
    h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)
    gamma = float(10.0 ** rng.uniform(0.0, 1.5))
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    scale = np.where(rng.random(k) < 0.15, 0.02, rng.uniform(0.25, 1.25, size=k))
    r = scale * single
    return h, r, gamma


#: Instances drawn and run before their checks are decided, together for
#: the instances of a block that share K.  A constant, so the check arrays
#: stay bounded for any instance count.
BLOCK = 128


def _replay(evs, rows, runs, eps) -> list[list[tuple[str, tuple[int, ...]]]]:
    """Every group of the SSA and GSA plans of a stack of instances with one
    K, checked against its later groups plus the outage set, all in one
    ``subsets_fit`` call.  Per instance: (algorithm, group) of each group
    that fails, in plan order."""
    replay = []  # (instance, name, group, bitmask of the later groups and the outage set)
    for i, (_, res_ssa, res_gsa, *_) in enumerate(runs):
        for name, res in (("SSA", res_ssa), ("GSA", res_gsa)):
            # the decoded aircraft outside this group and the earlier ones,
            # off a running OR of the plan's group masks, and the outage set
            decoded, outage, before = (sum(1 << j for j in ids) for ids in (res.decoded, res.outage, ()))
            for grp in res.decode_plan:
                before |= sum(1 << j for j in grp)
                replay.append((i, name, grp, decoded & ~before | outage))
    failed: list[list] = [[] for _ in runs]
    if replay:
        k = evs[0].k
        width = max(len(grp) for _, _, grp, _ in replay)
        groups = [grp + (-1,) * (width - len(grp)) for _, _, grp, _ in replay]
        inst, _, _, t = zip(*replay)
        fits = decoders.subsets_fit(capacity_tables(evs), decoders.subset_sums(rows, k), inst,
                                    decoders.subset_masks(groups, k), t, eps)
        for (i, name, grp, _), fit in zip(replay, fits):
            if not fit:
                failed[i].append((name, grp))
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
    evs = [RateEvaluator(h, gamma) for h, _, gamma in instances]
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
        for i, (_, got) in zip(idx, decoders.oracle_best_sic(evs, rows, None)):
            best_sic[i] = len(got)
        for i, got in zip(idx, decoders.oracle_max_set(evs, rows, None)):
            max_set[i] = len(got)
    return [(_problems(run, isu[i][0], failed[i], best_sic[i], max_set[i]), max_set[i])
            for i, run in enumerate(runs)]


def check_instance(h, r, gamma, mutation_eps: float = 0.0) -> tuple[list[tuple[str, str]], int]:
    """``check_block`` on one instance."""
    return check_block([(h, r, gamma)], mutation_eps)[0]


def run_validation(seed: int, instances: int, mutation_eps: float = 0.0) -> ValidationReport:
    """Draw the instances from one stream, in ``BLOCK``s, and check each
    block at once; the report lists violations in instance order."""
    if instances < 1:
        raise ValueError(f"need at least one instance, got {instances}")
    rng = np.random.default_rng(seed)
    report = ValidationReport(instances=instances)
    for start in range(0, instances, BLOCK):
        block = [random_instance(rng) for _ in range(min(BLOCK, instances - start))]
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
