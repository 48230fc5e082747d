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

import numpy as np

from . import decoders
from .rates import RateEvaluator


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
    m = int(rng.choice(np.asarray(m_choices)))
    h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)
    gamma = float(10.0 ** rng.uniform(0.0, 1.5))
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    scale = np.where(rng.random(k) < 0.15, 0.02, rng.uniform(0.25, 1.25, size=k))
    r = scale * single
    return h, r, gamma


def check_instance(h, r, gamma, mutation_eps: float = 0.0) -> tuple[list[tuple[str, str]], int]:
    """All decoder invariants plus oracle equalities on one instance.

    Returns the list of (kind, detail) violations, empty when everything
    holds, and the size of the oracle's maximum decodable set.
    """
    problems: list[tuple[str, str]] = []
    everyone = frozenset(range(h.shape[1]))
    ev = RateEvaluator(h, gamma)

    res_ssa, res_gsa, res_l2, res_l4 = decoders.successive(ev, r, (0, ev.k, 2, 4), mutation_eps)
    (isu, _), = decoders.isu_rows(ev, [r], mutation_eps)

    for name, res in (("SSA", res_ssa), ("GSA", res_gsa), ("LGSA:2", res_l2)):
        if res.decoded | res.outage != everyone:
            problems.append(("partition", f"{name}: bad partition {res}"))
        if res.decoded & res.outage:
            problems.append(("partition", f"{name}: overlapping sets {res}"))
        planned = [i for grp in res.decode_plan for i in grp]
        if sorted(planned) != sorted(res.decoded):
            problems.append(("plan", f"{name}: plan does not partition decoded set"))

    # plan replay: every group feasible against later groups plus outage
    replay = []  # (name, group, bitmask of the later groups and the outage set)
    for name, res in (("SSA", res_ssa), ("GSA", res_gsa)):
        later = set(res.decoded)
        for grp in res.decode_plan:
            later -= set(grp)
            replay.append((name, grp, sum(1 << i for i in later | res.outage)))
    if replay:
        width = max(len(grp) for _, grp, _ in replay)
        groups = [grp + (-1,) * (width - len(grp)) for _, grp, _ in replay]
        fits = decoders.subsets_fit(ev, decoders.subset_sums(r, ev.k), decoders.subset_masks(groups, ev.k),
                                    [t for _, _, t in replay], mutation_eps)
        for (name, grp, _), fit in zip(replay, fits):
            if not fit:
                problems.append(("plan", f"{name}: group {grp} infeasible on replay"))

    _, best_sic = decoders.oracle_best_sic(ev, r, gamma)
    if len(res_ssa.decoded) != len(best_sic):
        problems.append(
            ("ssa_optimality", f"SSA decoded {len(res_ssa.decoded)}, best order {len(best_sic)}")
        )
    max_set = decoders.oracle_max_set(ev, r, gamma)
    if len(res_gsa.decoded) != len(max_set):
        problems.append(
            ("gsa_optimality", f"GSA decoded {len(res_gsa.decoded)}, oracle {len(max_set)}")
        )

    if not set(isu) <= res_ssa.decoded:
        problems.append(("containment", "ISU set not inside SSA set"))
    if not (
        len(res_ssa.decoded) <= len(res_l2.decoded) <= len(res_l4.decoded) <= len(res_gsa.decoded)
    ):
        problems.append(("containment", "SSA/LGSA/GSA size chain violated"))
    return problems, len(max_set)


def run_validation(seed: int, instances: int, mutation_eps: float = 0.0) -> ValidationReport:
    if instances < 1:
        raise ValueError(f"need at least one instance, got {instances}")
    rng = np.random.default_rng(seed)
    report = ValidationReport(instances=instances)
    for idx in range(instances):
        h, r, gamma = random_instance(rng)
        problems, n_dec = check_instance(h, r, gamma, mutation_eps)
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
