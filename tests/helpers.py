"""Shared test oracles, independent of the library's evaluation shortcuts."""

import dataclasses
import math
from itertools import combinations, permutations

import numpy as np

from noma_outage import decoders
from noma_outage.geometry import (
    _MAP_LAYOUTS,
    _MAX_FILL,
    MAX_PLACEMENT_ATTEMPTS,
    CellCapacityError,
    EarthModel,
    GeoPoint,
    _local_frame,
    _rect_disc_areas,
    gs_point,
)
from noma_outage.rates import MultCounter, RateEvaluator


def direct_group_rate(h, s, t, gamma):
    """Conditional group rate straight from the defining formula, with an
    explicit M x M inverse and determinant."""
    h = np.asarray(h, dtype=complex)
    m = h.shape[0]
    s = sorted(s)
    t = sorted(t)
    if not s:
        return 0.0
    eye = np.eye(m, dtype=complex)
    h_s = h[:, s]
    a = gamma * (h_s @ h_s.conj().T)
    if t:
        h_t = h[:, t]
        b = eye + gamma * (h_t @ h_t.conj().T)
        a = a @ np.linalg.inv(b)
    sign, logdet = np.linalg.slogdet(eye + a)
    assert sign.real > 0
    return float(logdet / np.log(2.0))


def random_channel(rng, m, k):
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)


def great_circle_distance(earth, a, b):
    """Surface distance between the ground projections of two GeoPoints."""
    ua, ub = a.unit(), b.unit()
    c = float(np.dot(ua, ub))
    s = float(np.linalg.norm(np.cross(ua, ub)))
    return earth.radius_m * math.atan2(s, c)


def los_channel(element_pos, ac_pos, wavelength_m):
    """Line-of-sight entry for one element/aircraft pair, straight from the
    ray formula a_L exp(-j 2 pi d_L / lambda), a_L = lambda / (4 pi d_L)."""
    d = float(np.linalg.norm(np.asarray(ac_pos, float) - np.asarray(element_pos, float)))
    if d <= 0.0:
        raise ValueError("element and aircraft positions must be distinct")
    amp = wavelength_m / (4.0 * math.pi * d)
    return amp * np.exp(-2j * math.pi * d / wavelength_m)


def gmp_channel(element_pos, ac_pos, spec_xyz, rho_v, wavelength_m):
    """Ground-multipath entry: reflected ray through the specular point."""
    e = np.asarray(element_pos, float)
    a = np.asarray(ac_pos, float)
    s = np.asarray(spec_xyz, float)
    d = float(np.linalg.norm(s - e) + np.linalg.norm(a - s))
    amp = wavelength_m / (4.0 * math.pi * d)
    return rho_v * amp * np.exp(-2j * math.pi * d / wavelength_m)


def covers_brute_force(rects, x, y):
    """Inclusive point-in-any-rectangle test against every rectangle."""
    px = np.asarray(x, float)[:, None]
    py = np.asarray(y, float)[:, None]
    r = np.asarray(rects, float).reshape(-1, 4)
    return (
        (px >= r[None, :, 0]) & (px <= r[None, :, 2]) & (py >= r[None, :, 1]) & (py <= r[None, :, 3])
    ).any(axis=1)


def config_dict(cfg):
    """Every field of a config as plain YAML-ready data: nested blocks as
    mappings, tuples as lists."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: config_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, tuple):
        return [config_dict(v) for v in cfg]
    return cfg


def schur(ev, s_hat):
    """I + gG with the outage set eliminated, as the prunes keep it."""
    a = ev.a.copy()
    for p in sorted(s_hat):
        decoders._eliminate(a, p)
    return a


# ---------------------------------------------------------------------------
# One-problem forms of the decoders' stacked loops
# ---------------------------------------------------------------------------

def decode_with_order(h, r, order, gamma, counter=None, eps=0.0):
    """Walk a fixed decoding order; a failed aircraft stays as interference
    for everyone after it.  One problem of ``decoders.one_at_a_time``."""
    ev = h if isinstance(h, RateEvaluator) else RateEvaluator(h, gamma)
    (done, mults), = decoders.one_at_a_time([ev], [(0, np.asarray(r, dtype=float), order)], eps)
    if counter is not None:
        counter.add(mults)
    return frozenset(done)


def isu_set(h, r, gamma, counter=None, eps=0.0):
    """Independent single-user decoders.  One problem of
    ``decoders.one_at_a_time``."""
    ev = h if isinstance(h, RateEvaluator) else RateEvaluator(h, gamma)
    (done, mults), = decoders.one_at_a_time([ev], [(0, np.asarray(r, dtype=float), decoders.ISU)], eps)
    if counter is not None:
        counter.add(mults)
    return frozenset(done)


# ---------------------------------------------------------------------------
# Reference decoder loops: one Cholesky ``group_rate`` per candidate, the
# loops the elimination arrays in ``decoders`` must reproduce decision for
# decision, mult counts included.
# ---------------------------------------------------------------------------

def subset_conditions_hold(ev, r, c, t, counter=None, eps=0.0, skip_full=False):
    """True iff every nonempty subset S of C satisfies sum(r_S) <= R_S^T + eps.

    Short-circuits on the first violated subset; subsets are scanned largest
    first, in combinations order within a size.  With ``skip_full`` the full
    set C is taken as already checked."""
    t = tuple(sorted(t))
    items = sorted(c)
    for size in range(len(items) - 1 if skip_full else len(items), 0, -1):
        for s in combinations(items, size):
            if float(r[list(s)].sum()) > ev.group_rate(s, t, counter) + eps:
                return False
    return True


def ref_oracle_max_set(ev, r, eps=0.0):
    """The first set, by decreasing size and lexicographic within a size,
    whose every subset fits under the complement's interference."""
    rr = np.asarray(r, dtype=float)
    everyone = frozenset(range(ev.k))
    for size in range(ev.k, 0, -1):
        for cand in combinations(sorted(everyone), size):
            if subset_conditions_hold(ev, rr, cand, everyone - set(cand), None, eps):
                return frozenset(cand)
    return frozenset()


def ref_oracle_best_sic(ev, r, eps=0.0):
    """The first order, lexicographically, with the longest prefix that
    decodes stopping at the first failure, and that prefix as a set."""
    rr = np.asarray(r, dtype=float)
    best_order, best_len = tuple(range(ev.k)), -1
    for perm in permutations(range(ev.k)):
        n = 0
        for u, i_u in enumerate(perm):
            if rr[i_u] > ev.group_rate((i_u,), perm[u + 1 :]) + eps:
                break
            n += 1
        if n > best_len:
            best_order, best_len = perm, n
            if best_len == ev.k:
                break
    return best_order, frozenset(best_order[:best_len])


def ref_check_instance(h, r, gamma, mutation_eps=0.0):
    """``validation.check_instance`` one instance at a time, on the reference
    oracles and a ``group_rate`` replay: (kind, detail) of each violation,
    in check order, and the size of the maximum decodable set."""
    problems = []
    everyone = frozenset(range(h.shape[1]))
    ev = RateEvaluator(h, gamma)
    res_ssa, res_gsa, res_l2, res_l4 = decoders.successive(ev, r, (0, ev.k, 2, 4), mutation_eps)
    isu = isu_set(ev, r, gamma, eps=mutation_eps)
    for name, res in (("SSA", res_ssa), ("GSA", res_gsa), ("LGSA:2", res_l2)):
        if res.decoded | res.outage != everyone:
            problems.append(("partition", f"{name}: bad partition {res}"))
        if res.decoded & res.outage:
            problems.append(("partition", f"{name}: overlapping sets {res}"))
        planned = [i for grp in res.decode_plan for i in grp]
        if sorted(planned) != sorted(res.decoded):
            problems.append(("plan", f"{name}: plan does not partition decoded set"))
    for name, res in (("SSA", res_ssa), ("GSA", res_gsa)):
        later = set(res.decoded)
        for grp in res.decode_plan:
            later -= set(grp)
            if not subset_conditions_hold(ev, r, grp, later | res.outage, None, mutation_eps):
                problems.append(("plan", f"{name}: group {grp} infeasible on replay"))
    _, best_sic = ref_oracle_best_sic(ev, r)
    if len(res_ssa.decoded) != len(best_sic):
        problems.append(("ssa_optimality", f"SSA decoded {len(res_ssa.decoded)}, best order {len(best_sic)}"))
    max_set = ref_oracle_max_set(ev, r)
    if len(res_gsa.decoded) != len(max_set):
        problems.append(("gsa_optimality", f"GSA decoded {len(res_gsa.decoded)}, oracle {len(max_set)}"))
    if not set(isu) <= res_ssa.decoded:
        problems.append(("containment", "ISU set not inside SSA set"))
    if not len(res_ssa.decoded) <= len(res_l2.decoded) <= len(res_l4.decoded) <= len(res_gsa.decoded):
        problems.append(("containment", "SSA/LGSA/GSA size chain violated"))
    return problems, len(max_set)


def ref_successive(ev, r, limits, eps=0.0):
    """``decoders.successive`` as it ran before the stacked front: the prune
    and greedy SIC one row at a time, ``_prune_aircraft`` on a copy of
    I + gG and the size-one group scan on a copy of the full-set inverse,
    then the pair prune and the group scans.  Returns the front, as
    (undetermined set, outage set, plan, mults), the prune's outage set and
    mults, and one outcome per limit."""
    rr = np.asarray(r, dtype=float)
    counter = MultCounter()
    l_set, s_star, s_hat, plan = set(range(ev.k)), set(), set(), []
    w = ev.whitened_inverse(range(ev.k)).copy()
    a = ev.a.copy()
    decoders._prune_aircraft(ev, a, rr, l_set, s_hat, counter, eps)
    pruned = (set(s_hat), counter.total)
    decoders._greedy_group(ev, w, rr, l_set, s_star, s_hat, plan, 1, counter, eps, 1)
    front = (set(l_set), set(s_hat), list(plan), counter.total)
    by_limit, v = {}, 0
    for limit in sorted(set(limits)):
        if limit >= 1:
            if not v:
                decoders._prune_subsets(ev, a, rr, l_set, s_hat, counter, eps)
                v = 2
            v = decoders._greedy_group(ev, w, rr, l_set, s_star, s_hat, plan, limit, counter, eps, v)
        by_limit[limit] = decoders.DecodeOutcome(frozenset(s_star), frozenset(s_hat | l_set), tuple(plan),
                                                 counter.total)
    return front, pruned, [by_limit[limit] for limit in limits]


def watch_run_starts(monkeypatch) -> list[str]:
    """Record every call that starts a nested decoder run one row at a
    time: ``_prune_aircraft`` outside the pair prune's re-entry, a size-one
    group scan outside ``_greedy_group``, and ``_greedy_group`` from v = 1
    with aircraft left to scan.  A run that continues from its front starts
    at the pair prune and scans singletons only after a group hit."""
    seen: list[str] = []
    inside = {"_prune_subsets": 0, "_greedy_group": 0}

    def watched(name):
        inner = getattr(decoders, name)

        def wrapper(*args):
            if name == "_prune_aircraft" and not inside["_prune_subsets"]:
                seen.append("prune at a run's start")
            if name == "_scan_groups_of_size" and args[5] == 1 and not inside["_greedy_group"]:
                seen.append("size-one scan outside a group search")
            if name == "_greedy_group" and args[10] == 1 and args[3]:  # from v = 1 with L not empty
                seen.append("greedy SIC at a run's start")
            if name in inside:
                inside[name] += 1
            try:
                return inner(*args)
            finally:
                if name in inside:
                    inside[name] -= 1

        monkeypatch.setattr(decoders, name, wrapper)

    for name in ("_prune_aircraft", "_prune_subsets", "_greedy_group", "_scan_groups_of_size"):
        watched(name)
    return seen


def ref_random_instance(rng, k_max=5, m_choices=(2, 4, 8)):
    """``validation.random_instance`` as it drew M with ``rng.choice``."""
    k = int(rng.integers(2, k_max + 1))
    m = int(rng.choice(np.asarray(m_choices)))
    h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)
    gamma = float(10.0 ** rng.uniform(0.0, 1.5))
    single = np.log2(1.0 + gamma * np.sum(np.abs(h) ** 2, axis=0))
    scale = np.where(rng.random(k) < 0.15, 0.02, rng.uniform(0.25, 1.25, size=k))
    return h, scale * single, gamma


def ref_prune_aircraft(ev, r, l_set, s_hat, counter, eps):
    while l_set:
        before = len(s_hat)
        for l in sorted(l_set):
            if r[l] > ev.group_rate((l,), s_hat, counter) + eps:
                l_set.discard(l)
                s_hat.add(l)
        if len(s_hat) == before:
            break


def ref_greedy_sic(ev, r, l_set, s_star, s_hat, plan, counter, eps):
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


def ref_greedy_group(ev, r, l_set, s_star, s_hat, plan, v_max, counter, eps, v):
    while v <= min(len(l_set), v_max):
        for c in combinations(sorted(l_set), v):
            if subset_conditions_hold(ev, r, c, (l_set | s_hat) - set(c), counter, eps):
                l_set.difference_update(c)
                s_star.update(c)
                plan.append(c)
                v = 1
                break
        else:
            v += 1
    return v


def ref_prune_subsets(ev, r, l_set, s_hat, counter, eps):
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
        ref_prune_aircraft(ev, r, l_set, s_hat, counter, eps)


def ref_decode_with_order(ev, r, order, counter, eps):
    decoded, s_hat = set(), set()
    for u, i_u in enumerate(order):
        f_u = s_hat | set(order[u + 1 :])
        if r[i_u] <= ev.group_rate((i_u,), f_u, counter) + eps:
            decoded.add(i_u)
        else:
            s_hat.add(i_u)
    return frozenset(decoded)


def ref_vblast_order(ev, counter):
    remaining = set(range(ev.k))
    order = []
    while remaining:
        best_k, best_rate = -1, -np.inf
        for k in sorted(remaining):
            rate = ev.group_rate((k,), remaining - {k}, counter)
            if rate > best_rate:
                best_k, best_rate = k, rate
        order.append(best_k)
        remaining.discard(best_k)
    return tuple(order)


def ref_isu_set(ev, r, counter, eps):
    everyone = set(range(ev.k))
    return frozenset(
        k for k in everyone if r[k] <= ev.group_rate((k,), everyone - {k}, counter) + eps
    )


# ---------------------------------------------------------------------------
# Reference reflector-map build: one pass per row and one Python step per
# removed rectangle, the loops the batched ``geometry`` code must reproduce
# bit for bit, stream consumption included.
# ---------------------------------------------------------------------------

def ref_lay_rows(rng, radius, smin, smax, fill):
    mean_w = 0.5 * (smin + smax)
    mean_gap = mean_w * (1.0 - fill) / fill
    xlo, xhi = -radius - smax, radius + smax
    span = xhi - xlo

    rows = []
    y = xlo
    while y < radius + smax:
        h = rng.uniform(smin, smax)
        n = int(span / (mean_w + mean_gap) * 1.6) + 16
        widths = rng.uniform(smin, smax, size=n)
        gaps = rng.uniform(0.0, 2.0 * mean_gap, size=n)
        starts = xlo - rng.uniform(0.0, smax + 2.0 * mean_gap) + np.r_[0.0, np.cumsum(widths + gaps)[:-1]]
        while starts[-1] + widths[-1] < xhi:  # rare: row not yet spanned
            more_w = rng.uniform(smin, smax, size=n)
            more_g = rng.uniform(0.0, 2.0 * mean_gap, size=n)
            more_s = starts[-1] + widths[-1] + gaps[-1] + np.r_[0.0, np.cumsum(more_w + more_g)[:-1]]
            starts = np.r_[starts, more_s]
            widths = np.r_[widths, more_w]
            gaps = np.r_[gaps, more_g]
        rect = np.column_stack([starts, np.full_like(starts, y), starts + widths, np.full_like(starts, y + h)])
        cx = np.clip(0.0, rect[:, 0], rect[:, 2])
        cy = np.clip(0.0, rect[:, 1], rect[:, 3])
        rows.append(rect[cx**2 + cy**2 <= radius**2])
        y += h
    return np.vstack(rows) if rows else np.zeros((0, 4))


def ref_build_reflector_map(cfg, seed):
    """(rects, area_in_disc_m2) of ``geometry.build_reflector_map``."""
    rng = np.random.default_rng(seed)
    radius = cfg.cell_radius_m
    smin, smax = cfg.rectangle_sides.min_m, cfg.rectangle_sides.max_m
    target_area = cfg.coverage_fraction * (math.pi * radius**2)
    fill = min(cfg.coverage_fraction * 1.08 + 0.01, _MAX_FILL)
    for _ in range(_MAP_LAYOUTS):
        rects = ref_lay_rows(rng, radius, smin, smax, fill)
        areas = _rect_disc_areas(rects, radius)
        total = float(areas.sum())
        if total >= target_area:
            break
        fill = 0.5 * (fill + _MAX_FILL)
    else:
        raise AssertionError("coverage target unreachable")

    order = rng.permutation(len(rects))
    keep = np.ones(len(rects), dtype=bool)
    for idx in order:
        if total <= target_area:
            break
        keep[idx] = False
        total -= areas[idx]
    return rects[keep], total


# ---------------------------------------------------------------------------
# Reference specular search: 60 bisection steps on the arc parameter with the
# grazing angles taken from 3-D points at every step, the search the planar
# solve in ``geometry.specular_reflection_points_batch`` must agree with.
# ---------------------------------------------------------------------------

def ref_specular_points(gs, aircraft_xyz, earth):
    re = earth.radius_m
    g = gs.xyz(earth)
    a = np.atleast_2d(np.asarray(aircraft_xyz, dtype=float))
    u1 = g / np.linalg.norm(g)
    u2 = a / np.linalg.norm(a, axis=1, keepdims=True)
    cosw = np.clip(u2 @ u1, -1.0, 1.0)
    sinw = np.linalg.norm(np.cross(np.broadcast_to(u1, u2.shape), u2), axis=1)
    omega = np.arctan2(sinw, cosw)
    degenerate = sinw < 1e-15

    def surface(t):
        s = np.where(degenerate, 1.0, sinw)
        w1 = np.sin((1.0 - t) * omega) / s
        w2 = np.sin(t * omega) / s
        u = w1[:, None] * u1[None, :] + w2[:, None] * u2
        u[degenerate] = u1
        return re * u

    def grazing_gap(t):
        x = surface(t)
        n = x / re
        to_g = g - x
        to_a = a - x
        s1 = np.sum(to_g * n, axis=1) / np.linalg.norm(to_g, axis=1)
        s2 = np.sum(to_a * n, axis=1) / np.linalg.norm(to_a, axis=1)
        return np.arcsin(np.clip(s1, -1, 1)) - np.arcsin(np.clip(s2, -1, 1))

    blo = np.zeros(len(a))
    bhi = np.ones(len(a))
    for _ in range(60):
        mid = 0.5 * (blo + bhi)
        pos = grazing_gap(mid) > 0
        blo = np.where(pos, mid, blo)
        bhi = np.where(pos, bhi, mid)
    return surface(0.5 * (blo + bhi))


# ---------------------------------------------------------------------------
# Reference aircraft placement: numpy 3-vectors per candidate and one norm
# per accepted aircraft, the loop ``geometry.sample_aircraft_positions`` must
# reproduce bit for bit, stream consumption included.
# ---------------------------------------------------------------------------

def ref_point_from_local(center, earth, x_east, y_north, height_m):
    up, east, north = _local_frame(center)
    rho = math.hypot(x_east, y_north)
    theta = rho / earth.radius_m
    if rho < 1e-12:
        u = up
    else:
        d = (x_east * east + y_north * north) / rho
        u = math.cos(theta) * up + math.sin(theta) * d
    return GeoPoint(math.asin(np.clip(u[2], -1.0, 1.0)), math.atan2(u[1], u[0]), height_m)


def ref_sample_aircraft_positions(cfg, rng):
    earth = EarthModel(cfg.earth_radius_m)
    center = gs_point(cfg)
    points = []
    accepted_xyz = []
    for _ in range(cfg.k_aircraft):
        for attempt in range(MAX_PLACEMENT_ATTEMPTS):
            r = cfg.cell_radius_m * math.sqrt(rng.random())
            az = 2.0 * math.pi * rng.random()
            pt = ref_point_from_local(
                center, earth, r * math.sin(az), r * math.cos(az), cfg.aircraft_altitude_m
            )
            xyz = pt.xyz(earth)
            if all(
                np.linalg.norm(xyz - other) >= cfg.min_separation_m for other in accepted_xyz
            ):
                points.append(pt)
                accepted_xyz.append(xyz)
                break
        else:
            raise CellCapacityError(
                f"could not place aircraft {len(points) + 1}/{cfg.k_aircraft} with "
                f"{cfg.min_separation_m} m separation in {MAX_PLACEMENT_ATTEMPTS} attempts"
            )
    return points
