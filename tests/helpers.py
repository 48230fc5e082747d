"""Shared test oracles, independent of the library's evaluation shortcuts."""

import dataclasses
import math
from itertools import combinations

import numpy as np

from noma_outage.rates import subset_conditions_hold


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


# ---------------------------------------------------------------------------
# Reference decoder loops: one Cholesky ``group_rate`` per candidate, the
# loops the elimination arrays in ``decoders`` must reproduce decision for
# decision, mult counts included.
# ---------------------------------------------------------------------------

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
