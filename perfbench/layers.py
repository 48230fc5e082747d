"""The traced run: per-layer metrics from launches with the tracer installed.

The untraced rounds of the run are re-run, same inputs, with ``launch.py``
installing ``tracer.Tracer``; their outputs must equal the untraced ones.
Per-layer values are per trial (per instance on validate) unless the name
says otherwise, and 0 where a layer does not run on the workload.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict

import checks

#: Algorithm token -> name in metric names, where ":" is not allowed.
ALG_NAMES = {tok: tok.replace(":", "-") for tok in checks.ALGORITHMS}

#: name -> unit, in output order; BENCHMARK.json lists the same names.
PER_LAYER = {
    "geometry.placement_ms": "ms", "geometry.map_ms": "ms", "geometry.specular_ms": "ms",
    "geometry.map_rects": "count", "geometry.builds_per_trial": "count", "channel.matrix_ms": "ms",
    "rates.evaluators": "count", "rates.group_rate_calls": "count",
    "rates.capacity_calls": "count", "rates.capacity_misses": "count",
    "rates.capacity_hit_ratio": "ratio", "rates.whitened_inverse_calls": "count",
    "rates.whitened_inverse_misses": "count", "rates.capacity_ms": "ms",
    "rates.whitened_inverse_ms": "ms", "rates.cache_keys_peak": "count",
    **{f"decoders.{a}.{m}": u for a in ALG_NAMES.values()
       for m, u in (("ms", "ms"), ("cold_ms", "ms"), ("ms_max", "ms"),
                    ("group_rate_calls", "count"), ("mults", "count"))},
    "decoders.vblast_order.ms": "ms", "decoders.oracle_max_set.ms": "ms",
    "decoders.oracle_best_sic.ms": "ms",
    "montecarlo.trial_ms.p50": "ms", "montecarlo.trial_ms.p90": "ms",
    "montecarlo.trial_ms.max": "ms", "montecarlo.pools_per_sweep": "count",
    "montecarlo.parallel_efficiency": "ratio", "montecarlo.rounds_cut": "count",
    "validation.instance_ms": "ms", "validation.gsa_calls_per_instance": "count",
    "trace.overhead_pct": "%",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _merge(summaries: list[dict]) -> dict:
    spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    seconds: dict[str, float] = defaultdict(float)
    alg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    alg_max: dict[str, float] = defaultdict(float)
    trial_s: list[float] = []
    for s in summaries:
        for name, tot in s["span_totals"].items():
            for i in range(3):
                spans[name][i] += tot[i]
        for name, v in s["counts"].items():
            counts[name] += v
        for name, v in s["seconds"].items():
            seconds[name] += v
        for tok, stats in s["alg"].items():
            for name, v in stats.items():
                alg[tok][name] += v
        for tok, v in s["alg_trial_max_s"].items():
            alg_max[tok] = max(alg_max[tok], v)
        trial_s += s["trial_s"]
    return {"spans": spans, "counts": counts, "seconds": seconds, "alg": alg,
            "alg_max": alg_max, "trial_s": trial_s,
            "keys_peak": max(s["keys_peak"] for s in summaries)}


def _mults_problems(csv_text: str, alg: dict, trials: int) -> list[str]:
    """The traced per-trial mult counts must add up to the CSV's avg_mults."""
    per_alg: dict[str, float] = defaultdict(float)
    for (tok, _, _), row in checks.parse_csv(csv_text).items():
        per_alg[tok] += row["avg_mults"]
    return [f"{tok}: traced {alg[tok]['mults'] / trials} mults/trial, CSV {v}"
            for tok, v in per_alg.items()
            if abs(alg[tok]["mults"] / trials - v) > 1e-5 * max(v, 1.0)]


#: A traced launch may take this many times its untraced wall time.
TRACE_CAP_FACTOR = 4.0


def traced_metrics(workload, rounds, kept, launch, window: float, e2e: dict) -> dict:
    """Per-layer metrics from tracing the kept rounds again; e2e holds the
    untraced end-to-end metrics of the same rounds."""
    sweep = workload.sweep
    traced = []
    spent = 0.0
    for rnd in kept:
        if traced and spent >= window:
            break
        out = launch.work / f"traced{rnd.index}.csv"
        cap_s = TRACE_CAP_FACTOR * rnd.launches[1]["wall_s"] + 1.0
        res = launch(workload.cli_args(rnd.master_seed, 1, out), 1, cap_s, trace=True)
        if res is None:
            log(f"traced round {rnd.index}: cut at {cap_s:.1f} s")
            continue
        spent += res["setup_s"] + res["run_s"]
        summary = res["trace"]
        if sweep:
            text = out.read_text() if out.exists() else ""
            problems = ["traced CSV differs from untraced"] if text != rnd.outputs[1] else []
            problems += _mults_problems(text, summary["alg"], rnd.n)
        else:
            problems = [] if res["rc"] == 0 else [f"traced validate exit {res['rc']}"]
        for p in problems:
            log(f"traced round {rnd.index}: {p}")
        if problems:
            rnd.failed |= set(range(rnd.n))
        traced.append((rnd, res))
    if not traced:
        raise RuntimeError("no traced round finished")

    pools = 0
    if sweep:
        first = traced[0][0]
        res = launch(workload.cli_args(first.master_seed, 2, launch.work / "pools.csv"), 2,
                     2 * TRACE_CAP_FACTOR * first.launches[2]["wall_s"] + 1.0, trace=True)
        if res is None:
            raise RuntimeError("the traced --threads 2 launch was cut")
        pools = res["trace"]["counts"].get("pools", 0)

    m = _merge([res["trace"] for _, res in traced])
    n_ops = len(m["trial_s"]) if sweep else sum(r.n for r, _ in traced)
    spans, counts, seconds = m["spans"], m["counts"], m["seconds"]

    def per_op(x: float) -> float:
        return x / n_ops

    def span_ms(name: str, self_time: bool = False) -> float:
        return 1000 * per_op(spans[name][2 if self_time else 1]) if name in spans else 0.0

    out = {
        "geometry.placement_ms": span_ms("geometry.placement"),
        "geometry.map_ms": span_ms("geometry.map"),
        "geometry.specular_ms": span_ms("geometry.specular"),
        "geometry.map_rects": per_op(counts["map_rects"]),
        "geometry.builds_per_trial": per_op(spans["montecarlo.build_trial_channel"][0])
        if "montecarlo.build_trial_channel" in spans else 0.0,
        "channel.matrix_ms": span_ms("channel.matrix", self_time=True),
        "rates.evaluators": per_op(counts["evaluators"]),
        "rates.group_rate_calls": per_op(counts["group_rate_calls"]),
        "rates.capacity_calls": per_op(counts["capacity_calls"]),
        "rates.capacity_misses": per_op(counts["capacity_misses"]),
        "rates.capacity_hit_ratio": 1 - counts["capacity_misses"] / max(counts["capacity_calls"], 1),
        "rates.whitened_inverse_calls": per_op(counts["whitened_inverse_calls"]),
        "rates.whitened_inverse_misses": per_op(counts["whitened_inverse_misses"]),
        "rates.capacity_ms": 1000 * per_op(seconds["capacity"]),
        "rates.whitened_inverse_ms": 1000 * per_op(seconds["whitened_inverse"]),
        "rates.cache_keys_peak": m["keys_peak"],
    }
    for tok, name in ALG_NAMES.items():
        stats = m["alg"].get(tok, {})
        out[f"decoders.{name}.ms"] = 1000 * per_op(stats.get("s", 0.0))
        # the cold rerun covers trial 0 of every traced sweep
        out[f"decoders.{name}.cold_ms"] = 1000 * stats.get("cold_s", 0.0) / len(traced)
        out[f"decoders.{name}.ms_max"] = 1000 * m["alg_max"].get(tok, 0.0)
        out[f"decoders.{name}.group_rate_calls"] = per_op(stats.get("group_rate_calls", 0))
        out[f"decoders.{name}.mults"] = per_op(stats.get("mults", 0))
    out["decoders.vblast_order.ms"] = span_ms("decoders.vblast_order")
    out["decoders.oracle_max_set.ms"] = span_ms("decoders.oracle_max_set")
    out["decoders.oracle_best_sic.ms"] = span_ms("decoders.oracle_best_sic")

    trial_ms = sorted(1000 * t for t in m["trial_s"]) if sweep else [0.0, 0.0]
    out["montecarlo.trial_ms.p50"] = statistics.median(trial_ms)
    out["montecarlo.trial_ms.p90"] = statistics.quantiles(trial_ms, n=10, method="inclusive")[8]
    out["montecarlo.trial_ms.max"] = trial_ms[-1]
    out["montecarlo.pools_per_sweep"] = pools
    out["montecarlo.parallel_efficiency"] = (
        e2e["trials_per_s.w2"][0] / (2 * e2e["trials_per_s.w1"][0]) if sweep else 0.0)
    out["montecarlo.rounds_cut"] = len(rounds) - len(kept)
    out["validation.instance_ms"] = 0.0 if sweep else span_ms("validation.run_validation")
    out["validation.gsa_calls_per_instance"] = (
        0.0 if sweep else per_op(spans["decoders.gsa"][0] if "decoders.gsa" in spans else 0))

    traced_s = sum(res["run_s"] - sum(a.get("cold_s", 0.0) for a in res["trace"]["alg"].values())
                   for _, res in traced)
    untraced_s = sum(r.launches[1]["run_s"] for r, _ in traced)
    out["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}
