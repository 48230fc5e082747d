"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of noma_outage with
wrappers, at the names their callers look them up by, so a sweep or a
validation run records:

- a span (name, start, end, parent) around each coarse call: channel build,
  placement, reflector map, specular search, channel matrix, each algorithm
  token of ``run_algorithms``, V-BLAST ordering and the brute-force oracles;
- counts and summed times for the hot ``RateEvaluator`` methods, which run
  too often for a span each;
- per-trial times, from one ``build_trial_channel`` entry to the next;
- on the first trial of a sweep, each algorithm again on a fresh evaluator
  (cold cache), with every other record paused.

Spans stay in memory and are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from noma_outage import channel, cli, decoders, montecarlo, rates

COLD_TRIAL = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, child_seconds]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.paused = False
        self.keys_peak = 0
        self.trial: int | None = None
        self._segment_start = 0.0
        self._segment_cold = 0.0
        self.trial_s: dict[int, float] = defaultdict(float)
        self.alg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.alg_trial_s: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> float:
        rec[2] = perf_counter()
        self._stack.pop()
        dur = rec[2] - rec[1]
        if rec[3] >= 0:
            self.spans[rec[3]][4] += dur
        return dur

    def spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, res)
            return res

        return wrapper

    # -- trials -------------------------------------------------------------

    def _start_trial(self, trial: int) -> None:
        now = perf_counter()
        self.end_trial(now)
        self.trial, self._segment_start, self._segment_cold = trial, now, 0.0

    def end_trial(self, now: float | None = None) -> None:
        if self.trial is not None:
            now = perf_counter() if now is None else now
            self.trial_s[self.trial] += now - self._segment_start - self._segment_cold
            self.trial = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mc = montecarlo

        def build_started(args, kwargs):
            self._start_trial(int(args[1] if len(args) > 1 else kwargs["trial_index"]))

        build = mc.build_trial_channel

        def build_trial_channel(*args, **kwargs):
            if not self.paused:
                build_started(args, kwargs)
            return build(*args, **kwargs)

        mc.build_trial_channel = self.spanned("montecarlo.build_trial_channel", build_trial_channel)
        mc.scenario_geometry = self.spanned("geometry.placement", mc.scenario_geometry)

        def count_rects(args, refl):
            self.counts["map_rects"] += len(refl.rects)

        mc.build_reflector_map = self.spanned("geometry.map", mc.build_reflector_map, count_rects)
        channel.specular_reflection_points_batch = self.spanned(
            "geometry.specular", channel.specular_reflection_points_batch
        )
        mc.channel_matrix = self.spanned("channel.matrix", mc.channel_matrix)
        mc.run_algorithms = self._split_run_algorithms(mc.run_algorithms)

        decoders.vblast_order = self.spanned("decoders.vblast_order", decoders.vblast_order)
        decoders.oracle_max_set = self.spanned("decoders.oracle_max_set", decoders.oracle_max_set)
        decoders.oracle_best_sic = self.spanned("decoders.oracle_best_sic", decoders.oracle_best_sic)
        decoders.gsa = self.spanned("decoders.gsa", decoders.gsa)
        cli.run_validation = self.spanned("validation.run_validation", cli.run_validation)

        tracer = self

        class CountingPool(mc.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.counts["pools"] += 1
                super().__init__(*args, **kwargs)

        mc.ProcessPoolExecutor = CountingPool
        self._install_rates(rates.RateEvaluator)

    def _install_rates(self, cls) -> None:
        init, capacity, inverse, group_rate = (
            cls.__init__, cls.capacity, cls.whitened_inverse, cls.group_rate)
        tracer = self

        def __init__(ev, *args, **kwargs):
            init(ev, *args, **kwargs)
            if not tracer.paused:
                tracer.counts["evaluators"] += 1
                ev._bench_keys = set()

        def timed(fn, name):
            def wrapper(ev, ids, *args):
                if tracer.paused:
                    return fn(ev, ids, *args)
                t0 = perf_counter()
                val = fn(ev, ids, *args)
                tracer.seconds[name] += perf_counter() - t0
                tracer.counts[name + "_calls"] += 1
                keys = ev.__dict__.get("_bench_keys")
                if keys is not None:
                    key = (name, tuple(sorted(ids)))
                    if key not in keys:
                        keys.add(key)
                        tracer.counts[name + "_misses"] += 1
                        tracer.keys_peak = max(tracer.keys_peak, len(keys))
                return val

            return wrapper

        def counted_group_rate(ev, *args, **kwargs):
            if not tracer.paused:
                tracer.counts["group_rate_calls"] += 1
            return group_rate(ev, *args, **kwargs)

        cls.__init__ = __init__
        cls.capacity = timed(capacity, "capacity")
        cls.whitened_inverse = timed(inverse, "whitened_inverse")
        cls.group_rate = counted_group_rate

    def _split_run_algorithms(self, run_algorithms):
        """Run the requested tokens one at a time, in the program's order and
        on its shared evaluator, so each token gets its own span."""

        def wrapper(ev, h, rates_, gamma, algorithms, random_order, eps=0.0):
            if self.paused:
                return run_algorithms(ev, h, rates_, gamma, algorithms, random_order, eps=eps)
            results = {}
            for token in algorithms:
                calls = self.counts["group_rate_calls"]
                rec = self._open("alg:" + token)
                try:
                    results.update(run_algorithms(ev, h, rates_, gamma, (token,), random_order, eps=eps))
                finally:
                    dur = self._close(rec)
                stats = self.alg[token]
                stats["s"] += dur
                stats["group_rate_calls"] += self.counts["group_rate_calls"] - calls
                stats["mults"] += results[token].mult_count
                self.alg_trial_s[token][self.trial] += dur
            if self.trial == COLD_TRIAL:
                self._cold(run_algorithms, ev, h, rates_, gamma, algorithms, random_order, eps)
            return results

        return wrapper

    def _cold(self, run_algorithms, ev, h, rates_, gamma, algorithms, random_order, eps) -> None:
        self.paused = True
        t_all = perf_counter()
        try:
            for token in algorithms:
                fresh = type(ev)(h, gamma)
                t0 = perf_counter()
                run_algorithms(fresh, h, rates_, gamma, (token,), random_order, eps=eps)
                self.alg[token]["cold_s"] += perf_counter() - t0
        finally:
            self.paused = False
            self._segment_cold += perf_counter() - t_all

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        totals: dict[str, list[float]] = {}
        for name, start, end, _, child in self.spans:
            tot = totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += end - start
            tot[2] += end - start - child
        return {
            "span_totals": totals,
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "keys_peak": self.keys_peak,
            "trial_s": list(self.trial_s.values()),
            "alg": {tok: dict(v) for tok, v in self.alg.items()},
            "alg_trial_max_s": {tok: max(v.values()) for tok, v in self.alg_trial_s.items()},
        }

    def dump(self, path: str) -> dict:
        summary = self.summary()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [rec[:4] for rec in self.spans], **summary}, fh)
        return summary
