"""Benchmark of noma-outage: Monte Carlo sweeps and oracle validation.

    python3 perfbench/run.py --workload fig4-equal-rate --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is run from ``src``.
Each run is a sequence of rounds.  A round launches the program's CLI in a
fresh interpreter once per worker setting (``--threads 1``, then ``2``) on
the same inputs, whose master seed comes from ``--seed`` and the round
number, and then checks both outputs.  Rounds start until their launches
have taken ``--seconds``.  The last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a separate traced run (``--trace 1``); see perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process, for the program and for the checks; set before
# numpy is imported anywhere.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: A --threads 1 launch is stopped, and its round cut, once it or one of its
#: segments runs CAP_FACTOR times as long as the median over the rounds that
#: ran to the end so far, and never later than CAP_SHARE of --seconds or
#: CAP_FLOOR_S, whichever is longer.  The same rule over the whole run leaves
#: out of the metrics the rounds it would have cut.  See README: the GSA tail
#: on equal-rate trials.
CAP_FACTOR = 3.0
CAP_SHARE = 1 / 6
CAP_FLOOR_S = 5.0
#: Every this many validate instances, GSA is compared with brute force.
SAMPLE_EVERY = 10

WORKLOADS = {
    # name: (kind, preset, operations per round, seed salt)
    "fig4-equal-rate": ("sweep", "paper-fig4", 4, 4),
    "fig5-variable-rate": ("sweep", "paper-fig5", 4, 5),
    "validate-oracle": ("validate", None, 300, 9),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Launcher:
    """Starts ``launch.py`` children one at a time and stops each one that
    outlives its cap, together with any worker processes it started.

    A launch given ``segment_caps`` writes the time each channel build
    starts; it is also stopped when its current segment (from one build to
    the next) outlives the cap for that segment's position."""

    POLL_S = 0.02

    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0
        self.proc: subprocess.Popen | None = None

    def __call__(self, cli_args: list[str], workers: int, cap_s: float,
                 segment_caps: list[float] | None = None, trace: bool = False):
        self.count += 1
        stem = self.work / f"launch{self.count}"
        result, progress = stem.with_suffix(".json"), stem.with_suffix(".progress")
        trace_path = stem.with_suffix(".trace.json") if trace else "-"
        env = dict(os.environ, PYTHONPATH=str(SRC), NOMA_OUTAGE_THREADS=str(workers), **BLAS_ENV)
        t_spawn = time.monotonic()
        with open(stem.with_suffix(".err"), "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), str(result), str(trace_path),
                 str(progress) if segment_caps is not None else "-", *cli_args],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            try:
                if not self._wait(t_spawn + cap_s, progress, segment_caps):
                    self.stop()
                    return None
            finally:
                self.proc = None
        wall_s = time.monotonic() - t_spawn
        res = json.loads(result.read_text()) if result.exists() else {}
        if "t_first" not in res:
            raise RuntimeError(f"launch {cli_args} reached no trial: "
                               f"{stem.with_suffix('.err').read_text()[-400:]}")
        res["setup_s"] = res["t_first"] - t_spawn
        res["run_s"] = res["t_end"] - res["t_first"]
        res["wall_s"] = wall_s
        if segment_caps is not None:
            starts = [float(x) for x in progress.read_text().split()] + [res["t_end"]]
            res["segments"] = [b - a for a, b in zip(starts, starts[1:])]
        return res

    def _wait(self, deadline: float, progress: Path, segment_caps) -> bool:
        """True once the child has exited, False when a cap ran out."""
        while True:
            try:
                self.proc.wait(timeout=self.POLL_S)
                return True
            except subprocess.TimeoutExpired:
                pass
            now = time.monotonic()
            if now > deadline:
                return False
            if segment_caps and progress.exists():
                starts = progress.read_text().split("\n")[:-1]  # whole lines only
                j = len(starts) - 1
                if 0 <= j < len(segment_caps) and now - float(starts[j]) > segment_caps[j]:
                    return False

    def stop(self) -> None:
        """Kill the child's process group and wait until all of it is gone,
        worker processes included."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(self.POLL_S)


class Round:
    """One round: both launches and the trials or instances that failed."""

    def __init__(self, index: int, master_seed: int, n: int) -> None:
        self.index, self.master_seed, self.n = index, master_seed, n
        self.launches: dict[int, dict] = {}
        self.outputs: dict[int, str] = {}
        self.failed: set[int] = set()
        self.cut_after: float | None = None  # seconds until a launch was stopped

    @property
    def cut(self) -> bool:
        return self.cut_after is not None


class SweepWorkload:
    sweep = True

    def __init__(self, preset: str, per_round: int) -> None:
        from noma_outage.cli import PRESETS
        from noma_outage.config import EQUAL_RATE, ScenarioConfig

        self.preset, self.n = preset, per_round
        self.base = ScenarioConfig().replace(**PRESETS[preset], algorithms=checks.ALGORITHMS)
        self.equal = self.base.rate_mode == EQUAL_RATE
        if self.equal:
            self.points = [(self.base.k_aircraft, float(r)) for r in self.base.r_g_list]
        else:
            self.points = [(int(k), float(self.base.r_g)) for k in self.base.k_list]

    def cli_args(self, master_seed: int, workers: int, out: Path) -> list[str]:
        return ["sweep", "--preset", self.preset, "--trials", str(self.n), "--seed",
                str(master_seed), "--threads", str(workers), "--out", str(out)]

    def _trial_inputs(self, cfg, trial: int):
        """(H, gamma, rates, random order) of a trial, once per channel it
        builds: rates has one row per sweep point that uses the channel."""
        from noma_outage.channel import LinkBudget
        from noma_outage.montecarlo import build_trial_channel, draw_variable_rates

        random_order = checks.random_order
        gamma = LinkBudget.from_config(cfg).snr_linear
        if self.equal:
            h = build_trial_channel(cfg, trial).h
            k = cfg.k_aircraft
            r = np.repeat(np.asarray(cfg.r_g_list, float)[:, None], k, axis=1)
            yield h, gamma, r, random_order(cfg.master_seed, trial, k)
            return
        for k in cfg.k_list:
            cfg_k = cfg.replace(k_aircraft=int(k))
            h = build_trial_channel(cfg_k, trial).h
            r = draw_variable_rates(cfg_k, trial)[None, :]
            yield h, gamma, r, random_order(cfg.master_seed, trial, int(k))

    def check(self, rnd: Round) -> list[str]:
        """Checks one round's CSVs; returns the problems and fills
        ``rnd.failed``."""
        from noma_outage.montecarlo import run_trial

        everyone = set(range(self.n))
        problems = []
        if rnd.outputs[1] != rnd.outputs[2]:
            problems.append("--threads 1 and --threads 2 CSVs differ")
        rows = checks.parse_csv(rnd.outputs[1])
        problems += checks.csv_problems(
            rows, self.points, checks.ALGORITHMS, self.n, rnd.master_seed, self.equal)
        cfg = self.base.replace(master_seed=rnd.master_seed, trials=self.n)

        # decoded counts of ISU and the SIC baselines, recomputed per trial
        totals = {tok: np.zeros(len(self.points), int) for tok in checks.SIC_TOKENS}
        unsure = np.zeros(len(self.points), bool)
        first = []
        for trial in range(self.n):
            per_group = []
            for h, gamma, r, order in self._trial_inputs(cfg, trial):
                per_group.append((h, gamma, r, checks.sic_counts(h, gamma, r, order)))
            for tok in checks.SIC_TOKENS:
                counts = np.concatenate([g[3][tok][0] for g in per_group])
                totals[tok] += counts
                unsure |= np.concatenate([g[3][tok][1] for g in per_group])
            if trial == 0:
                first = per_group
        if not problems:
            for tok in checks.SIC_TOKENS:
                for p, (k, rg) in enumerate(self.points):
                    if not unsure[p] and rows[(tok, k, rg)]["decoded"] != totals[tok][p]:
                        problems.append(
                            f"{tok} K={k} r_G={rg}: CSV {rows[(tok, k, rg)]['decoded']} "
                            f"decoded, recomputed {totals[tok][p]}")
        if problems:
            rnd.failed |= everyone

        # trial 0 on a rotating sample of sweep points: the program's decode
        # plans are replayed and its per-trial counts compared
        for q in range(3 if self.equal else 2):
            p = ((3 if self.equal else 2) * rnd.index + q) % len(self.points)
            k, r_g = self.points[p]
            if self.equal:
                (h, gamma, r, sic), row = first[0], p
                outcomes = run_trial(cfg, 0, r_g)
            else:
                (h, gamma, r, sic), row = first[p], 0
                outcomes = run_trial(cfg.replace(k_aircraft=k), 0)
            bad = self._trial_problems(h, gamma, r[row], sic, row, outcomes)
            if bad:
                rnd.failed.add(0)
                problems += [f"trial 0, K={k} r_G={r_g}: {b}" for b in bad]
        return problems

    @staticmethod
    def _trial_problems(h, gamma, r, sic, p, outcomes) -> list[str]:
        """Per-trial checks of run_trial's outcomes at one sweep point: the
        baseline counts against sic[token] = (counts, unsure)[p], the
        decoded-count chain, and a replay of every group decode plan."""
        bad = []
        n = {tok: out.n_decoded for tok, out in outcomes.items()}
        for tok in checks.SIC_TOKENS:
            counts, unsure = sic[tok]
            if not unsure[p] and counts[p] != n[tok]:
                bad.append(f"{tok} decoded {n[tok]}, recomputed {counts[p]}")
        chain = [n[t] for t in checks.CHAIN]
        if chain != sorted(chain, reverse=True) or any(n["SSA"] < n[t] for t in checks.SIC_TOKENS):
            bad.append(f"decoded-count chain broken: {n}")
        for tok in ("SSA", "LGSA:2", "LGSA:4", "GSA"):
            ok, _ = checks.replay_plan(h, gamma, r, outcomes[tok])
            if not ok:
                bad.append(f"{tok} plan {outcomes[tok].decode_plan} fails on replay")
        return bad


class ValidateWorkload:
    sweep = False

    def __init__(self, per_round: int) -> None:
        self.n = per_round

    def cli_args(self, master_seed: int, workers: int, out: Path) -> list[str]:
        # validate has no worker option; the worker setting reaches it only
        # through NOMA_OUTAGE_THREADS, which it ignores
        return ["validate", "--seed", str(master_seed), "--instances", str(self.n)]

    def check(self, rnd: Round) -> list[str]:
        from noma_outage import decoders
        from noma_outage.validation import random_instance

        problems = []
        for workers, res in rnd.launches.items():
            if res["rc"] != 0 or res["violations"]:
                problems.append(f"validate exit {res['rc']}, violations at {res['violations'][:5]}")
                rnd.failed.update(res["violations"])
        rng = np.random.default_rng(rnd.master_seed)
        for idx in range(self.n):
            h, r, gamma = random_instance(rng)
            if idx % SAMPLE_EVERY:
                continue
            size, unsure = checks.brute_force_max_set(h, gamma, r)
            got = len(decoders.gsa(h, r, gamma).decoded)
            if not unsure and got != size:
                problems.append(f"instance {idx}: GSA decoded {got}, brute force {size}")
                rnd.failed.add(idx)
        return problems


def make_workload(name: str):
    kind, preset, per_round, _ = WORKLOADS[name]
    return SweepWorkload(preset, per_round) if kind == "sweep" else ValidateWorkload(per_round)


def run_round(workload, index: int, master_seed: int, launch: Launcher, cap_s: float,
              segment_caps: list[float] | None) -> Round:
    rnd = Round(index, master_seed, workload.n)
    for workers in (1, 2):
        out = launch.work / f"round{index}-w{workers}.csv"
        t0 = time.monotonic()
        res = launch(workload.cli_args(master_seed, workers, out), workers, cap_s,
                     segment_caps if workers == 1 else None)
        if res is None:
            rnd.cut_after = time.monotonic() - t0
            log(f"round {index}: --threads {workers} launch cut after {rnd.cut_after:.2f} s")
            return rnd
        rnd.launches[workers] = res
        rnd.outputs[workers] = out.read_text() if out.exists() else ""
        # the same inputs on two workers take at most about as long
        cap_s = 1.5 * res["wall_s"] + 1.0
    for problem in workload.check(rnd)[:10]:
        log(f"round {index}: {problem}")
    log(f"round {index}: " + ", ".join(
        f"--threads {w} {rnd.n / res['run_s']:.3f}/s, set-up {res['setup_s']:.3f} s, "
        f"{res['maxrss_kb'] / 1024:.1f} MB" for w, res in rnd.launches.items()))
    return rnd


def caps(rounds: list[Round]) -> tuple[float, list[float] | None]:
    """CAP_FACTOR times the median one-worker wall time and, for sweeps,
    segment times by position, over the rounds that ran to the end."""
    done = [r.launches[1] for r in rounds if not r.cut]
    wall = CAP_FACTOR * statistics.median(res["wall_s"] for res in done)
    if "segments" not in done[0]:
        return wall, None
    return wall, [CAP_FACTOR * statistics.median(seg)
                  for seg in zip(*(res["segments"] for res in done))]


def kept(rounds: list[Round]) -> list[Round]:
    """The rounds that ran to the end and that the caps of the whole run
    would not have cut: the ones the metrics use."""
    done = [r for r in rounds if not r.cut]
    wall, segment_caps = caps(done)
    return [r for r in done if r.launches[1]["wall_s"] <= wall and (
        segment_caps is None
        or all(s <= c for s, c in zip(r.launches[1]["segments"], segment_caps)))]


def measure(workload, seeds, seconds: float, launch: Launcher, max_cap_s: float) -> list[Round]:
    """Rounds until their launches have taken ``seconds``."""
    rounds: list[Round] = []
    spent = 0.0
    while spent < seconds and len(rounds) < len(seeds):
        cap_s, segment_caps = max_cap_s, [] if workload.sweep else None
        if any(not r.cut for r in rounds):
            wall, segment_caps = caps(rounds)
            cap_s = min(cap_s, wall)
        rnd = run_round(workload, len(rounds), int(seeds[len(rounds)]), launch, cap_s, segment_caps)
        spent += sum(res["wall_s"] for res in rnd.launches.values()) + (rnd.cut_after or 0.0)
        rounds.append(rnd)
    return rounds


def interquartile_mean(values) -> float:
    """Mean of the middle half: robust to a few slow rounds, and steadier
    than the median when nothing is slow."""
    values = sorted(values)
    trim = len(values) // 4
    return statistics.mean(values[trim : len(values) - trim])


def end_to_end(rounds: list[Round]) -> dict:
    """Over the kept rounds: the interquartile mean of their operations per
    second with each worker setting, and medians of the rest."""
    done = kept(rounds)

    def throughput(workers: int) -> float:
        return interquartile_mean(r.n / r.launches[workers]["run_s"] for r in done)

    return {
        "trials_per_s.w1": (throughput(1), "1/s"),
        "trials_per_s.w2": (throughput(2), "1/s"),
        "setup_s": (statistics.median(
            res["setup_s"] for r in rounds for res in r.launches.values()), "s"),
        "peak_rss_mb": (statistics.median(r.launches[1]["maxrss_kb"] / 1024 for r in done), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "noma_outage" / "cli.py").is_file():
        log(f"no program source under {SRC}; run from the root of a noma-outage checkout")
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    launch = Launcher(work)
    # on SIGTERM, unwind through the finally below so the child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args, launch, work)
    finally:
        launch.stop()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def run(args, launch: Launcher, work: Path) -> dict | None:
    workload = make_workload(args.workload)
    salt = WORKLOADS[args.workload][3]
    seeds = np.random.SeedSequence([args.seed, salt]).generate_state(1024, np.uint32)
    window = args.seconds / 2 if args.trace else args.seconds
    rounds = measure(workload, seeds, window, launch, max(args.seconds * CAP_SHARE, CAP_FLOOR_S))
    done = [r for r in rounds if not r.cut]
    if not done:
        log("every round was cut; nothing was checked")
        return None
    if args.trace:
        from layers import traced_metrics

        metrics = traced_metrics(
            workload, rounds, kept(rounds), launch, args.seconds / 2, end_to_end(rounds))
    else:
        metrics = end_to_end(rounds)
        shutil.rmtree(work)
    failed = sum(len(r.failed) for r in done)
    return {
        "correct": failed == 0,
        "attempted": sum(r.n for r in done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

if __name__ == "__main__":
    sys.exit(main())
