"""Command-line front end: sweep execution, oracle validation, complexity.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime failure,
3 validation violation (a counterexample is dumped as JSON).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .config import ConfigError, ScenarioConfig, load_config
from .montecarlo import SweepRow, run_sweep
from .rates import brute_force_eval_count
from .validation import run_validation

CSV_HEADER = "algorithm,K,r_G,rate_mode,p_out,stderr,trials,avg_mults,master_seed"

PRESETS = {
    # Equal-rate sweep over the guaranteed rate at K = 32.
    "paper-fig4": dict(
        rate_mode="equal_rate",
        k_aircraft=32,
        r_g_list=tuple(float(r) for r in range(1, 16)),
    ),
    # Variable-rate sweep over the aircraft count, rates U(2, 6).
    "paper-fig5": dict(
        rate_mode="variable_rate",
        r_g=2.0,
        r_max=6.0,
        k_list=(4, 8, 12, 16, 20, 24, 28, 32),
    ),
}


def _g6(x: float) -> str:
    return f"{x:.6g}"


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        est = row.estimate
        lines.append(
            ",".join(
                [
                    row.algorithm,
                    str(row.k),
                    _g6(row.r_g),
                    row.rate_mode,
                    _g6(est.p_out),
                    _g6(est.stderr),
                    str(est.trials),
                    _g6(est.avg_mults),
                    str(row.master_seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    # no partial output on failure: write to a sibling temp file, then rename
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.preset:
        overrides.update(PRESETS[args.preset])
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(t.strip() for t in args.algorithms.split(",") if t.strip())
    if args.threads is not None:
        overrides["threads"] = args.threads
    cfg = cfg.replace(**overrides) if overrides else cfg
    cfg.validate()
    return cfg


def cmd_sweep(args) -> int:
    try:
        cfg = _resolve_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(cfg)
        _write_atomic(args.out, rows_to_csv(rows))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_validate(args) -> int:
    if args.instances < 1 or args.seed < 0:
        print(f"config error: validate needs --instances >= 1 and --seed >= 0, got "
              f"{args.instances} and {args.seed}", file=sys.stderr)
        return 1
    if not math.isfinite(args.epsilon):
        print(f"config error: --epsilon must be finite, got {args.epsilon}", file=sys.stderr)
        return 1
    report = run_validation(args.seed, args.instances, mutation_eps=args.epsilon)
    mix = ", ".join(f"{k}={v}" for k, v in sorted(report.decoded_histogram.items()))
    if report.passed:
        print(f"PASS: {args.instances} instances, oracle-equal throughout ({mix})")
        return 0
    print(f"FAIL: {len(report.violations)} violation(s) over {args.instances} instances ({mix})",
          file=sys.stderr)
    print(report.violations[0].to_json(), file=sys.stderr)
    return 3


def cmd_complexity(args) -> int:
    for k in args.K:
        if not 1 <= k <= 64:
            print(f"complexity: K must be in 1..64, got {k}", file=sys.stderr)
            return 1
    print("K,brute_force_evaluations")
    for k in args.K:
        print(f"{k},{brute_force_eval_count(k)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2,
    which the exit codes reserve for runtime failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noma-outage",
        description="Minimum-outage-probability simulation for a multiuser "
        "multiple-antenna NOMA uplink over an air-ground channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV")
    sweep.add_argument("--config", help="YAML scenario config (defaults used if omitted)")
    sweep.add_argument("--preset", choices=sorted(PRESETS), help="named sweep preset")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--seed", type=int, help="master seed override")
    sweep.add_argument("--algorithms", help="comma-separated algorithm tokens")
    sweep.add_argument("--threads", type=int, help="worker processes")
    sweep.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="cross-check algorithms against brute-force oracles")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--instances", type=int, default=500)
    val.add_argument("--epsilon", type=float, default=0.0,
                     help="fault-injection shift applied to algorithm comparisons only")
    val.set_defaults(func=cmd_validate)

    comp = sub.add_parser("complexity", help="brute-force evaluation counts")
    comp.add_argument("--K", type=int, nargs="+", required=True)
    comp.set_defaults(func=cmd_complexity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
