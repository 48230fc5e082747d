"""One noma-outage CLI command in a fresh interpreter, timed from inside.

    python3 perfbench/launch.py RESULT.json TRACE.json|- PROGRESS|- <noma-outage args...>

Run from the repository root with ``src`` on PYTHONPATH.  RESULT.json gets
the exit code, the monotonic-clock times at which the command reached its
first trial (entry of ``run_sweep`` or ``run_validation``) and returned, the
process's peak resident memory and, for ``validate``, the indices of the
instances with violations.  With a trace path the tracer is installed first
and its spans and sums are written there.  With a progress path, the time at
which each channel build starts is appended there as it happens, so that a
launch stopped part-way still shows how far it got.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb() -> int:
    """This process's own resident-memory high-water mark.  getrusage's
    ru_maxrss is not used: Linux carries it over from the parent across
    fork and exec, so it would report the parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, trace_path, progress_path, cli_args = argv[0], argv[1], argv[2], argv[3:]
    from noma_outage import cli, montecarlo

    if progress_path != "-":
        progress = open(progress_path, "a", buffering=1, encoding="utf-8")
        build = montecarlo.build_trial_channel

        def marked_build(*args, **kwargs):
            progress.write(f"{time.monotonic()}\n")
            return build(*args, **kwargs)

        montecarlo.build_trial_channel = marked_build

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict = {}
    entry = "run_sweep" if cli_args[0] == "sweep" else "run_validation"
    inner = getattr(cli, entry)

    def first_trial(*args, **kwargs):
        marks["t_first"] = time.monotonic()
        res = inner(*args, **kwargs)
        if tracer is not None:
            tracer.end_trial()
        if entry == "run_validation":
            marks["violations"] = sorted({v.index for v in res.violations})
        return res

    setattr(cli, entry, first_trial)
    rc = cli.main(cli_args)
    marks["t_end"] = time.monotonic()
    marks["rc"] = rc
    marks["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        marks["trace"] = tracer.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
