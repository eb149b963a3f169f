"""One cold pass over one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON object it
prints as its last line.  ``--t0`` is the parent's ``time.monotonic()`` just
before it started this process (the clock is shared across processes), so
set-up time covers interpreter start, imports and everything up to the first
unit.  With ``--trace 1`` the pass also reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    started = time.monotonic()
    workloads.import_program()
    import_s = time.monotonic() - started
    memo_start = workloads.wstd_memo_entries()

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install(layertrace.program_targets(tracer))
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.size, tracer.span if tracer else None
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    memo_end = workloads.wstd_memo_entries()

    units = outcome.units
    failed = workloads.check_units(units)
    wall_s = outcome.end - outcome.first_start
    problems = list(outcome.problems)
    problems += [f"{unit.name}: {p}" for unit in units for p in unit.problems]
    if memo_start != 0:
        problems.append(f"WSTD memo not cold at start: {memo_start} entries")
    rep = {
        "traced": bool(args.trace),
        "setup_s": outcome.first_start - args.t0,
        "import_s": import_s,
        "wall_s": wall_s,
        "rows": sum(unit.rows for unit in units),
        "unit_s": {unit.name: unit.wall_s for unit in units},
        "units": len(units),
        "failed": failed,
        "problems": problems,
        "digest": workloads.results_digest(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "memo_start": memo_start,
        "memo_end": memo_end,
    }
    if tracer is not None:
        rep["layers"] = layertrace.layer_metrics(
            tracer,
            wall_s,
            pretrain=units[0].pretrain,
            extra={
                "setup.import_s": import_s,
                "detectors.wstd_memo_entries_start": memo_start,
                "detectors.wstd_memo_entries": memo_end,
            },
        )
    print(json.dumps(rep))


if __name__ == "__main__":
    main()
