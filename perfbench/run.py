"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Every pass over the workload runs
cold in a fresh interpreter (``perfbench/worker.py``); passes repeat until
``--seconds`` is spent and each metric is the median over the passes -- no
warm-up pass, no best-of-N.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib-only at import time)

#: A pass still running this long after the run started is killed, so the
#: whole run ends within its 180-second limit.
RUN_LIMIT_S = 170.0
#: Smallest share of a traced pass's wall time its self times must cover.
MIN_ACCOUNTED_SHARE = 0.95


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def run_pass(workload: str, seed: int, traced: bool, size: str, timeout: float) -> dict:
    """One cold pass in a fresh interpreter; a crash becomes a failed pass."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--size", size,
    ]
    command += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "crashed": f"exit {proc.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"traced": traced, "crashed": "unreadable pass output"}


def _median(values) -> float:
    finite = [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def summarize(passes: list, traced: bool, specs: dict) -> tuple:
    """(result object, report lines) for the passes of one run."""
    lines = []
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(passes, 1):
        kind = "traced" if rep.get("traced") else "untraced"
        if "crashed" in rep:
            attempted += 1
            failed += 1
            problems.append(f"pass {index} ({kind}) crashed: {rep['crashed']}")
            continue
        attempted += rep["units"]
        failed += rep["failed"]
        problems += [f"pass {index} ({kind}): {p}" for p in rep["problems"]]
        slowest = max(rep["unit_s"], key=rep["unit_s"].get)
        lines.append(
            f"pass {index} ({kind}): setup {rep['setup_s']:.3f} s, "
            f"wall {rep['wall_s']:.3f} s, {rep['units']} units, "
            f"{rep['failed']} failed, slowest {slowest} "
            f"{rep['unit_s'][slowest]:.3f} s, WSTD memo {rep['memo_start']} -> "
            f"{rep['memo_end']}, digest {rep['digest'][:16]}"
        )
    good = [rep for rep in passes if "crashed" not in rep]
    digests = {rep["digest"] for rep in good}
    if len(digests) > 1:
        problems.append(f"passes disagree on results_digest: {sorted(digests)}")
    plain = [rep for rep in good if not rep["traced"]]
    traced_passes = [rep for rep in good if rep["traced"]]

    if traced:
        for rep in traced_passes:
            share = rep["layers"]["trace.accounted_share"]
            if not share >= MIN_ACCOUNTED_SHARE:
                problems.append(f"self times cover only {share:.3f} of a traced pass")
        values = {}
        for name in specs["per_layer"]:
            if name == "trace.overhead_s":
                values[name] = _median(r["wall_s"] for r in traced_passes) - _median(
                    r["wall_s"] for r in plain
                )
            else:
                values[name] = _median(r["layers"].get(name) for r in traced_passes)
        lines.append(f"tracing overhead: {values['trace.overhead_s']:.3f} s")
        units = specs["per_layer"]
    else:
        values = {
            "setup_s": _median(r["setup_s"] for r in plain),
            "instances_per_s": _median(r["rows"] / r["wall_s"] for r in plain),
            "unit_s_p50": _median(t for r in plain for t in r["unit_s"].values()),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        }
        units = specs["end_to_end"]
    for name in units:
        if not math.isfinite(values.get(name, math.nan)):
            problems.append(f"metric {name} not measured")
            values[name] = 0.0  # keeps the result line strict JSON
    if good:
        lines.append(f"units per pass: {good[0]['units']}")
        lines.append(f"results_digest: {sorted(digests)[0]}")
    lines += [f"problem: {p}" for p in problems]
    correct = bool(good) and not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.SIZES), default="full",
        help="stream lengths; 'tiny' is for the harness self-test",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    specs = load_metric_specs()

    kinds = (False, True) if args.trace else (False,)
    passes = []
    started = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            timeout = RUN_LIMIT_S - (time.monotonic() - started)
            passes.append(run_pass(args.workload, args.seed, traced, args.size, timeout))
        rounds += 1
        elapsed = time.monotonic() - started
        if any("crashed" in rep for rep in passes):
            break
        if elapsed + elapsed / rounds > args.seconds:
            break

    result, lines = summarize(passes, bool(args.trace), specs)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
