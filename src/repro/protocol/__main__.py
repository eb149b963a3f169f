"""Command-line entry point: ``python -m repro.protocol``.

Four store-facing subcommands drive the reproduction:

* ``run``     — execute every pending cell of a spec into a results store
  (resumable: completed cells are skipped, so re-invoking after a kill
  finishes only the remainder);
* ``status``  — report how much of the spec the store already covers;
* ``report``  — fold the stored records into the paper's tables and
  Friedman / Bonferroni-Dunn / Bayesian summaries;
* ``compact`` — fold a sharded store's append-only segments into its
  sqlite index (see ``--store-format`` below).

The spec comes either from a JSON file (``--spec``) or a built-in preset
(``--preset paper`` / ``--preset quick`` / ``--preset extended`` — all nine
scenario families — / ``--preset stress`` — the adversarial stressors);
``spec`` files are produced with ``python -m repro.protocol spec --preset
paper > my_spec.json`` and edited freely.

Scaling knobs: ``--store-format sharded`` selects the segment+index
:class:`~repro.protocol.sharded_store.ShardedResultsStore` (the default
``auto`` recognises an existing sharded store by its layout, so the flag is
only needed on the first ``run``); ``--backend`` picks the ``serial``,
``thread`` or ``process`` (default) execution backend and ``--workers`` its
worker count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.protocol.analysis import analyze_records, render_report
from repro.protocol.backends import BACKENDS
from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.sharded_store import ShardedResultsStore
from repro.protocol.spec import ProtocolSpec
from repro.protocol.store import ResultsStore, ResultsStoreProtocol

_PRESETS = {
    "paper": ProtocolSpec.paper,
    "quick": ProtocolSpec.quick,
    "extended": ProtocolSpec.extended,
    "stress": ProtocolSpec.stress,
}


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", type=Path, default=None, help="Path to a ProtocolSpec JSON file"
    )
    parser.add_argument(
        "--preset",
        choices=sorted(_PRESETS),
        default=None,
        help="Built-in spec preset (alternative to --spec)",
    )
    # Execution-mode overrides are part of every cell key, so they must be
    # available (and repeated) on run, status, AND report — otherwise a store
    # produced under an override would be invisible to the other subcommands.
    parser.add_argument(
        "--chunk-size", type=int, default=None, help="override spec chunk size"
    )
    parser.add_argument(
        "--batch-mode",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="override the spec's execution mode: --batch-mode for "
        "chunk-granular test-then-train (fast path), --no-batch-mode for "
        "exact per-instance semantics",
    )


def _load_spec(args: argparse.Namespace) -> ProtocolSpec:
    if args.spec is not None and args.preset is not None:
        raise SystemExit("pass either --spec or --preset, not both")
    if args.spec is not None:
        return ProtocolSpec.from_json(args.spec.read_text(encoding="utf-8"))
    if args.preset is None:
        # Never guess: the silent default used to be the full 1080-cell
        # paper spec, an expensive surprise for a forgotten flag.
        raise SystemExit(
            "pass --spec FILE or --preset "
            f"{{{','.join(sorted(_PRESETS))}}} to select the protocol"
        )
    return _PRESETS[args.preset]()


def _load_spec_with_overrides(args: argparse.Namespace) -> ProtocolSpec:
    spec = _load_spec(args)
    if args.chunk_size is not None:
        spec.chunk_size = args.chunk_size
    if args.batch_mode is not None:
        spec.batch_mode = args.batch_mode
    # The overrides bypass the constructor's checks; re-run them so a bad
    # combination fails here, before any store is opened.
    spec.__post_init__()
    return spec


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=Path, required=True, help="results directory")
    parser.add_argument(
        "--store-format",
        choices=("auto", "json", "sharded"),
        default="auto",
        help="results-store layout: 'json' = one atomic file per cell, "
        "'sharded' = append-only segments + sqlite index (use for runs "
        "beyond a few thousand cells; compact with the 'compact' "
        "subcommand).  'auto' (default) recognises an existing store by "
        "its layout and otherwise uses 'json'; an explicit format that "
        "contradicts an existing store's layout is refused rather than "
        "hiding its records",
    )


def _sharded_layout_present(path: Path) -> bool:
    """An index, or at least one actual segment file — an *empty*
    ``segments/`` directory alone is not proof (it could be damage from an
    aborted invocation against a JSON store)."""
    if (path / "index.sqlite").is_file():
        return True
    segments = path / "segments"
    return segments.is_dir() and any(segments.glob("seg-*.jsonl"))


def _json_records_present(path: Path) -> bool:
    return any(
        entry.name != "spec.json" and not entry.name.startswith(".tmp-")
        for entry in path.glob("*.json")
    )


def _open_store(args: argparse.Namespace) -> ResultsStoreProtocol:
    path: Path = args.store
    fmt: str = args.store_format
    has_sharded = _sharded_layout_present(path)
    has_json = _json_records_present(path)
    if fmt == "auto":
        if has_sharded:
            fmt = "sharded"
        elif has_json:
            fmt = "json"
        else:
            # A bare segments/ dir with no records on either side: a fresh
            # sharded store whose first write hasn't landed yet.
            fmt = "sharded" if (path / "segments").is_dir() else "json"
    elif fmt == "sharded" and has_json and not has_sharded:
        # Opening a populated JSON store as sharded would hide every
        # existing record and silently recompute the whole spec.
        raise SystemExit(
            f"{path} already holds a one-file-per-cell JSON store; opening "
            "it with --store-format sharded would hide every existing "
            "record.  Use --store-format auto/json, or point --store at a "
            "fresh directory."
        )
    elif fmt == "json" and has_sharded:
        raise SystemExit(
            f"{path} already holds a sharded store; opening it with "
            "--store-format json would hide every existing record.  Use "
            "--store-format auto/sharded, or point --store at a fresh "
            "directory."
        )
    if fmt == "sharded":
        return ShardedResultsStore(path)
    return ResultsStore(path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.protocol",
        description="Run, resume, and analyse the paper's experimental protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute pending cells into the store")
    _add_spec_arguments(run)
    _add_store_arguments(run)
    run.add_argument(
        "--workers", type=int, default=None, help="parallel worker count"
    )
    run.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="process",
        help="execution backend (default: process)",
    )
    run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="cap how many pending cells this invocation runs",
    )
    run.add_argument(
        "--no-retry-failed",
        action="store_true",
        help="do not re-run cells whose stored record is a failure",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="persist a mid-cell runner checkpoint into the store at least "
        "every N instances; a killed run then resumes its in-flight cells "
        "from the checkpoints, bit-identical to an uninterrupted run "
        "(default: off, resume stays cell-granular)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-cell lines")

    status = sub.add_parser("status", help="summarise store coverage of the spec")
    _add_spec_arguments(status)
    _add_store_arguments(status)

    report = sub.add_parser("report", help="tables + statistics from the store")
    _add_spec_arguments(report)
    _add_store_arguments(report)
    report.add_argument(
        "--metrics",
        nargs="+",
        default=["pmauc", "pmgm", "detection_recall"],
        help="metrics to tabulate (RunResult or drift-report fields)",
    )
    report.add_argument(
        "--control",
        default="RBM-IM",
        help="control detector for the post-hoc tests (default: RBM-IM)",
    )
    report.add_argument(
        "--rope", type=float, default=0.01, help="Bayesian signed test ROPE"
    )

    compact = sub.add_parser(
        "compact",
        help="fold a sharded store's segments into its sqlite index "
        "(atomic; run while no other process is writing)",
    )
    _add_store_arguments(compact)

    spec_cmd = sub.add_parser("spec", help="print a preset spec as editable JSON")
    spec_cmd.add_argument(
        "--preset", choices=sorted(_PRESETS), default="paper"
    )
    return parser


def _command_run(args: argparse.Namespace) -> int:
    spec = _load_spec_with_overrides(args)
    pipeline = ProtocolPipeline(spec, _open_store(args))

    def progress(cell_result) -> None:
        cell = cell_result.cell
        state = "ok" if cell_result.ok else "FAILED"
        print(
            f"[{state}] {cell.stream} / {cell.detector} / seed {cell.seed} "
            f"({cell_result.wall_time:.1f}s)",
            flush=True,
        )

    summary = pipeline.run(
        max_workers=args.workers,
        backend=args.backend,
        progress=None if args.quiet else progress,
        retry_failed=not args.no_retry_failed,
        max_cells=args.max_cells,
        checkpoint_every=args.checkpoint_every,
    )
    print(summary.describe())
    status = pipeline.status()
    print(status.describe())
    return 0 if summary.n_failed == 0 else 1


def _command_status(args: argparse.Namespace) -> int:
    spec = _load_spec_with_overrides(args)
    pipeline = ProtocolPipeline(spec, _open_store(args))
    status = pipeline.status()
    print(f"spec {spec.name!r} in {args.store}")
    print(status.describe())
    statuses = pipeline.store.statuses()
    by_detector: dict[str, list[int]] = {}
    for cell, key in pipeline.cells():
        slot = by_detector.setdefault(cell.detector, [0, 0])
        slot[0] += 1
        if statuses.get(key):
            slot[1] += 1
    for detector, (total, done) in by_detector.items():
        print(f"  {detector:>10}: {done}/{total}")
    return 0 if status.done else 2


def _command_compact(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if not isinstance(store, ShardedResultsStore):
        print(
            f"{args.store} is not a sharded store; nothing to compact "
            "(pass --store-format sharded on the first run to create one)",
            file=sys.stderr,
        )
        return 2
    index = store.compact()
    print(f"compacted {len(store)} records into {index}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    spec = _load_spec_with_overrides(args)
    pipeline = ProtocolPipeline(spec, _open_store(args))
    records = pipeline.completed_records()
    if not records:
        print("no completed cells in the store yet", file=sys.stderr)
        return 2
    analysis = analyze_records(
        records, metrics=tuple(args.metrics), control=args.control, rope=args.rope
    )
    print(render_report(analysis))
    return 0


def _command_spec(args: argparse.Namespace) -> int:
    print(_PRESETS[args.preset]().to_json())
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "status": _command_status,
        "report": _command_report,
        "compact": _command_compact,
        "spec": _command_spec,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
