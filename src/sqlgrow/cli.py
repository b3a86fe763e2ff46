"""Batch command line for the synthesis pipeline.

``run`` executes everything. ``ingest`` starts the same run and stops after
ingest; ``eqe`` and ``oge`` resume it and stop after their stage, and
``run --resume`` finishes it. Each of these is ``run_full`` with a resume
flag and a stage to stop after, and reads a JSON config file whose fields
can be overridden by flags. ``stats`` and ``verify`` read a finished
dataset.
Exit codes: 0 success, 1 configuration error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, SqlgrowError
from .instances import write_file
from .pipeline import RunConfig, SchemaRepo, run_full, stats_report, verify_dataset


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seeds", help="seed JSON file")
    parser.add_argument("--db-dir", dest="db_dir", help="directory of SQLite files")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--rounds", type=int, help="evolution rounds T")
    parser.add_argument("--budget-k", dest="budget_k", type=int, help="operators per instance")
    parser.add_argument("--epsilon", type=float, help="scarcity smoothing")
    parser.add_argument("--tau", type=float, help="dedup similarity threshold")
    parser.add_argument("--cot-n", dest="cot_n", type=int, help="reasoning samples per instance")
    parser.add_argument("--global-seed", dest="global_seed", type=int, help="run seed")
    parser.add_argument("--max-attempts", dest="max_attempts", type=int,
                        help="refinement attempts per candidate")


def _load_config(args) -> RunConfig:
    """The config file, or defaults, overridden by flags named after fields."""
    overrides = {key: value for key, value in vars(args).items()
                 if key in RunConfig._fields and value is not None}
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    cfg = RunConfig(**overrides)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqlgrow",
        description="Evolve seed Text-to-SQL pairs into execution-verified training data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "full pipeline: ingest, expand, evolve, verify, dedup"),
        ("ingest", "start a run afresh and stop after ingest"),
        ("eqe", "resume the run and stop after exploratory expansion"),
        ("oge", "resume the run and stop after every evolution round"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        if name == "run":
            p.add_argument("--resume", action="store_true",
                           help="reuse finished stage checkpoints in the output directory")

    stats = sub.add_parser("stats", help="feature report for a dataset")
    stats.add_argument("--dataset", required=True, help="dataset JSONL path")
    stats.add_argument("--csv", help="also write the CSV report here")

    verify = sub.add_parser("verify", help="ground every dataset row again")
    verify.add_argument("--dataset", required=True)
    verify.add_argument("--db-dir", dest="db_dir", required=True)

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SqlgrowError, IOError) as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "stats":
        text, csv_text = stats_report(args.dataset)
        print(text)
        if args.csv:
            write_file(args.csv, [csv_text])
        return 0

    if args.command == "verify":
        repo = SchemaRepo(args.db_dir)
        try:
            summary = verify_dataset(args.dataset, repo)
        finally:
            repo.close()
        print(json.dumps(summary, indent=2, sort_keys=True))
        if summary["failures"]:
            print(f"verify: {len(summary['failures'])} of {summary['total']} rows "
                  "failed", file=sys.stderr)
            return 2
        return 0

    cfg = _load_config(args)
    stop_after = None if args.command == "run" else args.command
    resume = args.command in ("eqe", "oge") or getattr(args, "resume", False)
    manifest = run_full(cfg, resume=resume, stop_after=stop_after)
    if manifest is None:
        print(f"{args.command} checkpointed in {Path(cfg.out_dir) / 'checkpoints'}")
        return 0
    print(json.dumps(manifest["counts"], indent=2, sort_keys=True))
    print(f"dataset: {Path(cfg.out_dir) / 'dataset.jsonl'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
