"""Benchmark of the sqlgrow mock pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve-deep --seed 1 --seconds 30 --trace 0

For ``--seconds`` seconds it repeats passes. A pass sets up (writes the
fixture databases and seeds, starts a fresh interpreter that imports
sqlgrow, and on ``resume`` copies the output of a fresh run), then times
one ``run_full`` call in that interpreter, then checks the output
(``checks.py``). On ``resume`` the run makes one fresh run, in its own
interpreter, before its first pass; each pass resumes a copy of it, and
the fresh run's time counts in each pass's set-up. With ``--trace 1`` a last pass runs with
per-layer spans (``spans.py``). The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count the checks, and
``metrics`` holds the median over passes of each end-to-end metric, or the
per-layer figures of the traced pass. Details of the run go to
``.perfbench_out/<workload>.json``.

The workloads' inputs are pinned (see ``workloads.py``); ``--seed`` only
names the run in the details file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 90
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"),
              ("out_mb", "MB"))


class PassFailed(Exception):
    pass


def run_child(root: Path, config: Path, mode: str, spans: Path | None = None) -> dict:
    """Run ``child.py`` to its end and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(config), mode]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_template(root: Path, fixtures, workload, run_dir: Path):
    """On ``resume``: the fresh run whose output every pass of the run resumes.

    Returns its config, its output directory and how long it took from the
    start of writing its inputs; that time is part of each resumed pass's
    set-up.
    """
    start = time.monotonic()
    cfg = workloads.build_inputs(workload, fixtures, run_dir / "fresh")
    config = run_dir / "fresh" / "config.json"
    config.write_text(json.dumps(cfg))
    run_child(root, config, "fresh")
    return cfg, Path(cfg["out_dir"]), time.monotonic() - start


def run_pass(root: Path, fixtures, workload, pass_dir: Path,
             template=None, spans: Path | None = None) -> dict:
    """Set up, time one run_full call, check the output."""
    start = time.monotonic()
    fresh_dir, fresh_s = None, 0.0
    if workload.resume:
        # the fresh run's inputs, so that only out_dir differs from its config
        fresh_cfg, fresh_dir, fresh_s = template
        cfg = {**fresh_cfg, "out_dir": str(pass_dir / "out")}
        shutil.copytree(fresh_dir, cfg["out_dir"])
    else:
        cfg = workloads.build_inputs(workload, fixtures, pass_dir)
    config = pass_dir / "config.json"
    config.write_text(json.dumps(cfg))
    out_dir = Path(cfg["out_dir"])
    dataset = out_dir / "dataset.jsonl"
    report = run_child(root, config, "resume" if workload.resume else "fresh", spans)
    result = {
        "setup_s": fresh_s + report["run_start"] - start,
        "run_s": report["run_end"] - report["run_start"],
        "peak_rss_mb": report["peak_rss_mb"],
        "out_mb": dir_bytes(out_dir) / 1e6,
        "sha256": checks.sha256(dataset) if dataset.is_file() else None,
    }
    result["checks"], result["unexpected"] = check_output(
        workload, out_dir, Path(cfg["db_dir"]), fresh_dir)
    if "layers" in report:
        result["layers"] = report["layers"]
    return result


def check_output(workload, out_dir: Path, db_dir: Path, fresh_dir: Path | None):
    """Every check's outcome, and what else makes the pass incorrect than a
    failed check outside ``checks.KNOWN_FAULT``."""
    try:
        results = checks.check_pass(out_dir, db_dir, workload.dataset_sha256, fresh_dir)
        beyond = checks.beyond_known_fault(out_dir, fresh_dir) if fresh_dir else []
    except Exception as exc:  # malformed output: every check of the pass fails
        return (dict.fromkeys(checks.check_names(workload.resume), False),
                [f"checks raised {type(exc).__name__}: {exc}"])
    return results, [f"resumed {name} differs from the fresh run beyond the known fault"
                     for name in beyond]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sqlgrow" / "__init__.py").is_file() or \
            not (root / "tests" / "fixtures.py").is_file():
        print("perfbench: run from the root of a sqlgrow checkout "
              "(src/sqlgrow and tests/fixtures.py not found)", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    fixtures = workloads.load_fixtures(root)
    names = checks.check_names(workload.resume)
    run_dir = root / WORK_DIR / f"{workload.name}-{args.seed}-{time.time_ns()}"
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    passes, errors = [], []
    template = None

    def one_pass(spans=None):
        nonlocal template
        pass_dir = run_dir / f"pass-{len(passes) + len(errors)}"
        pass_dir.mkdir(parents=True)
        try:
            if workload.resume and template is None:
                template = fresh_template(root, fixtures, workload, run_dir)
            passes.append(run_pass(root, fixtures, workload, pass_dir, template, spans))
        except PassFailed as exc:
            errors.append(str(exc))
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)

    try:
        started = time.monotonic()
        durations = []
        while True:
            t0 = time.monotonic()
            one_pass()
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - started
            if elapsed + statistics.median(durations) > args.seconds:
                break
        if args.trace:
            one_pass(out_dir / f"{workload.name}-spans.npz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(names) * (len(passes) + len(errors))
    failed = len(names) * len(errors)
    unexpected = list(errors)
    for p in passes:
        unexpected.extend(p["unexpected"])
        for name in names:
            if not p["checks"][name]:
                failed += 1
                if name not in checks.KNOWN_FAULT:
                    unexpected.append(f"check {name} failed")
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in traced[0]["layers"].items()}
        overhead = traced[0]["run_s"] - statistics.median(p["run_s"] for p in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in untraced),
                          "unit": unit}
                   for name, unit in END_TO_END}

    (out_dir / f"{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": passes, "errors": errors, "unexpected": unexpected,
    }, indent=1))
    for line in unexpected:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
