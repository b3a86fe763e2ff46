"""Steadiness self-check: two sets of runs of the same code, alternated in time.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

For each workload of ``BENCHMARK.json`` it runs ``run.py`` ten times with
``--trace 0``, alternating set A and set B (A first in even rounds, B first
in odd ones), each run with its own ``--seed``. For every end-to-end metric
it prints the median of each set, B's change against A, the bound from
``BENCHMARK.json`` and the spread of all runs (distance between the first
and third quartile as a share of the median), plus each set's share of
failed checks. A row is
``ok`` when the change and, except for ``setup_s``, the spread stay within
the bound. The spread of ``setup_s`` is printed but not judged, as in the
acceptance rule the benchmark is held to: set-up is mostly interpreter
start-up and file writes (on ``resume``, one fresh run that all passes of a
run share), which the host's noise moves most, and a regression in it
shows in the change of its median. Every run is kept in
``.perfbench_out/steady-<utc time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS_PER_SET = 5


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(Path(f".perfbench_out/{workload}.json").read_text())
    result["passes"] = [{k: p[k] for k in ("setup_s", "run_s")}
                        for p in details["passes"]]
    return result


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "run_seconds": bench["run_seconds"], "runs": {}}
    out = Path(".perfbench_out") / f"steady-{record['started']}.json"
    out.parent.mkdir(exist_ok=True)
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS_PER_SET):
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = (1 if side == "A" else 101) + i
                sets[side].append(run_once(workload, seed, bench["run_seconds"]))
        record["runs"][workload] = sets
        out.write_text(json.dumps(record, indent=1))

        print(f"\n{workload}")
        print(f"  {'metric':<12} {'median A':>10} {'median B':>10} {'B vs A':>8} "
              f"{'bound':>6} {'spread':>7}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            change = statistics.median(b) / statistics.median(a) - 1
            width = spread(a + b)
            ok = abs(change) <= bound and (name == "setup_s" or width <= bound)
            all_ok &= ok
            print(f"  {name:<12} {statistics.median(a):>10.4f} "
                  f"{statistics.median(b):>10.4f} {change:>+8.1%} {bound:>6.0%} "
                  f"{width:>7.1%}  {'ok' if ok else 'OUT OF BOUND'}")
        shares = {side: {r['failed'] / r['attempted'] for r in runs}
                  for side, runs in sets.items()}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        all_ok &= same and all(r["correct"] for s in sets.values() for r in s)
        print(f"  failed share A {sorted(shares['A'])} B {sorted(shares['B'])}"
              f"  {'ok' if same else 'DIFFERS'}")
    print(f"\nrecord: {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
