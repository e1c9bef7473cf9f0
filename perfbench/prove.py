"""Check that the benchmark is steady and its exact counts repeat.

    python3 perfbench/prove.py --out perfbench/trajectory/000-seed.json

For every workload in BENCHMARK.json, makes two sets of ten ``run.py --trace 0``
runs, each run with another seed, one run at a time. For each end-to-end
metric it reports the quartile spread (Q3 - Q1) / median of each set and
requires it to stay below a third of the metric's bound, and it requires the
second set's median to be no worse than the first's by more than the bound.
Then it makes three ``--trace 1`` runs and requires the exact counts to be
identical in all of them. Every run must report ``correct``. Exits 1 when a
requirement fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("autodiff.tape_nodes", "mesh.adjacency_bytes", "train.adam_bytes")
RUNS = 10
SETS = 2
TRACED = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    return {"seed": seed, "wall_s": time.perf_counter() - start,
            "report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which second is worse than first (negative when it is better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    problems = []
    summary = {"bench": spec, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = [run_once(workload, s * RUNS + i, spec["run_seconds"], 0) for i in range(RUNS)]
            stats = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                stats[name] = spread([r["result"]["metrics"][name]["value"] for r in runs])
                ok = stats[name]["spread"] < metric["bound"] / 3
                stats[name]["within_third_of_bound"] = ok
                if not ok:
                    problems.append(f"{workload} set {s + 1}: {name} spread "
                                    f"{stats[name]['spread']:.4f} >= bound/3")
                print(f"{workload} set {s + 1} {name}: median {stats[name]['median']:.6g} "
                      f"spread {stats[name]['spread']:.4f} (bound {metric['bound']})", flush=True)
            for r in runs:
                if not r["result"]["correct"]:
                    problems.append(f"{workload} seed {r['seed']}: {r['report']['failures']}")
            sets.append({"stats": stats, "runs": runs})
        comparison = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            worse = worse_by(sets[0]["stats"][name]["median"], sets[1]["stats"][name]["median"],
                             metric["better"])
            comparison[name] = {"second_worse_by": worse, "bound": metric["bound"]}
            if worse > metric["bound"]:
                problems.append(f"{workload}: second median of {name} worse by {worse:.4f}")
        traced = [run_once(workload, seed, spec["run_seconds"], 1) for seed in range(TRACED)]
        for r in traced:
            if not r["result"]["correct"]:
                problems.append(f"{workload} traced seed {r['seed']}: {r['report']['failures']}")
        counts = {name: sorted({r["result"]["metrics"][name]["value"] for r in traced})
                  for name in EXACT_COUNTS}
        for name, values in counts.items():
            if len(values) > 1:
                problems.append(f"{workload}: {name} differs across traced runs: {values}")
        summary["workloads"][workload] = {
            "sets": sets, "median_comparison": comparison, "exact_counts": counts,
            "traced": traced,
        }
    summary["problems"] = problems
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
