"""Run one workload of the stdnet benchmark and print its result.

    python3 perfbench/run.py --workload train_fixture --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see README.md in this directory for why each exists):

  train_fixture    train() at the defaults on cube-to-sphere, 8/26/98 vertices
  train_dense      the same with source subdivisions 2, 98/386/1538 vertices
  infer_multipart  `stdnet deform` requests on a two-part chair plus evaluate()

With ``--trace 0`` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of the
traced run instead. The line before it is a report with the metrics under
their own names, the sample counts, the failure reasons and the environment.
The process exits 2, printing no result, when the program cannot be imported.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_fixture", "train_dense", "infer_multipart")
# Fresh interpreters timed from spawn to the end of `import stdnet`.
IMPORT_SAMPLES = 5

# BENCHMARK.json names end-to-end metrics that every workload reports; this
# maps them to each workload's own metric.
END_TO_END = {
    "train": {"ops_per_cpu_s": "train_iters_per_cpu_s",
              "cpu_ms_p50": "train_iter_cpu_ms_p50",
              "cpu_ms_p90": "train_iter_cpu_ms_p90"},
    "infer": {"ops_per_cpu_s": "eval_pairs_per_cpu_s",
              "cpu_ms_p50": "deform_cpu_ms_p50",
              "cpu_ms_p90": "deform_cpu_ms_p90"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread; evaluate()'s pool gets nproc, so no workload exceeds nproc threads.

    A second BLAS thread speeds train_dense up by a quarter but widens the
    run-to-run spread on this shared two-core class of machine, and its
    reductions change the last bits of every loss.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["STDNET_THREADS"] = str(len(os.sched_getaffinity(0)))


def import_program() -> bool:
    src = ROOT / "src"
    if not (src / "stdnet" / "__init__.py").is_file():
        print(f"perfbench: no stdnet sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import stdnet
    if Path(stdnet.__file__).resolve().parent != (src / "stdnet").resolve():
        print(f"perfbench: imported stdnet from {stdnet.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def import_seconds() -> tuple[float, float]:
    """Median (wall s, CPU s) of starting a fresh interpreter and importing stdnet."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import stdnet"
    walls, cpus = [], []
    for _ in range(IMPORT_SAMPLES):
        start, before = time.perf_counter(), _children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        walls.append(time.perf_counter() - start)
        cpus.append(_children_cpu() - before)
    return statistics.median(walls), statistics.median(cpus)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def end_to_end(workload: str, measured: dict, import_s: tuple[float, float]) -> dict:
    """BENCHMARK.json's end-to-end metrics from the workload's own ones."""
    m = measured["metrics"]
    aliases = END_TO_END["train" if workload.startswith("train") else "infer"]
    out = {name: m[own] for name, own in aliases.items()}
    # Process start to the first timed operation: a fresh interpreter's
    # import, plus the workload's own set-up, each the median of repeats.
    out["setup_s"] = (import_s[1] + m.pop("setup_only_cpu_s")[0], "s")
    out["peak_rss_mb"] = m["peak_rss_mb"]
    m["setup_wall_s"] = (import_s[0] + m.pop("setup_only_wall_s")[0], "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not import_program():
        return 2
    import bench
    import infer_workload
    import train_workload

    declared = declared_metrics()
    reference = bench.load_references(args.workload, args.seed)
    workdir = bench.OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            if args.workload == "infer_multipart":
                measured = infer_workload.trace(args.seed, reference, workdir)
            else:
                measured = train_workload.trace(args.workload, args.seed)
            measured["tracer"].dump(bench.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            unknown = set(measured["layers"]) - set(declared["per_layer"])
            if unknown:
                raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
            # A layer the workload never calls did no work on it.
            metrics = {name: (measured["layers"].get(name, 0.0), unit)
                       for name, unit in declared["per_layer"].items()}
            own = dict(metrics)
        else:
            if args.workload == "infer_multipart":
                measured = infer_workload.run(args.seed, args.seconds, reference, workdir)
            else:
                measured = train_workload.run(args.workload, args.seed, args.seconds, reference)
            metrics = end_to_end(args.workload, measured, import_seconds())
            own = dict(measured["metrics"], setup_cpu_s=metrics["setup_s"])
            if set(metrics) != set(declared["end_to_end"]):
                raise RuntimeError("end-to-end metrics do not match BENCHMARK.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = measured["tally"]
    own["failed_op_share"] = (tally.share, "fraction")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reference_checked": reference is not None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in own.items()},
        "samples": measured.get("samples", {}),
        "failures": tally.reasons,
        "environment": bench.environment(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared["per_layer" if args.trace else "end_to_end"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
