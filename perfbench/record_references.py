"""Record the outputs that runs at the reference seed are checked against.

    python3 perfbench/record_references.py

Runs each workload once at ``bench.REFERENCE_SEED``, each in its own process
with the benchmark's thread settings, and writes perfbench/references.json:
train()'s l_all at fixed iterations and best validation chamfer, the vertices
of every `stdnet deform` block OBJ, and evaluate()'s per-pair values.
"""

import argparse
import json
import shutil
import subprocess
import sys

import run


def observe(workload: str) -> dict:
    run.pin_threads()
    if not run.import_program():
        raise SystemExit(2)
    import bench
    import infer_workload
    import train_workload
    if workload == "infer_multipart":
        workdir = bench.OUT_DIR / "record-references"
        try:
            measured = infer_workload.run(bench.REFERENCE_SEED, 0, None, workdir,
                                          min_deform_calls=1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        measured = train_workload.run(workload, bench.REFERENCE_SEED, 0, None)
    if measured["tally"].failed:
        raise SystemExit(f"{workload}: invariant checks failed: {measured['tally'].reasons}")
    return measured["observations"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS,
                        help="observe one workload in this process and print it")
    args = parser.parse_args()
    if args.workload:
        print(json.dumps(observe(args.workload)))
        return 0
    references = {}
    for workload in run.WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", workload],
                             capture_output=True, text=True, check=True, timeout=600)
        references[workload] = json.loads(out.stdout.splitlines()[-1])
    path = run.HERE / "references.json"
    path.write_text(json.dumps(references, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
