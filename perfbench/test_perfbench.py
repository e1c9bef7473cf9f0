"""Tests of the benchmark itself: the BENCHMARK.json contract, the result schema,
that a failed output check raises failed_op_share, and that a directory
without the program's sources is refused.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import infer_workload  # noqa: E402
import run  # noqa: E402
import train_workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def result_line(argv, capsys) -> dict:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "report" in json.loads(lines[-2])
    return json.loads(lines[-1])


def check_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_untraced_result_schema(capsys):
    result = result_line(["--workload", "train_fixture", "--seed", "3", "--seconds", "0",
                          "--trace", "0"], capsys)
    check_schema(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_result_schema_and_faithfulness(capsys):
    result = result_line(["--workload", "train_fixture", "--seed", "3", "--seconds", "0",
                          "--trace", "1"], capsys)
    check_schema(result, SPEC["per_layer"])
    # A mismatch between the traced rebuild and train() would count as failed.
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["autodiff.tape_nodes"]["value"] == 565
    assert result["metrics"]["mesh.adjacency_bytes"]["value"] == 8 * 2 * (8**2 + 26**2 + 98**2)


def test_iteration_latency_excludes_validation():
    # Logs at iterations 0, 2 and 4 (each after its validation); steps end at
    # 1, 3, 5 and 6 s of wall time. Validation runs from 3 to 4 s and from 6 to
    # 9 s. The CPU clock runs at half the wall clock's rate.
    call = train_workload.TrainCall(4, 0.0, stamps=[(0, 0.0, 0.0), (2, 4.0, 2.0), (4, 9.0, 4.5)],
                                    steps=[(1.0, 0.5), (3.0, 1.5), (5.0, 2.5), (6.0, 3.0)])
    assert call.iterations_ms() == [(1000.0, 500.0), (2000.0, 1000.0), (1000.0, 500.0),
                                    (1000.0, 500.0)]
    assert call.timed == (4, 9.0, 4.5)


def test_spans_around_names_give_self_time_and_restore_them():
    class Owner:
        @staticmethod
        def child():
            return 7

    def parent():
        return Owner.child() + 1

    original = Owner.child
    tracer = bench.Tracer()
    with tracer.operation("op"), tracer.around([(Owner, "child", "child")]):
        with tracer.span("parent"):
            assert parent() == 8
    assert Owner.child is original
    assert [s["name"] for s in tracer.spans] == ["parent", "child"]
    wall = tracer.wall_ms("parent", "op")[0]
    by_name = tracer.per_op("op")["op"]
    assert 0.0 <= by_name["parent"] <= wall
    assert by_name["parent"] + by_name["child"] == pytest.approx(wall)


def test_forced_train_check_failure_raises_failed_share():
    reference = bench.load_references("train_fixture", bench.REFERENCE_SEED)
    good = train_workload.run("train_fixture", bench.REFERENCE_SEED, 0, reference)
    assert good["tally"].failed == 0 and good["tally"].share == 0.0
    bad = copy.deepcopy(reference)
    bad["l_all"]["10"] *= 1.0 + 1e-4
    forced = train_workload.run("train_fixture", bench.REFERENCE_SEED, 0, bad)
    assert forced["tally"].failed == 1
    assert forced["tally"].share == pytest.approx(1 / train_workload.ITERATIONS["train_fixture"])


def test_forced_deform_check_failure_raises_failed_share(tmp_path):
    reference = copy.deepcopy(bench.load_references("infer_multipart", bench.REFERENCE_SEED))
    reference["block_vertices"][2][0][0] += 1e-6
    measured = infer_workload.run(bench.REFERENCE_SEED, 0, reference, tmp_path,
                                  min_deform_calls=1)
    tally = measured["tally"]
    # Six rounds of one deform request and one evaluated pair: every request
    # fails its check, every pair passes.
    assert (tally.attempted, tally.failed) == (12, 6)
    assert tally.share == pytest.approx(0.5)


def test_directory_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(SPEC["command"] + ["--workload", "train_fixture", "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
