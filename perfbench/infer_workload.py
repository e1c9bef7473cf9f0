"""The infer_multipart workload: in-process `stdnet deform` requests and evaluate() calls.

Nothing here trains. A checkpoint with seeded non-zero coordinate-layer
weights is written in set-up, so the forward pass moves vertices. Each request
deforms the two-box chair (two leaf parts, source subdivisions 1) through
``stdnet.cli.main``; each evaluate() call scores one of six pairs, one or two
of every fixture kind, at voxel resolution 32.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stdnet import cli
from stdnet.autodiff import Tape
from stdnet.boxes import load_structure, mesh_cuboid, save_structure
from stdnet.fixtures import FIXTURE_KINDS, make_fixtures
from stdnet.losses import sample_surface
from stdnet.mesh import TriangleMesh, parse_obj
from stdnet.metrics import (F1_SAMPLES, chamfer_metric, evaluate, f1_score,
                            normalize_to_unit_cube, voxel_iou)
from stdnet.network import (DeformationNetwork, NetworkConfig, network_forward,
                            save_checkpoint)

from bench import (CHAMFER_RTOL, PERCENT_ATOL, VERTEX_ATOL, Tally, Tracer, clocks, close_rel,
                   median_of, peak_rss_mb, quantile, trace_plan)

SUBDIVISIONS = 1
RESOLUTION = 32
BLOCKS = 3
# The p90 of deform latency needs ten samples above it.
MIN_DEFORM_CALLS = 100
# Small enough that deformed meshes stay far from degenerate, large enough
# that every block output differs from its input.
COORD_WEIGHT_STD = 1e-3
SETUP_SAMPLES = 5
TRACED_REQUESTS = 20
PLAN_REPEATS = 3
PERCENT_FIELDS = ("f1", "precision", "recall", "iou")


@dataclass
class Setup:
    net: DeformationNetwork
    checkpoint: Path
    chair: Path
    dataset: list

    def deform_args(self, out: Path) -> list[str]:
        return ["deform", str(self.checkpoint), str(self.chair),
                "--subdivisions", str(SUBDIVISIONS), "--out", str(out), "--quiet"]


def build(workdir: Path, seed: int) -> Setup:
    """Fixtures, a seeded checkpoint and the chair's box JSON, written under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    net = DeformationNetwork(NetworkConfig(seed=seed))
    rng = np.random.default_rng([seed, 7])
    for block in net.blocks:
        for w in block.coord.weights:
            w[...] = rng.normal(0.0, COORD_WEIGHT_STD, w.shape)
    checkpoint = workdir / "model.stdn"
    save_checkpoint(checkpoint, net)
    chair = workdir / "chair.box.json"
    save_structure(make_fixtures("two-box-chair", seed)[0].source, chair)
    pairs = [pair for kind in FIXTURE_KINDS for pair in make_fixtures(kind, seed)]
    for pair in pairs:
        pair.source_subdivisions = SUBDIVISIONS
    return Setup(net, checkpoint, chair, pairs)


def read_blocks(out: Path) -> tuple[str, ...]:
    return tuple((out / f"chair.block{b}.obj").read_text() for b in range(1, BLOCKS + 1))


class DeformCheck:
    """Verdicts on deform outputs: counting laws, finiteness, reference and determinism."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first = None
        self.verdicts: dict[tuple, bool] = {}

    def __call__(self, texts: tuple[str, ...]) -> bool:
        if texts not in self.verdicts:
            self.verdicts[texts] = self._valid(texts)
        if self.first is None:
            self.first = texts
        # The same request must give byte-identical files every time.
        return self.verdicts[texts] and texts == self.first

    def _valid(self, texts) -> bool:
        meshes = [parse_obj(t) for t in texts]
        if not all(np.isfinite(m.vertices).all() for m in meshes):
            return False
        for a, b in zip(meshes, meshes[1:]):
            if b.n_vertices != a.n_vertices + a.n_edges or b.n_faces != 4 * a.n_faces:
                return False
        if self.reference is not None:
            for m, ref in zip(meshes, self.reference["block_vertices"]):
                ref = np.asarray(ref)
                if m.vertices.shape != ref.shape or np.abs(m.vertices - ref).max() > VERTEX_ATOL:
                    return False
        return True


def report_values(report) -> dict:
    return {"chamfer": report.chamfer, **{k: getattr(report, k) for k in PERCENT_FIELDS}}


class EvalCheck:
    """Verdict per evaluated pair: finite chamfer, percentages in range, reference, determinism."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[int, dict] = {}

    def __call__(self, index: int, report) -> bool:
        v = report_values(report)
        self.first.setdefault(index, v)
        ok = math.isfinite(v["chamfer"]) and v["chamfer"] >= 0.0
        ok = ok and all(0.0 <= v[k] <= 100.0 for k in PERCENT_FIELDS)
        ok = ok and v == self.first[index]
        if self.reference is not None:
            ref = self.reference["pairs"][index]
            ok = ok and close_rel(v["chamfer"], ref["chamfer"], CHAMFER_RTOL)
            ok = ok and all(abs(v[k] - ref[k]) <= PERCENT_ATOL[k] for k in PERCENT_FIELDS)
        return ok


def deform_once(args: list[str], out: Path, check: DeformCheck):
    """One `stdnet deform` request: (passed, (wall ms, CPU ms) or None if it raised,
    reason if it did not pass)."""
    wall0, cpu0 = clocks()
    try:
        code = cli.main(args)
    except Exception as exc:  # a request that raises is a failed operation
        return False, None, f"deform raised {exc!r}"
    wall1, cpu1 = clocks()
    ms = (1e3 * (wall1 - wall0), 1e3 * (cpu1 - cpu0))
    if code != 0:
        return False, ms, f"deform exit code {code}"
    return check(read_blocks(out)), ms, "deform output check failed"


def evaluate_one(setup: Setup, index: int, seed: int):
    """evaluate() on one pair of the dataset; returns its report."""
    reports, _ = evaluate(setup.net, [setup.dataset[index]], seed=seed, resolution=RESOLUTION)
    return reports[0]


def run(seed: int, seconds: float, reference: dict | None, workdir: Path,
        min_deform_calls: int = MIN_DEFORM_CALLS) -> dict:
    """Rounds of deform requests, each round followed by evaluate() on the next pair.

    Rounds go on until every pair is evaluated, at least min_deform_calls
    requests are made and ``seconds`` have passed. Interleaving spreads the
    evaluation over the whole run, as the requests are, so both metrics
    average the same stretch of machine time.
    """
    setups = []
    for _ in range(SETUP_SAMPLES):
        wall0, cpu0 = clocks()
        setup = build(workdir / "setup", seed)
        wall1, cpu1 = clocks()
        setups.append((wall1 - wall0, cpu1 - cpu0))
    tally = Tally()
    deform_check, eval_check = DeformCheck(reference), EvalCheck(reference)
    out = workdir / "deform"
    args = setup.deform_args(out)
    n_pairs = len(setup.dataset)
    per_round = math.ceil(min_deform_calls / n_pairs)
    passed_ms, returned_ms = [], []
    pairs, eval_s, eval_cpu_s, rounds = 0, 0.0, 0.0, 0
    start = time.perf_counter()
    while rounds < n_pairs or time.perf_counter() - start < seconds:
        for _ in range(per_round):
            ok, ms, reason = deform_once(args, out, deform_check)
            if tally.check(ok, reason):
                passed_ms.append(ms)
            if ms is not None:
                returned_ms.append(ms)
        index = rounds % n_pairs
        rounds += 1
        wall0, cpu0 = clocks()
        try:
            report = evaluate_one(setup, index, seed)
        except Exception as exc:  # a pair that raises is a failed operation
            tally.add(1, 1, f"evaluate raised {exc!r}")
            continue
        wall1, cpu1 = clocks()
        eval_s += wall1 - wall0
        eval_cpu_s += cpu1 - cpu0
        pairs += 1
        tally.check(eval_check(index, report),
                    f"evaluate output check failed for {report.identifier}")
    if not returned_ms or not pairs:
        raise RuntimeError("every deform request or every evaluate() call raised")
    # Latency is over the requests that passed; if none did, the failures
    # are in the tally and the latency falls back to every returned request.
    wall, cpu = ([sample[k] for sample in passed_ms or returned_ms] for k in (0, 1))
    observed = None
    if deform_check.first is not None and len(eval_check.first) == n_pairs:
        observed = {"block_vertices": [parse_obj(t).vertices.tolist() for t in deform_check.first],
                    "pairs": [eval_check.first[i] for i in range(n_pairs)]}
    return {
        "tally": tally,
        "observations": observed,
        "metrics": {
            "deform_cpu_ms_p50": (statistics.median(cpu), "ms"),
            "deform_cpu_ms_p90": (quantile(cpu, 90), "ms"),
            "deform_wall_ms_p50": (statistics.median(wall), "ms"),
            "deform_wall_ms_p90": (quantile(wall, 90), "ms"),
            "eval_pairs_per_s": (pairs / eval_s, "pairs/s"),
            "eval_pairs_per_cpu_s": (pairs / eval_cpu_s, "pairs/s"),
            "setup_only_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
            "setup_only_cpu_s": (statistics.median(cpu for _, cpu in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "samples": {"deform_calls": len(returned_ms), "deform_passed": len(passed_ms),
                    "eval_pairs": pairs, "setups": len(setups)},
    }


# --- traced run -------------------------------------------------------------


def union(meshes: list[TriangleMesh]) -> TriangleMesh:
    """Disjoint union with offset faces, the order the CLI and evaluate() use."""
    offsets = np.cumsum([0] + [m.n_vertices for m in meshes])[:-1]
    return TriangleMesh(np.concatenate([m.vertices for m in meshes]),
                        np.concatenate([m.faces + off for m, off in zip(meshes, offsets)]))


def request_spans(tracer: Tracer):
    """Spans around the names `stdnet deform` calls through, for the real request."""
    return tracer.around([
        (cli, "load_checkpoint", "network.load_checkpoint"),
        (cli, "_load_source_meshes", "boxes.load_mesh"),
        (DeformationNetwork, "plan", "network.plan"),
        (DeformationNetwork, "forward", "network.infer_forward"),
        (cli, "write_obj", "mesh.write_obj"),
    ])


def traced_pair(tracer: Tracer, net, pair, seed: int):
    """evaluate() on a one-pair dataset, rebuilt from public calls; returns its metric values."""
    with tracer.span("metrics.eval_pair"):
        finals = []
        for part in pair.source_meshes():
            with tracer.span("network.infer_forward"):
                finals.append(network_forward(net, part)[-1])
        pred, gt = normalize_to_unit_cube([union(finals), pair.target])
        rng = np.random.default_rng([seed, 0])  # evaluate() seeds [seed, pair index]
        with tracer.span("metrics.sample"):
            pred_pts = sample_surface(pred.vertices, pred.faces, F1_SAMPLES, rng).points
            gt_pts = sample_surface(gt.vertices, gt.faces, F1_SAMPLES, rng).points
        with tracer.span("metrics.chamfer"):
            chamfer = chamfer_metric(pred_pts, gt_pts)
        with tracer.span("metrics.f1"):
            f1, precision, recall = f1_score(pred_pts, gt_pts, 1e-4)
        with tracer.span("metrics.voxel_iou"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            iou = voxel_iou(pred, gt, RESOLUTION)
    return {"chamfer": chamfer, "f1": f1, "precision": precision, "recall": recall,
            "iou": iou}


def trace(seed: int, reference: dict | None, workdir: Path) -> dict:
    tally = Tally()
    tracer = Tracer()
    setup = build(workdir / "setup", seed)
    parts = [mesh_cuboid(leaf, SUBDIVISIONS) for leaf in load_structure(setup.chair).leaves()]

    adjacency_bytes = 0
    for r in range(PLAN_REPEATS):
        with tracer.operation(f"plan{r}"):
            adjacency_bytes = sum(trace_plan(tracer, setup.net, part, tally) for part in parts)
    tape = Tape()
    bound = setup.net.bind(tape)
    for part in parts:
        setup.net.forward(tape, part, bound=bound)
    tape_nodes = len(tape)

    # Untraced and traced requests alternate, so drift of the machine falls
    # on both alike; both are the real `stdnet deform` call.
    deform_check = DeformCheck(reference)
    plain_out, traced_out = workdir / "deform", workdir / "traced"
    untraced_ms, traced_ms = [], []
    for i in range(TRACED_REQUESTS):
        ok, ms, reason = deform_once(setup.deform_args(plain_out), plain_out, deform_check)
        untraced_ms.append(ms[1] if ms else math.nan)
        cpu0 = time.process_time()
        with tracer.operation(f"request{i}"), request_spans(tracer), tracer.span("cli.deform"):
            code = cli.main(setup.deform_args(traced_out))
        traced_ms.append(1e3 * (time.process_time() - cpu0))
        tally.check(ok and code == 0 and read_blocks(traced_out) == read_blocks(plain_out),
                    f"traced deform request {i} differs from the untraced one ({reason})")

    eval_check = EvalCheck(reference)
    for index, pair in enumerate(setup.dataset):
        report = evaluate_one(setup, index, seed)
        with tracer.operation(f"pair{index}"):
            values = traced_pair(tracer, setup.net, pair, seed)
        tally.check(eval_check(index, report) and values == report_values(report),
                    f"traced pair {pair.identifier} differs from evaluate()")

    requests, pairs = tracer.per_op("request"), tracer.per_op("pair")
    plans = tracer.per_op("plan")
    traced, untraced = statistics.median(traced_ms), statistics.median(untraced_ms)

    def per_pair(name):
        return sum(d.get(name, 0.0) for d in pairs.values()) / len(pairs)

    layers = {
        "mesh.adjacency_ms": median_of(plans, "mesh.adjacency"),
        "mesh.subdivide_ms": median_of(plans, "mesh.subdivide"),
        "mesh.adjacency_bytes": adjacency_bytes,
        "mesh.write_obj_ms": median_of(requests, "mesh.write_obj"),
        "boxes.load_mesh_ms": median_of(requests, "boxes.load_mesh"),
        "network.plan_ms": median_of(plans, "network.plan"),
        "network.infer_forward_ms": statistics.median(
            tracer.wall_ms("network.infer_forward", "request")),
        "network.load_checkpoint_ms": median_of(requests, "network.load_checkpoint"),
        "autodiff.tape_nodes": tape_nodes,
        "metrics.voxel_iou_ms": per_pair("metrics.voxel_iou"),
        "metrics.f1_ms": per_pair("metrics.f1"),
        "metrics.chamfer_ms": per_pair("metrics.chamfer"),
        "metrics.sample_ms": per_pair("metrics.sample"),
        "cli.deform_self_ms": median_of(requests, "cli.deform"),
        "trace.traced_op_ms": traced,
        "trace.untraced_op_ms": untraced,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }
    return {"tally": tally, "tracer": tracer, "layers": layers}
