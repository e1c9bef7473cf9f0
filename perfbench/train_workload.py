"""The train_fixture and train_dense workloads: untraced train() calls and the traced rebuild.

Both run ``train()`` with the default TrainConfig on cube-to-sphere; they
differ only in the source subdivisions, which sets the vertex count per stage
(8/26/98 against 98/386/1538) and so whether the optimizer or the dense
V x V operators dominate a step.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from stdnet.autodiff import Tape, scalar_mul
from stdnet.fixtures import make_fixtures
from stdnet.losses import chamfer_loss, edge_loss, laplacian_loss, sample_surface
from stdnet.network import DeformationNetwork
from stdnet.train import Adam, TrainConfig, train

from bench import (LOSS_RTOL, Tally, Tracer, clocks, close_rel, median_of, peak_rss_mb,
                   quantile, trace_plan)

SOURCE_SUBDIVISIONS = {"train_fixture": 0, "train_dense": 2}
# Iterations per train() call: three validation windows on the fixture, one
# on the dense mesh, where a window takes 20 s or more.
ITERATIONS = {"train_fixture": 30, "train_dense": 10}
# The traced run makes an untraced and a traced call of this many iterations.
TRACED_ITERATIONS = {"train_fixture": 30, "train_dense": 5}
# Set-up is repeated in extra train(iterations=0) calls so its median rests on
# at least this many samples.
SETUP_SAMPLES = 5
# Iterations whose l_all is pinned by the reference, besides the last one.
REFERENCE_ITERATIONS = (1, 10)
PLAN_REPEATS = 3
VALIDATION_STREAM = 2  # train() draws validation samples from seed stream 2
# The module itself: the package exports the function train() under its name.
TRAIN_MODULE = importlib.import_module("stdnet.train")


def dataset(workload: str, seed: int):
    pairs = make_fixtures("cube-to-sphere", seed)
    for pair in pairs:
        pair.source_subdivisions = SOURCE_SUBDIVISIONS[workload]
    return pairs


@dataclass
class TrainCall:
    """One timed train() call: set-up time, validation and step stamps, and the outcome."""

    iterations: int
    setup: tuple  # (wall s, CPU s) from the call's start to the iteration-0 log
    stamps: list = field(default_factory=list)   # (iteration, wall, cpu) per log
    steps: list = field(default_factory=list)    # (wall, cpu) at the end of each Adam step
    rows: list | None = None
    best_val: float | None = None
    error: str | None = None

    def iterations_ms(self) -> list[tuple[float, float]]:
        """(wall ms, CPU ms) of each iteration, from the end of the step or validation
        before it to the end of its Adam step: forward, losses, backward and the update."""
        events = sorted([stamp[1:] for stamp in self.stamps] + self.steps)
        ends = set(self.steps)
        return [(1e3 * (b[0] - a[0]), 1e3 * (b[1] - a[1]))
                for a, b in zip(events, events[1:]) if b in ends]

    @property
    def timed(self) -> tuple[int, float, float]:
        """(iterations, wall s, CPU s) from the iteration-0 log to the last validation."""
        if len(self.stamps) < 2:
            return 0, 0.0, 0.0
        (i0, wall0, cpu0), (i1, wall1, cpu1) = self.stamps[0], self.stamps[-1]
        return i1 - i0, wall1 - wall0, cpu1 - cpu0


@contextmanager
def stamped_steps(steps: list):
    """Make train() build an Adam that appends its clocks to ``steps`` after each step.

    train() looks its optimizer class up in its module when it starts; the
    subclass only adds the stamp, so the arithmetic is Adam's own.
    """
    class StampedAdam(Adam):
        def step(self, grads):
            super().step(grads)
            steps.append(clocks())

    TRAIN_MODULE.Adam = StampedAdam
    try:
        yield
    finally:
        TRAIN_MODULE.Adam = Adam


def timed_train(workload: str, seed: int, iterations: int) -> TrainCall:
    start = clocks()
    config = TrainConfig(iterations=iterations, seed=seed)
    pairs = dataset(workload, seed)
    net = DeformationNetwork(config.network_config())
    stamps = []

    def log(message: str) -> None:
        now = clocks()
        if message.startswith("iteration "):
            stamps.append((int(message.split()[1].rstrip(":")), *now))

    call = TrainCall(iterations, (math.nan, math.nan), stamps)
    try:
        with stamped_steps(call.steps):
            result = train(net, pairs, config, log=log)
    except Exception as exc:  # a call that raises fails all its iterations
        call.error = f"{type(exc).__name__}: {exc}"
    else:
        call.rows = result.rows
        call.best_val = result.best_val_chamfer
    if stamps:
        call.setup = (stamps[0][1] - start[0], stamps[0][2] - start[1])
    return call


def check_call(call: TrainCall, first: TrainCall | None, reference: dict | None,
               tally: Tally) -> None:
    """Count the call's iterations, failing those whose output check fails."""
    if call.error is not None:
        tally.add(call.iterations, call.iterations, call.error)
        return
    failed = set()
    for row in call.rows[1:]:
        if not math.isfinite(float(row[4])):
            failed.add(row[0])
        if row[5] and not math.isfinite(float(row[5])):
            failed.add(row[0])
    if first is not None and first.rows is not None:
        # Same seed and config: every call repeats the first one exactly.
        failed.update(a[0] for a, b in zip(call.rows, first.rows) if a != b)
    if reference is not None:
        for it, expected in reference["l_all"].items():
            if not close_rel(float(call.rows[int(it)][4]), expected, LOSS_RTOL):
                failed.add(int(it))
        if not close_rel(call.best_val, reference["best_val_chamfer"], LOSS_RTOL):
            failed.add(call.iterations)
    tally.add(call.iterations, len(failed),
              f"iterations {sorted(failed)} failed their output check")


def observations(call: TrainCall) -> dict:
    """Reference values this call produces (recorded at the reference seed)."""
    pinned = sorted({*REFERENCE_ITERATIONS, call.iterations})
    return {"l_all": {str(it): float(call.rows[it][4]) for it in pinned},
            "best_val_chamfer": call.best_val}


def run(workload: str, seed: int, seconds: float, reference: dict | None) -> dict:
    """Closed loop of train() calls for ``seconds``; returns metrics and the tally."""
    tally = Tally()
    setups, latencies = [], []  # latencies: (wall ms, CPU ms) per iteration
    iterations, busy, busy_cpu, calls = 0, 0.0, 0.0, 0
    first = None
    start = time.perf_counter()
    while True:
        calls += 1
        call = timed_train(workload, seed, ITERATIONS[workload])
        check_call(call, first, reference, tally)
        first = first or call
        setups.append(call.setup)
        latencies.extend(call.iterations_ms())
        n, s, cpu_s = call.timed
        iterations += n
        busy += s
        busy_cpu += cpu_s
        if time.perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(timed_train(workload, seed, 0).setup)
    if not latencies or iterations == 0:
        raise RuntimeError("no train() call reached a validation callback")
    wall, cpu = ([sample[k] for sample in latencies] for k in (0, 1))
    return {
        "tally": tally,
        "observations": observations(first) if first.rows else None,
        "metrics": {
            "train_iters_per_s": (iterations / busy, "it/s"),
            "train_iters_per_cpu_s": (iterations / busy_cpu, "it/s"),
            "train_iter_cpu_ms_p50": (statistics.median(cpu), "ms"),
            "train_iter_cpu_ms_p90": (quantile(cpu, 90), "ms"),
            "train_iter_wall_ms_p50": (statistics.median(wall), "ms"),
            "train_iter_wall_ms_p90": (quantile(wall, 90), "ms"),
            "setup_only_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
            "setup_only_cpu_s": (statistics.median(cpu for _, cpu in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "samples": {"train_calls": calls, "setups": len(setups), "iterations": len(latencies),
                    "timed_iterations": iterations},
    }


# --- traced run -------------------------------------------------------------


def validation_chamfer(net, mesh, plan, target, config: TrainConfig) -> float:
    """train()'s validation chamfer, rebuilt from public calls (one pair)."""
    rng = np.random.default_rng([config.seed, VALIDATION_STREAM])
    tape = Tape()
    final = net.forward(tape, mesh, plan=plan, bound=net.bind(tape))[-1]
    pred = sample_surface(final.v_out.value, final.faces, config.samples, rng)
    target_batch = sample_surface(target.vertices, target.faces, config.samples, rng)
    return float(np.mean([chamfer_loss(pred, target_batch).item()]))


def traced_step(tracer: Tracer, net, mesh, plan, target, optimizer,
                config: TrainConfig, it: int) -> tuple[float, int]:
    """One train() iteration from public calls, with a span around each; (l_all, tape nodes)."""
    rng = np.random.default_rng([config.seed, 1, it])
    tape = Tape()
    bound = net.bind(tape)
    with tracer.span("network.forward"):
        blocks = net.forward(tape, mesh, plan=plan, bound=bound)
    with tracer.span("losses.sample_surface"):
        target_batch = sample_surface(target.vertices, target.faces, config.samples, rng)
    cd_terms, lap_terms, edge_terms = [], [], []
    for block in blocks:
        with tracer.span("losses.sample_surface"):
            batch = sample_surface(block.v_out, block.faces, config.samples, rng)
        with tracer.span("losses.chamfer"):
            cd_terms.append(chamfer_loss(batch, target_batch))
        with tracer.span("losses.laplacian"):
            lap_terms.append(laplacian_loss(block.v_in, block.v_out, block.edges))
        with tracer.span("losses.edge"):
            edge_terms.append(edge_loss(block.v_out, block.edges))
    cd, lap, edge = (_sum(t) for t in (cd_terms, lap_terms, edge_terms))
    loss = cd + (scalar_mul(config.lambda_lap, lap) + scalar_mul(config.lambda_edge, edge))
    total = loss.item()
    nodes = len(tape)
    with tracer.span("autodiff.backward"):
        loss.backward()
    with tracer.span("train.adam_step"):
        optimizer.step({name: t.grad for name, t in bound.items()})
    return total, nodes


def _sum(terms):
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def trace(workload: str, seed: int) -> dict:
    """Per-layer self times of the workload, checked against an untraced train() call.

    The references pin ITERATIONS-long calls, so here the traced steps are
    checked against the untraced call instead.
    """
    tally = Tally()
    tracer = Tracer()
    iterations = TRACED_ITERATIONS[workload]
    config = TrainConfig(iterations=iterations, seed=seed)
    pair = dataset(workload, seed)[0]
    mesh = pair.source_meshes()[0]

    adjacency_bytes = 0
    for r in range(PLAN_REPEATS):
        with tracer.operation(f"plan{r}"):
            adjacency_bytes = trace_plan(tracer, DeformationNetwork(config.network_config()),
                                         mesh, tally)

    untraced = timed_train(workload, seed, iterations)
    check_call(untraced, None, None, tally)
    n, _, cpu_s = untraced.timed
    untraced_ms = 1e3 * cpu_s / n if n else math.nan

    net = DeformationNetwork(config.network_config())
    plan = net.plan(mesh)
    optimizer = Adam(net.parameters(), lr=config.lr, beta1=config.beta1,
                     beta2=config.beta2, eps=config.eps, weight_decay=config.weight_decay)
    rows = untraced.rows or []
    nodes = 0
    cpu0 = time.process_time()
    for it in range(1, iterations + 1):
        with tracer.operation(f"step{it}"), tracer.span("train.step"):
            total, nodes = traced_step(tracer, net, mesh, plan, pair.target,
                                       optimizer, config, it)
        ok = math.isfinite(total) and it < len(rows) and rows[it][4] == repr(total)
        if it % config.eval_every == 0 or it == iterations:
            with tracer.operation(f"val{it}"), tracer.span("train.validation"):
                val = validation_chamfer(net, mesh, plan, pair.target, config)
            ok = ok and rows[it][5] == repr(val)
        tally.check(ok, f"traced iteration {it} differs from train()")
    traced_ms = 1e3 * (time.process_time() - cpu0) / iterations

    steps = tracer.per_op("step")
    adam_bytes = 4 * sum(p.nbytes for p in net.parameters().values())  # param, grad, m, v
    layers = {
        "mesh.adjacency_ms": median_of(tracer.per_op("plan"), "mesh.adjacency"),
        "mesh.subdivide_ms": median_of(tracer.per_op("plan"), "mesh.subdivide"),
        "mesh.adjacency_bytes": adjacency_bytes,
        "network.plan_ms": median_of(tracer.per_op("plan"), "network.plan"),
        "network.forward_ms": median_of(steps, "network.forward"),
        "autodiff.backward_ms": median_of(steps, "autodiff.backward"),
        "autodiff.tape_nodes": nodes,
        "losses.sample_surface_ms": median_of(steps, "losses.sample_surface"),
        "losses.laplacian_ms": median_of(steps, "losses.laplacian"),
        "losses.chamfer_ms": median_of(steps, "losses.chamfer"),
        "losses.edge_ms": median_of(steps, "losses.edge"),
        "train.adam_step_ms": median_of(steps, "train.adam_step"),
        "train.adam_bytes": adam_bytes,
        "train.validation_ms": statistics.median(tracer.wall_ms("train.validation")),
        "trace.traced_op_ms": traced_ms,
        "trace.untraced_op_ms": untraced_ms,
        "trace.overhead_pct": 100.0 * (traced_ms / untraced_ms - 1.0),
    }
    return {"tally": tally, "tracer": tracer, "layers": layers}
