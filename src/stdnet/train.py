"""Adam optimization of the deformation network on (box, mesh) pairs."""

from __future__ import annotations

import functools
import json
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tape
from .errors import DataFormatError, EmptyInputError, NumericalError
from .fixtures import DatasetPair
from .losses import chamfer_loss, sample_surface, total_loss
from .mesh import TriangleMesh
from .network import (ArchitectureConfig, DeformationNetwork, ForwardPlan, NetworkConfig,
                      config_from_dict, save_checkpoint, write_checkpoint)

CURVE_HEADER = "iteration,l_cd,l_lap,l_edge,L_all,val_cd"
_VAL_STREAM = 2  # train draws use seed stream 1, validation stream 2


@dataclass
class TrainConfig(ArchitectureConfig):
    """Architecture and training hyperparameters; the JSON form uses exactly these names."""

    lr: float = 3e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 5e-4
    iterations: int = 2000
    eval_every: int = 10
    lambda_lap: float = 0.3
    lambda_edge: float = 0.1
    samples: int = 1000

    def validate(self) -> None:
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        # iterations == 0 is allowed as an explicit no-op (untrained network).
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.eps > 0:  # eps = 0 divides 0 by 0 on a zero gradient element
            raise ValueError("eps must be > 0")
        for name in ("weight_decay", "lambda_lap", "lambda_edge"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if 24 * self.samples > np.iinfo(np.intp).max:
            raise ValueError(f"{self.samples} samples of 3 float64 coordinates exceed "
                             "the largest array this platform can address")
        self.network_config().validate()

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(**{f.name: getattr(self, f.name)
                                for f in fields(ArchitectureConfig)})

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataFormatError(f"invalid config JSON: {exc}") from exc
        return config_from_dict(cls, data)


class Adam:
    """Adam with bias correction and optional L2 weight decay folded into g.

    A step updates every parameter once. ``update(name, g)`` updates one
    parameter, and the first update opens the step; ``step(grads)`` updates
    the parameters in ``grads`` and closes the step, which needs every
    parameter updated by then. ``m`` and ``v`` are views into two flat
    buffers, and each update writes its parameter in place through one
    preallocated scratch buffer.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 3e-5,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        size = sum(p.size for p in params.values())
        self.m = _views(np.zeros(size), params)
        self.v = _views(np.zeros(size), params)
        self._scratch = np.empty((2, max((p.size for p in params.values()), default=0)))
        self._updated: set[str] = set()  # the parameters the open step has updated

    def update(self, name: str, g: np.ndarray) -> None:
        """Apply the open step's update to one parameter, checking ``g`` for
        finiteness just before, while it is still in cache."""
        self._check(name, g)
        self._apply(name, g)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Update each parameter in ``grads``, then close the step.

        Every gradient is checked, and so is that each parameter gets one
        here or got one earlier in the step, before anything is written.
        """
        for name, g in grads.items():
            self._check(name, g)
        for name in self.params:
            if name not in grads and name not in self._updated:
                raise ValueError(f"no gradient for parameter {name!r}")
        for name, g in grads.items():
            self._apply(name, g)
        self._updated.clear()

    def _check(self, name: str, g: np.ndarray) -> None:
        p = self.params.get(name)
        if p is None:
            raise ValueError(f"gradient for {name!r}, which is not a parameter")
        if name in self._updated:
            raise ValueError(f"parameter {name!r} was already updated in this step")
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {p.shape} for {name}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")

    def _apply(self, name: str, g: np.ndarray) -> None:
        if not self._updated:  # the step's first update opens it
            self.t += 1
            self._bc2 = 1.0 - self.beta2 ** self.t
            self._s1 = self.lr / (1.0 - self.beta1 ** self.t)
        self._updated.add(name)
        b1, b2 = self.beta1, self.beta2
        p, m, v = self.params[name], self.m[name], self.v[name]
        gi, tmp = (row[:p.size].reshape(p.shape) for row in self._scratch)
        # gi = g + wd*p; m *= b1; m += (1-b1)*gi; v *= b2; v += (1-b2)*(gi*gi);
        # p -= (m / (sqrt(v/bc2) + eps)) * s1, with the same operands in
        # the same order and each temporary written into the scratch, so
        # every element rounds as with one fresh array per operation.
        np.multiply(self.weight_decay, p, out=gi)
        np.add(g, gi, out=gi)
        m *= b1
        m += np.multiply(1.0 - b1, gi, out=tmp)
        v *= b2
        v += np.multiply(1.0 - b2, np.square(gi, out=tmp), out=tmp)
        np.divide(v, self._bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, self.eps, out=tmp)
        np.divide(m, tmp, out=tmp)
        np.multiply(tmp, self._s1, out=tmp)
        p -= tmp


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of ``flat`` shaped as the arrays of ``like``, laid end to end in its order."""
    out, offset = {}, 0
    for name, arr in like.items():
        out[name] = flat[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return out


@dataclass
class PreparedPair:
    """A pair's part meshes with their forward plans, built once per run."""

    parts: list[TriangleMesh]
    plans: list[ForwardPlan]
    target: TriangleMesh


@dataclass
class TrainResult:
    initial_val_chamfer: float
    best_val_chamfer: float
    best_iteration: int
    rows: list
    checkpoint_path: "str | None" = None
    curve_path: "str | None" = None


def _prepare(net: DeformationNetwork, dataset: list[DatasetPair]) -> list[PreparedPair]:
    prepared = []
    for pair in dataset:
        parts = pair.source_meshes()
        prepared.append(PreparedPair(parts, [net.plan(m) for m in parts], pair.target))
    return prepared


def _validation_chamfer(net: DeformationNetwork, prepared: list[PreparedPair],
                        config: TrainConfig) -> float:
    """Mean chamfer of the final block against the targets, fixed sample draws."""
    rng = np.random.default_rng([config.seed, _VAL_STREAM])
    values = []
    for prep in prepared:
        tape = Tape()
        final = net.forward_parts(tape, prep.parts, plans=prep.plans,
                                  bound=net.bind(tape, requires_grad=False))[-1]
        pred = sample_surface(final.v_out.value, final.faces, config.samples, rng)
        target = sample_surface(prep.target.vertices, prep.target.faces,
                                config.samples, rng)
        values.append(chamfer_loss(pred, target).item())
    return float(np.mean(values))


def _step(net: DeformationNetwork, prepared: list[PreparedPair], optimizer: Adam,
          config: TrainConfig, it: int) -> tuple[float, float, float, float]:
    """Forward, loss, backward and one Adam step; returns l_cd, l_lap, l_edge, L_all.

    Each weight leaf hands its gradient to ``optimizer.update``, so ``backward``
    updates a weight as soon as its gradient is complete and no gradient
    outlives its update; ``optimizer.step({})`` then closes the step. The
    sweep frees the loss graph as it goes, and the tape and the leaves are
    locals here, so they are freed on return, before validation runs.
    """
    rng = np.random.default_rng([config.seed, 1, it])
    tape = Tape()
    bound = net.bind(tape)
    for name, leaf in bound.items():
        leaf.grad_consumer = functools.partial(optimizer.update, name)
    loss = None
    cd = lap = edge = 0.0
    for prep in prepared:
        blocks = net.forward_parts(tape, prep.parts, plans=prep.plans, bound=bound)
        target = sample_surface(prep.target.vertices, prep.target.faces, config.samples, rng)
        pair_loss, report = total_loss(
            blocks, target, config.samples, rng,
            lambda_lap=config.lambda_lap, lambda_edge=config.lambda_edge)
        loss = pair_loss if loss is None else loss + pair_loss
        cd += report.l_cd
        lap += report.l_lap
        edge += report.l_edge
    total = loss.item()
    if not np.isfinite(total):
        raise NumericalError(f"non-finite loss at iteration {it}")
    loss.backward()
    optimizer.step({})
    return cd, lap, edge, total


def train(net: DeformationNetwork, dataset: list[DatasetPair], config: TrainConfig,
          out_dir=None, log=None) -> TrainResult:
    """Optimize ``net`` in place; keeps the best-by-validation parameters.

    Every iteration runs forward on all pairs (part meshes concatenated per
    block), sums the hybrid loss over blocks and pairs, and backpropagates,
    taking one Adam step inside the sweep. Validation chamfer is measured
    before training and every ``eval_every`` iterations with fixed draws, and
    the best snapshot is restored into the network at the end. With
    ``out_dir``, ``checkpoint.stdn`` holds the best parameters so far from
    before the first step on, and is never half-written: a failed write
    raises ``OSError`` and leaves the previous one. A non-finite loss,
    gradient or validation chamfer aborts with the best snapshot restored and
    its checkpoint retained.
    """
    config.validate()
    if not dataset:
        raise EmptyInputError("training needs a non-empty dataset")
    prepared = _prepare(net, dataset)
    optimizer = Adam(net.parameters(), lr=config.lr, beta1=config.beta1,
                     beta2=config.beta2, eps=config.eps,
                     weight_decay=config.weight_decay)
    checkpoint_path = curve_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        checkpoint_path = os.path.join(out_dir, "checkpoint.stdn")
        curve_path = os.path.join(out_dir, "curve.csv")

    initial_val = _validation_chamfer(net, prepared, config)
    if not np.isfinite(initial_val):
        raise NumericalError("non-finite validation chamfer before training")
    # The best parameters so far live in a checkpoint file, not in memory:
    # the run's own, replaced whole on each save, or an anonymous one
    # rewritten in place. The arena is written from itself and read back
    # into itself, so no second arena-sized buffer is made.
    snapshot = None if checkpoint_path else tempfile.TemporaryFile()

    def save_best():
        if snapshot is None:
            save_checkpoint(checkpoint_path, net)
        else:
            snapshot.seek(0)
            write_checkpoint(snapshot, net)

    def finish(aborted=False):
        with open(checkpoint_path, "rb") if snapshot is None else snapshot as fh:
            fh.seek(-net.arena.nbytes, os.SEEK_END)  # the arena ends the file
            if fh.readinto(net.arena) != net.arena.nbytes:
                raise DataFormatError("the best snapshot ends inside its parameters")
        if curve_path:
            _write_curve(curve_path, rows)
        if not aborted and log:
            log(f"best val_cd={best_val:.6g} at iteration {best_iteration}")

    try:
        save_best()
        best_val, best_iteration = initial_val, 0
        rows = [(0, "", "", "", "", repr(initial_val))]
        if log:
            log(f"iteration 0: val_cd={initial_val:.6g}")
        for it in range(1, config.iterations + 1):
            try:
                cd, lap, edge, total = _step(net, prepared, optimizer, config, it)
                val_repr = ""
                if it % config.eval_every == 0 or it == config.iterations:
                    val = _validation_chamfer(net, prepared, config)
                    if not np.isfinite(val):
                        raise NumericalError(f"non-finite validation chamfer at iteration {it}")
                    val_repr = repr(val)
                    if val < best_val:
                        best_val, best_iteration = val, it
                        save_best()
                    if log:
                        log(f"iteration {it}: L_all={total:.6g} val_cd={val:.6g}")
            except NumericalError:
                finish(aborted=True)
                raise
            rows.append((it, repr(cd), repr(lap), repr(edge), repr(total), val_repr))
        finish()
    finally:
        if snapshot is not None:  # finish() closed it, unless the run failed otherwise
            snapshot.close()
    return TrainResult(initial_val, best_val, best_iteration, rows,
                       checkpoint_path, curve_path)


def _write_curve(path, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CURVE_HEADER + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
