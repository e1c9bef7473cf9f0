"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

A Tape is an append-only record of operations; every Tensor is a node on
exactly one tape and remembers the closure that maps its output gradient back
onto its inputs. Because creation order is a topological order, the backward
pass is a single reverse sweep that visits each node once and accumulates
gradients additively, so a value used twice receives both contributions.

Shapes are strict: the only implicit broadcast is scalar-times-matrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"tensors are 2-D matrices, got shape {arr.shape}")
    return arr


class Tape:
    """Append-only record of one forward computation.

    The record keeps only weak references: a node is owned by whoever uses
    it (each tensor strongly holds its inputs), so dropping a result frees
    the whole subgraph behind it without waiting for the cycle collector.
    Nodes reachable from a live loss stay alive until ``backward`` sweeps
    them; the sweep drops each node's inputs, so after it only the nodes a
    caller still holds remain.
    """

    def __init__(self):
        self._nodes: list[weakref.ref] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> "Tensor | None":
        return self._nodes[node_id]()

    def leaf(self, value, requires_grad: bool = False) -> "Tensor":
        return self.record(_as_matrix(value), (), None, "leaf", requires_grad)

    def record(self, value, inputs, vjp, op, requires_grad=None) -> "Tensor":
        """Append the node ``value = op(*inputs)``; ``vjp(g)`` returns one gradient
        (or None) per input, and ``requires_grad`` defaults to any input's."""
        if requires_grad is None:
            requires_grad = any(t.requires_grad for t in inputs)
        node_id = len(self._nodes)
        for t in inputs:
            if t._first_reader is None:
                t._first_reader = node_id
        node = Tensor(self, node_id, value, requires_grad, inputs, vjp, op)
        self._nodes.append(weakref.ref(node))
        return node


_SWEPT = object()  # stands in for the vjp of a node that backward() has swept


class Tensor:
    """A (rows, cols) float64 value recorded on a Tape.

    A gradient-requiring leaf may carry a ``grad_consumer``: ``backward`` then
    calls it once with the leaf's gradient and sets no ``.grad``.
    """

    __slots__ = ("tape", "node_id", "value", "requires_grad", "grad", "grad_consumer",
                 "op", "_inputs", "_vjp", "_first_reader", "__weakref__")

    def __init__(self, tape, node_id, value, requires_grad, inputs, vjp, op):
        self.tape = tape
        self.node_id = node_id
        self.value = value
        self.requires_grad = requires_grad
        self.grad = None
        self.grad_consumer = None
        self.op = op
        self._inputs = inputs
        self._vjp = vjp
        self._first_reader = None  # id of the first node recorded with this one as input

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def item(self) -> float:
        if self.shape != (1, 1):
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.value[0, 0])

    def backward(self) -> None:
        """Deliver the gradient of every gradient-requiring leaf, then free the graph.

        The loss must be scalar. Gradients from multiple uses of a node are
        summed; requires-gradient leaves recorded before the loss but never
        reached get a zero gradient, while leaves recorded after it get none.
        A leaf's gradient goes to its ``grad_consumer`` as soon as the sweep
        has passed the first node that read the leaf, which is its last
        contribution, so the consumer may overwrite the leaf's value; a leaf
        without a consumer keeps it as ``.grad``. Only leaves (nodes with no
        vjp, as ``Tape.leaf`` makes them) get a gradient: an intermediate's
        dies once its own vjp has used it, and the sweep then drops the node's
        vjp and inputs, so the state they hold is freed as the sweep moves
        upstream. A graph is swept once; a later backward that reaches a swept
        node raises RuntimeError.
        """
        if self.shape != (1, 1):
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.shape}")
        # node_id -> (node, gradient). The tape holds nodes only weakly, so a
        # node whose consumers are swept lives on through its pending entry.
        pending = {self.node_id: (self, np.ones((1, 1)))}
        delivered = set()  # ids of the leaves whose consumer has been called
        for node_id in range(self.node_id, -1, -1):
            node, gout = pending.pop(node_id, None) or (self.tape.node(node_id), None)
            if node is None:
                continue  # unreferenced node; it cannot feed this loss
            if node._vjp is None:  # a leaf
                if node.requires_grad and node_id not in delivered:
                    grad = gout if gout is not None else np.zeros(node.shape)
                    if node.grad_consumer is None:
                        node.grad = grad
                    else:
                        node.grad_consumer(grad)
                continue
            if gout is None:
                continue  # an op this loss does not reach
            if node._vjp is _SWEPT:
                raise RuntimeError(
                    f"backward() reached {node.op!r} node {node_id}, whose graph an "
                    "earlier backward() already freed; build a new graph per backward")
            inputs = node._inputs
            for tin, gin in zip(inputs, node._vjp(gout)):
                if gin is None or not tin.requires_grad:
                    continue
                entry = pending.get(tin.node_id)
                if entry is None:
                    # Copy when the vjp handed back a view or the upstream
                    # buffer itself; accumulation mutates the entry in place.
                    if gin.base is not None or gin is gout:
                        gin = gin.copy()
                    pending[tin.node_id] = (tin, gin)
                else:
                    np.add(entry[1], gin, out=entry[1])
            node._inputs, node._vjp = (), _SWEPT
            for tin in inputs:
                if (tin._first_reader == node_id and tin.grad_consumer is not None
                        and tin.requires_grad and tin.node_id not in delivered):
                    delivered.add(tin.node_id)
                    entry = pending.pop(tin.node_id, None)
                    tin.grad_consumer(entry[1] if entry else np.zeros(tin.shape))

    # Operator sugar; scalar multiplication is the only number overload.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scalar_mul(-1.0, other))

    def __mul__(self, c):
        return scalar_mul(c, self)

    __rmul__ = __mul__

    def square(self):
        return square(self)

    def sum(self):
        return reduce_sum(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"add mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return (g, g)

    return tape.record(a.value + b.value, (a, b), vjp, "add")


def scalar_mul(c, a: Tensor) -> Tensor:
    c = float(c)

    def vjp(g):
        return (c * g,)

    return a.tape.record(c * a.value, (a,), vjp, "scalar_mul")


def square(a: Tensor) -> Tensor:
    av = a.value

    def vjp(g):
        return (2.0 * av * g,)

    return a.tape.record(av * av, (a,), vjp, "square")


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return a.tape.record(a.value.sum().reshape(1, 1), (a,), vjp, "reduce_sum")


def concat_rows(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_rows needs at least one tensor")
    tape = _same_tape(*tensors)
    cols = tensors[0].shape[1]
    for t in tensors[1:]:
        if t.shape[1] != cols:
            raise DimensionError(
                f"concat_rows column mismatch: {tensors[0].shape} vs {t.shape}")
    splits = np.cumsum([t.shape[0] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=0))

    value = np.concatenate([t.value for t in tensors], axis=0)
    return tape.record(value, tuple(tensors), vjp, "concat_rows")


def relu_inplace(out: np.ndarray) -> None:
    """Write ``np.where(out > 0, out, 0.0)`` into ``out``, bit for bit.

    ``fmax`` maps NaN, -inf and every negative to 0 (a -0.0 may stay), and
    adding +0.0 turns -0.0 into +0.0 while leaving every x > 0 exact.
    """
    np.fmax(out, 0.0, out=out)
    out += 0.0


def tagcn(x: Tensor, weights: "list[Tensor]", bias: "Tensor | None" = None,
          a=None, a_t=None, relu: bool = False, skip: "Tensor | None" = None) -> Tensor:
    """One TAGCN layer, relu?(sum_k A^k x W_k + bias) + skip, as one tape node.

    ``a`` is the (sparse or dense) graph operator and ``a_t`` its transpose;
    neither is needed when there is only W_0. The hops s_k = A s_(k-1) are
    built and dropped one at a time, so no power of A and no hop signal is
    kept. The vjp holds only x, the weights and the relu mask, and
    ``backward`` releases them once its sweep has passed this node: with
    h_0 = g * mask and h_k = A^T h_(k-1), gW_k = x^T h_k and
    gx = sum_k h_k W_k^T.
    """
    if not weights or (len(weights) > 1 and (a is None or a_t is None)):
        raise ValueError("tagcn needs W_0, plus an operator and its transpose per further hop")
    inputs = (x, *weights) + tuple(t for t in (bias, skip) if t is not None)
    tape = _same_tape(*inputs)
    for w in weights:
        if w.shape != weights[0].shape or x.shape[1] != w.shape[0]:
            raise DimensionError(f"tagcn mismatch: {x.shape} @ {w.shape}")
    xv, w_values = x.value, [w.value for w in weights]
    out, s = xv @ w_values[0], xv
    for wv in w_values[1:]:
        s = a @ s
        out += s @ wv
    if bias is not None:
        if bias.shape != (1, out.shape[1]):
            raise DimensionError(f"bias shape {bias.shape} != (1, {out.shape[1]})")
        out += bias.value
    mask = out > 0.0 if relu else None
    if relu:
        relu_inplace(out)
    if skip is not None:
        if skip.shape != out.shape:
            raise DimensionError(f"skip shape {skip.shape} != {out.shape}")
        out += skip.value

    def vjp(g):
        h = g if mask is None else g * mask
        grads = [None] * len(inputs)
        if bias is not None and bias.requires_grad:
            grads[len(weights) + 1] = h.sum(axis=0, keepdims=True)
        if skip is not None:
            grads[-1] = g
        for k, (w, wv) in enumerate(zip(weights, w_values)):
            if k:
                h = a_t @ h
            if w.requires_grad:
                grads[1 + k] = xv.T @ h
            if x.requires_grad and k:
                grads[0] += h @ wv.T
            elif x.requires_grad:
                grads[0] = h @ wv.T
        return grads

    return tape.record(out, inputs, vjp, "tagcn")


def sparse_matmul(m, x: Tensor) -> Tensor:
    """Constant (sparse or dense) matrix times a tensor: m @ x as one tape node."""
    if m.shape[1] != x.shape[0]:
        raise DimensionError(f"sparse_matmul mismatch: {m.shape} @ {x.shape}")
    m_t = m.T

    def vjp(g):
        return (m_t @ g,)

    return x.tape.record(np.asarray(m @ x.value), (x,), vjp, "sparse_matmul")


@dataclass
class GradCheckReport:
    """Worst-coordinate comparison of reverse-mode vs central differences."""

    max_rel_error: float
    worst_param: str
    worst_coord: tuple
    analytic: float
    numeric: float
    tolerance: float
    passed: bool

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return (f"[{status}] max rel err {self.max_rel_error:.3e} at "
                f"{self.worst_param}{self.worst_coord} "
                f"(analytic {self.analytic:.6e}, numeric {self.numeric:.6e}, "
                f"tol {self.tolerance:.0e})")


def gradcheck(fn, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` maps a list of Tensors (one per parameter array) to a scalar Tensor
    and must be deterministic. ``params`` is a dict name -> ndarray or a plain
    list of ndarrays. The per-coordinate error is
    |analytic - numeric| / max(1, |analytic|, |numeric|), i.e. relative for
    large gradients with an absolute floor near zero.
    """
    if isinstance(params, dict):
        items = [(name, np.array(v, dtype=np.float64)) for name, v in params.items()]
    else:
        items = [(f"param{i}", np.array(v, dtype=np.float64)) for i, v in enumerate(params)]

    tape = Tape()
    leaves = [tape.leaf(v, requires_grad=True) for _, v in items]
    fn(leaves).backward()
    analytic = [leaf.grad for leaf in leaves]

    def eval_at(arrays) -> float:
        t = Tape()
        return fn([t.leaf(a) for a in arrays]).item()

    worst = (0.0, "", (), 0.0, 0.0)
    arrays = [v for _, v in items]
    for p, (name, base) in enumerate(items):
        for coord in np.ndindex(base.shape):
            original = base[coord]
            base[coord] = original + h
            f_plus = eval_at(arrays)
            base[coord] = original - h
            f_minus = eval_at(arrays)
            base[coord] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[p][coord])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err >= worst[0]:
                worst = (err, name, coord, a, numeric)
    err, name, coord, a, numeric = worst
    return GradCheckReport(err, name, coord, a, numeric, tol, err < tol)
