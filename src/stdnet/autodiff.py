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
    Nodes reachable from a live loss are always alive.
    """

    def __init__(self):
        self._nodes: list[weakref.ref] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> "Tensor | None":
        return self._nodes[node_id]()

    def leaf(self, value, requires_grad: bool = False) -> "Tensor":
        return self._record(_as_matrix(value), (), None, "leaf", requires_grad)

    def _record(self, value, inputs, vjp, op, requires_grad=None) -> "Tensor":
        if requires_grad is None:
            requires_grad = any(t.requires_grad for t in inputs)
        node = Tensor(self, len(self._nodes), value, requires_grad, inputs, vjp, op)
        self._nodes.append(weakref.ref(node))
        return node


class Tensor:
    """A (rows, cols) float64 value recorded on a Tape."""

    __slots__ = ("tape", "node_id", "value", "requires_grad", "grad", "op",
                 "_inputs", "_vjp", "__weakref__")

    def __init__(self, tape, node_id, value, requires_grad, inputs, vjp, op):
        self.tape = tape
        self.node_id = node_id
        self.value = value
        self.requires_grad = requires_grad
        self.grad = None
        self.op = op
        self._inputs = inputs
        self._vjp = vjp

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def item(self) -> float:
        if self.shape != (1, 1):
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.value[0, 0])

    def backward(self) -> None:
        """Populate .grad on every gradient-requiring node reachable from here.

        The loss must be scalar. Gradients from multiple uses of a node are
        summed; requires-gradient leaves recorded before the loss but never
        reached get a zero gradient, while nodes recorded after it keep None.
        """
        if self.shape != (1, 1):
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.shape}")
        grads: list = [None] * (self.node_id + 1)
        grads[self.node_id] = np.ones((1, 1))
        for node_id in range(self.node_id, -1, -1):
            node = self.tape.node(node_id)
            gout = grads[node_id]
            if node is None:
                continue  # unreferenced node; it cannot feed this loss
            if node.requires_grad:
                node.grad = gout if gout is not None else np.zeros(node.shape)
            if gout is None or node._vjp is None:
                continue
            for tin, gin in zip(node._inputs, node._vjp(gout)):
                if gin is None or not tin.requires_grad:
                    continue
                slot = grads[tin.node_id]
                if slot is None:
                    # Copy when the vjp handed back a view or the upstream
                    # buffer itself; accumulation mutates the slot in place.
                    if gin.base is not None or gin is gout:
                        gin = gin.copy()
                    grads[tin.node_id] = gin
                else:
                    slot += gin
            grads[node_id] = None  # release buffers as the sweep passes

    # Operator sugar; scalar multiplication is the only number overload.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scalar_mul(-1.0, other))

    def __mul__(self, c):
        return scalar_mul(c, self)

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_mul(-1.0, self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)

    def relu(self):
        return relu(self)

    def square(self):
        return square(self)

    def sqrt(self):
        return sqrt(self)

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def vjp(g):
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return tape._record(av @ bv, (a, b), vjp, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"add mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return (g, g)

    return tape._record(a.value + b.value, (a, b), vjp, "add")


def scalar_mul(c, a: Tensor) -> Tensor:
    c = float(c)

    def vjp(g):
        return (c * g,)

    return a.tape._record(c * a.value, (a,), vjp, "scalar_mul")


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0

    def vjp(g):
        return (g * mask,)

    return a.tape._record(np.where(mask, a.value, 0.0), (a,), vjp, "relu")


def square(a: Tensor) -> Tensor:
    av = a.value

    def vjp(g):
        return (2.0 * av * g,)

    return a.tape._record(av * av, (a,), vjp, "square")


def sqrt(a: Tensor) -> Tensor:
    if (a.value < 0.0).any():
        raise ValueError("sqrt of a negative entry")
    root = np.sqrt(a.value)

    def vjp(g):
        return (g * 0.5 / root,)

    return a.tape._record(root, (a,), vjp, "sqrt")


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return a.tape._record(a.value.sum().reshape(1, 1), (a,), vjp, "reduce_sum")


def transpose(a: Tensor) -> Tensor:
    def vjp(g):
        return (g.T,)

    return a.tape._record(a.value.T.copy(), (a,), vjp, "transpose")


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise DimensionError(f"gather index out of range for {a.shape[0]} rows")
    rows, _ = a.shape

    def vjp(g):
        out = np.zeros((rows, g.shape[1]))
        np.add.at(out, idx, g)
        return (out,)

    return a.tape._record(a.value[idx], (a,), vjp, "gather_rows")


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
    return tape._record(value, tuple(tensors), vjp, "concat_rows")


def tagcn(x: Tensor, weights: "list[Tensor]", bias: "Tensor | None" = None,
          a=None, a_t=None) -> Tensor:
    """Fused sum_k A^k x W_k (+ bias row), k = 0..len(weights)-1, as one tape node.

    ``a`` is the (sparse or dense) graph operator and ``a_t`` its transpose,
    which defaults to ``a.T``; neither is needed when there is only W_0. The
    forward pass builds s_k = A s_(k-1) by repeated products, so no power of
    A is ever formed. The vjp is gW_k = s_k^T g and, Horner-style,
    gx = g W_0^T + A^T (g W_1^T + A^T (g W_2^T + ...)).
    """
    if not weights or (len(weights) > 1 and a is None):
        raise ValueError("tagcn needs W_0, plus a graph operator for each further hop")
    tape = _same_tape(x, *weights, *([bias] if bias is not None else []))
    for w in weights:
        if w.shape != weights[0].shape or x.shape[1] != w.shape[0]:
            raise DimensionError(f"tagcn mismatch: {x.shape} @ {w.shape}")
    if a_t is None and a is not None:
        a_t = a.T
    w_values = [w.value for w in weights]
    signals = [x.value]
    for _ in w_values[1:]:
        signals.append(a @ signals[-1])
    out = signals[0] @ w_values[0]
    for sv, wv in zip(signals[1:], w_values[1:]):
        out += sv @ wv
    if bias is not None:
        if bias.shape != (1, out.shape[1]):
            raise DimensionError(f"bias shape {bias.shape} != (1, {out.shape[1]})")
        out += bias.value
    inputs = (x, *weights) + ((bias,) if bias is not None else ())

    def vjp(g):
        gx = None
        if x.requires_grad:
            gx = g @ w_values[-1].T
            for wv in reversed(w_values[:-1]):
                gx = a_t @ gx
                gx += g @ wv.T
        grads = [gx]
        grads += [sv.T @ g if w.requires_grad else None for sv, w in zip(signals, weights)]
        if bias is not None:
            grads.append(g.sum(axis=0, keepdims=True) if bias.requires_grad else None)
        return grads

    return tape._record(out, inputs, vjp, "tagcn")


def sparse_matmul(m, x: Tensor) -> Tensor:
    """Constant (sparse or dense) matrix times a tensor: m @ x as one tape node."""
    if m.shape[1] != x.shape[0]:
        raise DimensionError(f"sparse_matmul mismatch: {m.shape} @ {x.shape}")
    m_t = m.T

    def vjp(g):
        return (m_t @ g,)

    return x.tape._record(np.asarray(m @ x.value), (x,), vjp, "sparse_matmul")


def weighted_gather(a: Tensor, indices, weights) -> Tensor:
    """Row r of the result is sum_j weights[r, j] * a[indices[r, j]].

    The terms are added left to right, j = 0, 1, ..., so the values match the
    same expression written out with numpy fancy indexing bit for bit.
    """
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if idx.ndim != 2 or idx.shape != w.shape:
        raise DimensionError(f"indices {idx.shape} and weights {w.shape} must match (n, m)")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise DimensionError(f"gather index out of range for {a.shape[0]} rows")
    rows, cols = a.shape
    out = w[:, 0, None] * a.value[idx[:, 0]]
    for j in range(1, idx.shape[1]):
        out = out + w[:, j, None] * a.value[idx[:, j]]

    def vjp(g):
        grad = np.zeros((rows, cols))
        np.add.at(grad, idx.reshape(-1), (w[:, :, None] * g[:, None, :]).reshape(-1, cols))
        return (grad,)

    return a.tape._record(out, (a,), vjp, "weighted_gather")


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
