"""Differentiable surface sampling and the hybrid deformation loss.

Sampling draws faces proportionally to area through a cumulative-area array
and places each point at r = (1-sqrt(u)) v1 + sqrt(u)(1-w) v2 + sqrt(u) w v3
with u, w uniform on [0, 1). The draws (face, u, w) are recorded as constants,
so gradients flow only to the vertex positions.

The training loss is chamfer + lambda_lap * laplacian + lambda_edge * edge,
evaluated on every block output and summed across blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import Tape, Tensor, reduce_sum, scalar_mul, sparse_matmul, square
from .errors import (DegenerateMeshError, DimensionError, EmptyInputError,
                     NumericalError)
from .mesh import adjacency_csr
from .network import BlockOutput


@dataclass
class SampleBatch:
    """Points sampled from a mesh surface plus their (face, u, w) provenance."""

    points: "Tensor | np.ndarray"
    face_indices: np.ndarray
    u: np.ndarray
    w: np.ndarray


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 0]]
    cross = np.cross(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a)
    return 0.5 * np.linalg.norm(cross, axis=1)


def barycentric_coefficients(u: np.ndarray, w: np.ndarray):
    su = np.sqrt(u)
    return 1.0 - su, su * (1.0 - w), su * w


def sample_surface(vertices, faces, n: int, rng: np.random.Generator) -> SampleBatch:
    """Draw ``n`` area-uniform points from a triangle mesh surface.

    The points are an n x V CSR matrix, holding sample r's three barycentric
    weights in row r at its face's corners in corner order, applied to the
    vertices: by a recorded ``sparse_matmul`` when ``vertices`` is a Tensor,
    so the points carry gradients, and by ``@`` when it is a plain array,
    which yields the same points bit for bit. Draw order: faces, u, then w.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    values = vertices.value if isinstance(vertices, Tensor) else np.asarray(vertices, float)
    faces = np.asarray(faces, dtype=np.int64)
    if len(faces) == 0:
        raise DegenerateMeshError("cannot sample a mesh with no faces")
    areas = triangle_areas(values, faces)
    total = areas.sum()
    if not np.isfinite(total):
        raise NumericalError("non-finite vertex positions while sampling")
    if not total > 0.0:
        raise DegenerateMeshError("cannot sample a mesh whose faces all have zero area")
    cumulative = np.cumsum(areas)
    picks = rng.random(n) * total
    face_idx = np.minimum(np.searchsorted(cumulative, picks, side="right"), len(faces) - 1)
    u = rng.random(n)
    w = rng.random(n)
    weights = np.stack(barycentric_coefficients(u, w), axis=1).reshape(-1)
    coeff = sp.csr_array((weights, faces[face_idx].reshape(-1), np.arange(0, 3 * n + 1, 3)),
                         shape=(n, len(values)))
    points = sparse_matmul(coeff, vertices) if isinstance(vertices, Tensor) else coeff @ values
    return SampleBatch(points, face_idx, u, w)


def _as_point_tensor(obj, tape: Tape | None) -> Tensor:
    if isinstance(obj, SampleBatch):
        obj = obj.points
    if isinstance(obj, Tensor):
        return obj
    arr = np.asarray(obj, dtype=np.float64)
    if tape is None:
        tape = Tape()
    return tape.leaf(arr)


@functools.cache
def kdtree():
    """scipy's ``cKDTree``, imported on first use: loading scipy.spatial costs ~0.15 s of CPU."""
    from scipy.spatial import cKDTree
    return cKDTree


def nearest_neighbors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance from each row of ``a`` to its nearest row of ``b``, and that row.

    A KD-tree picks the neighbour (at exact ties one of the tied rows, fixed
    for a given input but not always the lowest index); the distance is then
    the sum of squared coordinate differences, so an exact match gives 0.
    Sets that are not matrices of one width raise DimensionError, an empty
    set EmptyInputError and non-finite points NumericalError.
    """
    if a.ndim != 2 or a.shape[1:] != b.shape[1:]:
        raise DimensionError(f"point dimensionality mismatch: {a.shape} vs {b.shape}")
    if len(a) == 0 or len(b) == 0:
        raise EmptyInputError("nearest-neighbour search needs two non-empty point sets")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalError("nearest-neighbour search got non-finite points")
    _, idx = kdtree()(b).query(a)
    diff = a - b[idx]
    return (diff * diff).sum(axis=1), idx


def nearest_sqdist(a: Tensor, b: Tensor):
    """``nearest_neighbors`` as a tape op (n, 1), plus the indices; the pick is a constant."""
    sq, idx = nearest_neighbors(a.value, b.value)

    def vjp(g):
        scaled = 2.0 * g * (a.value - b.value[idx])  # g is (n, 1), broadcasts over coordinates
        ga = scaled if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = np.zeros_like(b.value)
            np.add.at(gb, idx, -scaled)
        return (ga, gb)

    return a.tape.record(sq.reshape(-1, 1), (a, b), vjp, "nearest_sqdist"), idx


def chamfer_loss(pred, target) -> Tensor:
    """Summed squared nearest-neighbor distances, both directions.

    Accepts SampleBatch, Tensor, or plain (n, d) arrays; at least one operand
    should carry a tape when gradients are wanted. Neighbours come from
    ``nearest_neighbors``: at a tie the value is the same whichever tied point
    is picked, and only that point gets the gradient. Non-finite points raise
    NumericalError.
    """
    tape = None
    for obj in (pred, target):
        inner = obj.points if isinstance(obj, SampleBatch) else obj
        if isinstance(inner, Tensor):
            tape = inner.tape
            break
    a = _as_point_tensor(pred, tape)
    b = _as_point_tensor(target, a.tape)
    fwd, _ = nearest_sqdist(a, b)
    rev, _ = nearest_sqdist(b, a)
    return reduce_sum(fwd) + reduce_sum(rev)


def laplacian_loss(before: Tensor, after: Tensor, edges: np.ndarray) -> Tensor:
    """Sum of squared changes of the Laplacian coordinate across a block.

    The Laplacian coordinate of p is its position minus the mean of its
    neighbors; both meshes must share the topology described by ``edges``.
    Isolated vertices contribute nothing (their coordinate is undefined).
    The operator L = I - mean is one sparse matrix applied to after - before.
    """
    if before.shape != after.shape:
        raise DimensionError(f"topology mismatch: {before.shape} vs {after.shape}")
    n = before.shape[0]
    mean = adjacency_csr(n, edges)  # row p: 1/|N(p)| on p's neighbors
    deg = np.diff(mean.indptr)
    mean.data /= np.repeat(deg, deg)
    connected = (deg > 0).astype(np.float64)  # isolated rows stay zero
    lap = sp.csr_array((connected, np.arange(n), np.arange(n + 1)), shape=(n, n)) - mean
    return reduce_sum(square(sparse_matmul(lap, after - before)))


def edge_loss(vertices: Tensor, edges: np.ndarray) -> Tensor:
    """Sum of squared edge lengths over ordered neighbor pairs.

    Each undirected edge is counted from both endpoints, hence the factor 2.
    The edge vectors are the signed E x V incidence matrix (+1 at
    ``edges[:, 0]``, -1 at ``edges[:, 1]``) applied to the vertices.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    incidence = sp.csr_array((np.tile([1.0, -1.0], len(edges)), edges.reshape(-1),
                              np.arange(0, 2 * len(edges) + 1, 2)),
                             shape=(len(edges), vertices.shape[0]))
    return scalar_mul(2.0, reduce_sum(square(sparse_matmul(incidence, vertices))))


@dataclass
class LossReport:
    """Each loss term summed over the blocks, and the terms of each block."""

    l_cd: float
    l_lap: float
    l_edge: float
    per_block: list = field(default_factory=list)


def total_loss(blocks: list[BlockOutput], target: SampleBatch, n_samples: int,
               rng: np.random.Generator, lambda_lap: float = 0.3,
               lambda_edge: float = 0.1) -> tuple[Tensor, LossReport]:
    """Hybrid loss over every block output, summed per term.

    Each block contributes a chamfer term between ``n_samples`` fresh surface
    samples of its prediction and the target batch, a Laplacian term between
    its input and output positions, and an edge term on its output. Returns
    the scalar tape value and a float report.
    """
    if not blocks:
        raise EmptyInputError("total_loss needs at least one block output")
    cd_terms, lap_terms, edge_terms, per_block = [], [], [], []
    for b, block in enumerate(blocks):
        batch = sample_surface(block.v_out, block.faces, n_samples, rng)
        cd = chamfer_loss(batch, target)
        lap = laplacian_loss(block.v_in, block.v_out, block.edges)
        edge = edge_loss(block.v_out, block.edges)
        cd_terms.append(cd)
        lap_terms.append(lap)
        edge_terms.append(edge)
        per_block.append({"block": b + 1, "l_cd": cd.item(),
                          "l_lap": lap.item(), "l_edge": edge.item()})
    cd_sum, lap_sum, edge_sum = (sum(t[1:], t[0]) for t in (cd_terms, lap_terms, edge_terms))
    l_all = cd_sum + (scalar_mul(lambda_lap, lap_sum) + scalar_mul(lambda_edge, edge_sum))
    return l_all, LossReport(cd_sum.item(), lap_sum.item(), edge_sum.item(), per_block)
