"""Differentiable surface sampling and the hybrid deformation loss.

Sampling draws faces proportionally to area through a cumulative-area array
and places each point at r = (1-sqrt(u)) v1 + sqrt(u)(1-w) v2 + sqrt(u) w v3
with u, w uniform on [0, 1). The draws (face, u, w) are recorded as constants,
so gradients flow only to the vertex positions.

The training loss is chamfer + lambda_lap * laplacian + lambda_edge * edge,
evaluated on every block output and summed across blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import (Tape, Tensor, gather_rows, reduce_sum, scalar_mul,
                       sparse_matmul, square, weighted_gather)
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

    @property
    def n(self) -> int:
        return len(self.face_indices)

    @property
    def points_values(self) -> np.ndarray:
        return self.points.value if isinstance(self.points, Tensor) else self.points


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 0]]
    cross = np.cross(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a)
    return 0.5 * np.linalg.norm(cross, axis=1)


def barycentric_coefficients(u: np.ndarray, w: np.ndarray):
    su = np.sqrt(u)
    return 1.0 - su, su * (1.0 - w), su * w


def sample_surface(vertices, faces, n: int, rng: np.random.Generator) -> SampleBatch:
    """Draw ``n`` area-uniform points from a triangle mesh surface.

    ``vertices`` may be a Tensor, in which case the points are produced by a
    recorded weighted gather of each sample's three face corners and carry
    gradients; a plain array yields the same points as a plain array. Draw
    order per call: face selectors, then u, then w.
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
    c1, c2, c3 = barycentric_coefficients(u, w)
    tri = faces[face_idx]
    if isinstance(vertices, Tensor):
        points = weighted_gather(vertices, tri, np.stack([c1, c2, c3], axis=1))
    else:
        points = (c1[:, None] * values[tri[:, 0]]
                  + c2[:, None] * values[tri[:, 1]]
                  + c3[:, None] * values[tri[:, 2]])
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


def nearest_sqdist(a: Tensor, b: Tensor):
    """Per-row nearest squared distance from a's points into b, plus indices.

    Nearest neighbors are selected through a product-form distance matrix (one
    matrix product), then the chosen pair distances are recomputed directly as
    sums of squared coordinate differences, so exact matches yield exactly
    zero and values are never negative. The selection is a constant of the
    backward pass (lowest index at ties).
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensionality mismatch: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    scores = av @ bv.T
    scores *= -2.0
    scores += (bv * bv).sum(axis=1)[None, :]  # row-constant |a|^2 term dropped
    idx = np.argmin(scores, axis=1)
    diff = av - bv[idx]
    values = (diff * diff).sum(axis=1).reshape(-1, 1)

    def vjp(g):
        scaled = 2.0 * g * diff  # g is (n, 1), broadcasts over coordinates
        ga = scaled if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = np.zeros_like(bv)
            np.add.at(gb, idx, -scaled)
        return (ga, gb)

    return a.tape._record(values, (a, b), vjp, "nearest_sqdist"), idx


def chamfer_loss(pred, target) -> Tensor:
    """Summed squared nearest-neighbor distances, both directions.

    Accepts SampleBatch, Tensor, or plain (n, d) arrays; at least one operand
    should carry a tape when gradients are wanted. Distances are compared in
    squared form; ties resolve to the lowest index.
    """
    tape = None
    for obj in (pred, target):
        inner = obj.points if isinstance(obj, SampleBatch) else obj
        if isinstance(inner, Tensor):
            tape = inner.tape
            break
    a = _as_point_tensor(pred, tape)
    b = _as_point_tensor(target, a.tape)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptyInputError("chamfer distance needs two non-empty point sets")
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
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return vertices.tape.leaf(np.zeros((1, 1)))
    diff = gather_rows(vertices, edges[:, 0]) - gather_rows(vertices, edges[:, 1])
    return scalar_mul(2.0, reduce_sum(square(diff)))


@dataclass
class LossReport:
    """Per-term loss values; l_all = l_cd + lambda_lap*l_lap + lambda_edge*l_edge."""

    l_cd: float
    l_lap: float
    l_edge: float
    l_all: float
    lambda_lap: float
    lambda_edge: float
    per_block: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "l_cd": self.l_cd, "l_lap": self.l_lap, "l_edge": self.l_edge,
            "l_all": self.l_all, "lambda_lap": self.lambda_lap,
            "lambda_edge": self.lambda_edge, "per_block": self.per_block,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def combine(l_cd: float, l_lap: float, l_edge: float,
                lambda_lap: float, lambda_edge: float) -> float:
        return l_cd + (lambda_lap * l_lap + lambda_edge * l_edge)


def total_loss(blocks: list[BlockOutput], target: SampleBatch, n_samples: int,
               rng: np.random.Generator, lambda_lap: float = 0.3,
               lambda_edge: float = 0.1,
               supervise_blocks=None) -> tuple[Tensor, LossReport]:
    """Hybrid loss over every (supervised) block output, summed per term.

    Each block contributes a chamfer term between ``n_samples`` fresh surface
    samples of its prediction and the target batch, a Laplacian term between
    its input and output positions, and an edge term on its output. Returns
    the scalar tape value and a float report.
    """
    if not blocks:
        raise EmptyInputError("total_loss needs at least one block output")
    supervised = range(len(blocks)) if supervise_blocks is None else supervise_blocks
    supervised = sorted(set(supervised))
    if not supervised:
        raise ValueError("at least one block must be supervised")
    cd_terms, lap_terms, edge_terms, per_block = [], [], [], []
    for b in supervised:
        block = blocks[b]
        batch = sample_surface(block.v_out, block.faces, n_samples, rng)
        cd = chamfer_loss(batch, target)
        lap = laplacian_loss(block.v_in, block.v_out, block.edges)
        edge = edge_loss(block.v_out, block.edges)
        cd_terms.append(cd)
        lap_terms.append(lap)
        edge_terms.append(edge)
        per_block.append({"block": b + 1, "l_cd": cd.item(),
                          "l_lap": lap.item(), "l_edge": edge.item()})
    cd_sum, lap_sum, edge_sum = (_sum_terms(t) for t in (cd_terms, lap_terms, edge_terms))
    combined = cd_sum + (scalar_mul(lambda_lap, lap_sum) + scalar_mul(lambda_edge, edge_sum))
    report = LossReport(cd_sum.item(), lap_sum.item(), edge_sum.item(),
                        combined.item(), lambda_lap, lambda_edge, per_block)
    return combined, report


def _sum_terms(terms: list[Tensor]) -> Tensor:
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out
