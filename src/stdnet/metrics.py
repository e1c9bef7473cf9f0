"""Evaluation metrics: chamfer distance, F1 at a threshold, and voxel IoU."""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .autodiff import Tape
from .errors import EmptyInputError
from .fixtures import DatasetPair
from .losses import chamfer_loss, sample_surface
from .mesh import TriangleMesh
from .network import DeformationNetwork

THREADS_ENV = "STDNET_THREADS"
F1_SAMPLES = 2500
DISTANCE_CONVENTION = "squared distance, meshes jointly normalized to the unit cube"


@dataclass
class MetricReport:
    """Per-pair evaluation results; percentages lie in [0, 100]."""

    identifier: str
    chamfer: float
    f1: float
    precision: float
    recall: float
    threshold: float
    iou: float
    resolution: int
    iou_mode: str = "volume"              # "surface" when a mesh is not watertight
    convention: str = DISTANCE_CONVENTION

    def to_dict(self) -> dict:
        return {
            "identifier": self.identifier, "chamfer": self.chamfer,
            "f1": self.f1, "precision": self.precision, "recall": self.recall,
            "threshold": self.threshold, "iou": self.iou,
            "resolution": self.resolution, "iou_mode": self.iou_mode,
            "convention": self.convention,
        }


def chamfer_metric(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """The training chamfer evaluated without gradient recording."""
    tape = Tape()
    return chamfer_loss(tape.leaf(points_a), tape.leaf(points_b)).item()


def _nearest_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.maximum(sq, 0.0).min(axis=1)


def f1_score(pred_points, gt_points, threshold: float) -> tuple[float, float, float]:
    """(f1, precision, recall) percentages at a squared-distance threshold.

    Precision is the fraction of predicted points whose nearest ground-truth
    point lies within ``threshold`` (squared distance); recall is symmetric.
    F1 is their harmonic mean, or 0 when both vanish.
    """
    pred = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyInputError("f1_score needs two non-empty point sets")
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    precision = 100.0 * (_nearest_sq_dists(pred, gt) <= threshold).mean()
    recall = 100.0 * (_nearest_sq_dists(gt, pred) <= threshold).mean()
    f1 = 0.0
    if precision > 0 and recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return f1, precision, recall


def _triangle_cell_overlap(v0, v1, v2, centers, half: float) -> np.ndarray:
    """Separating-axis triangle/cube test, vectorized over cell centers."""
    p0 = v0 - centers
    p1 = v1 - centers
    p2 = v2 - centers
    ok = np.ones(len(centers), dtype=bool)
    # Cube face axes: triangle AABB vs cell.
    for axis in range(3):
        lo = np.minimum(np.minimum(p0[:, axis], p1[:, axis]), p2[:, axis])
        hi = np.maximum(np.maximum(p0[:, axis], p1[:, axis]), p2[:, axis])
        ok &= (lo <= half) & (hi >= -half)
    # Triangle plane vs cell.
    e0, e1, e2 = v1 - v0, v2 - v1, v0 - v2
    normal = np.cross(e0, e1)
    r = half * np.abs(normal).sum()
    ok &= np.abs((p0 * normal).sum(axis=1)) <= r
    # Nine edge-cross axes.
    for e in (e0, e1, e2):
        for unit in np.eye(3):
            axis = np.cross(e, unit)
            if not axis.any():
                continue
            r = half * np.abs(axis).sum()
            q0 = p0 @ axis
            q1 = p1 @ axis
            q2 = p2 @ axis
            lo = np.minimum(np.minimum(q0, q1), q2)
            hi = np.maximum(np.maximum(q0, q1), q2)
            ok &= (lo <= r) & (hi >= -r)
    return ok


def surface_voxels(mesh: TriangleMesh, origin: np.ndarray, cell: float,
                   resolution: int) -> np.ndarray:
    """Boolean grid marking cells the mesh surface touches (conservative)."""
    grid = np.zeros((resolution, resolution, resolution), dtype=bool)
    verts = (mesh.vertices - origin) / cell
    half = 0.5
    for i, j, k in mesh.faces:
        tri = verts[[i, j, k]]
        lo = np.clip(np.floor(tri.min(axis=0)).astype(int), 0, resolution - 1)
        hi = np.clip(np.floor(tri.max(axis=0)).astype(int), 0, resolution - 1)
        xs, ys, zs = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        cx, cy, cz = np.meshgrid(xs, ys, zs, indexing="ij")
        centers = np.column_stack([cx.ravel(), cy.ravel(), cz.ravel()]) + 0.5
        hit = _triangle_cell_overlap(tri[0], tri[1], tri[2], centers, half)
        grid[cx.ravel()[hit], cy.ravel()[hit], cz.ravel()[hit]] = True
    return grid


def _fill_interior(surface: np.ndarray) -> np.ndarray:
    """Add every free cell not 6-connected to the grid boundary."""
    free = ~surface
    labels, _ = ndimage.label(free)
    boundary = np.zeros_like(free)
    boundary[0, :, :] = boundary[-1, :, :] = True
    boundary[:, 0, :] = boundary[:, -1, :] = True
    boundary[:, :, 0] = boundary[:, :, -1] = True
    outside_labels = np.unique(labels[boundary & free])
    inside = free & ~np.isin(labels, outside_labels)
    return surface | inside


def mesh_occupancy(mesh: TriangleMesh, origin: np.ndarray, cell: float,
                   resolution: int) -> np.ndarray:
    """Solid occupancy for watertight meshes, surface shell otherwise."""
    surface = surface_voxels(mesh, origin, cell, resolution)
    return _fill_interior(surface) if mesh.is_closed() else surface


def voxel_iou(mesh_a: TriangleMesh, mesh_b: TriangleMesh, resolution: int = 32) -> float:
    """Volume IoU percentage on a shared cubic grid over both meshes.

    A mesh that is not watertight is scored by its surface shell, with a
    UserWarning for each such mesh.
    """
    iou = _grid_iou(mesh_a, mesh_b, resolution)
    for mesh in (mesh_a, mesh_b):
        if not mesh.is_closed():
            warnings.warn("mesh is not watertight; falling back to surface-only occupancy")
    return iou


def _grid_iou(mesh_a: TriangleMesh, mesh_b: TriangleMesh, resolution: int) -> float:
    """``voxel_iou`` without the warnings, which are process-global state."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    joint = np.concatenate([mesh_a.vertices, mesh_b.vertices])
    lo, hi = joint.min(axis=0), joint.max(axis=0)
    center = (lo + hi) / 2.0
    side = float((hi - lo).max()) * 1.01
    if side <= 0:
        raise EmptyInputError("meshes have no spatial extent")
    origin = center - side / 2.0
    cell = side / resolution
    occ_a = mesh_occupancy(mesh_a, origin, cell, resolution)
    occ_b = mesh_occupancy(mesh_b, origin, cell, resolution)
    union = np.logical_or(occ_a, occ_b).sum()
    if union == 0:
        return 0.0
    return 100.0 * np.logical_and(occ_a, occ_b).sum() / union


def normalize_to_unit_cube(meshes: list[TriangleMesh]) -> list[TriangleMesh]:
    """Apply one shared scale/translation putting the joint bbox in [0, 1]^3."""
    joint = np.concatenate([m.vertices for m in meshes])
    lo = joint.min(axis=0)
    extent = float((joint.max(axis=0) - lo).max())
    scale = 1.0 / extent if extent > 0 else 1.0
    return [m.replace_vertices((m.vertices - lo) * scale) for m in meshes]


def _thread_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def evaluate(net: DeformationNetwork, dataset: list[DatasetPair], *,
             seed: int = 0, threshold: float = 1e-4,
             resolution: int = 32) -> tuple[list[MetricReport], dict]:
    """Per-pair metrics of the final block prediction, plus aggregate means.

    Predictions and targets are normalized jointly to the unit cube, and
    F1_SAMPLES points are drawn from each. Point sampling is seeded per pair,
    so repeated calls with the same seed reproduce every number. Pairs are
    evaluated in parallel (capped by the STDNET_THREADS environment variable)
    and reported in input order.
    """
    if not dataset:
        raise EmptyInputError("evaluate needs a non-empty dataset")
    for pair in dataset:
        if pair.target.n_faces == 0:
            raise EmptyInputError(f"pair {pair.identifier!r} has an empty target")

    def one(index: int) -> MetricReport:
        pair = dataset[index]
        # Held until the pair is scored: freed early, its pages fault back in.
        blocks = net.forward_parts(Tape(), pair.source_meshes())
        pred_mesh = blocks[-1].mesh()
        pred_mesh, gt_mesh = normalize_to_unit_cube([pred_mesh, pair.target])
        rng = np.random.default_rng([seed, index])
        pred_pts = sample_surface(pred_mesh.vertices, pred_mesh.faces,
                                  F1_SAMPLES, rng).points
        gt_pts = sample_surface(gt_mesh.vertices, gt_mesh.faces,
                                F1_SAMPLES, rng).points
        cd = chamfer_metric(pred_pts, gt_pts)
        f1, precision, recall = f1_score(pred_pts, gt_pts, threshold)
        watertight = pred_mesh.is_closed() and gt_mesh.is_closed()
        iou = _grid_iou(pred_mesh, gt_mesh, resolution)
        return MetricReport(pair.identifier, cd, f1, precision, recall,
                            threshold, iou, resolution,
                            iou_mode="volume" if watertight else "surface")

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        reports = list(pool.map(one, range(len(dataset))))
    aggregate = {
        "pairs": len(reports),
        "mean_chamfer": float(np.mean([r.chamfer for r in reports])),
        "mean_f1": float(np.mean([r.f1 for r in reports])),
        "mean_iou": float(np.mean([r.iou for r in reports])),
        "threshold": threshold,
        "resolution": resolution,
    }
    return reports, aggregate


def write_metrics(path, reports: list[MetricReport], aggregate: dict) -> None:
    """JSON lines: one object per pair, then the aggregate object."""
    with open(path, "w", encoding="ascii") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_dict()) + "\n")
        fh.write(json.dumps({"aggregate": aggregate}) + "\n")
