"""Evaluation metrics: chamfer distance, F1 at a threshold, and voxel IoU."""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyInputError, NumericalError
from .fixtures import DatasetPair
from .losses import kdtree, nearest_neighbors, sample_surface
from .mesh import TriangleMesh
from .network import DeformationNetwork, network_forward, set_allocator_policy

F1_SAMPLES = 2500
# (face, cell) rows per separating-axis chunk: the temporaries stay in cache.
SAT_CHUNK_ROWS = 4096
# The largest grid side whose int32 component labels (4 r^3 bytes) stay addressable.
MAX_RESOLUTION = int((np.iinfo(np.intp).max // 4) ** (1 / 3))
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


def _scores(a: np.ndarray, b: np.ndarray, threshold: float) -> tuple[float, float, float, float]:
    """(chamfer, f1, precision, recall) from one nearest-neighbour search each way."""
    fwd, rev = nearest_neighbors(a, b)[0], nearest_neighbors(b, a)[0]
    precision = 100.0 * (fwd <= threshold).mean()
    recall = 100.0 * (rev <= threshold).mean()
    f1 = 0.0
    if precision > 0 and recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return float(fwd.sum() + rev.sum()), f1, precision, recall


def chamfer_metric(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """The value of the training ``chamfer_loss``, computed without a tape."""
    a, b = (np.asarray(p, dtype=np.float64) for p in (points_a, points_b))
    return _scores(a, b, 0.0)[0]  # the threshold only sets the counts, unused here


def f1_score(pred_points, gt_points, threshold: float) -> tuple[float, float, float]:
    """(f1, precision, recall) percentages at a squared-distance threshold.

    Precision is the fraction of predicted points whose nearest ground-truth
    point lies within ``threshold`` (squared distance); recall is symmetric.
    F1 is their harmonic mean, or 0 when both vanish. Non-finite points raise
    NumericalError.
    """
    pred = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    return _scores(pred, gt, threshold)[1:]


def surface_voxels(mesh: TriangleMesh, origin: np.ndarray, cell: float,
                   resolution: int) -> np.ndarray:
    """Boolean grid marking cells the mesh surface touches (conservative).

    Each face is tested against every cell of its bounding box with the
    separating-axis triangle/box test (Akenine-Moeller, JGT 2001): the box
    axes, the triangle's plane, then the nine edge-cross axes. The (face,
    cell) pairs are enumerated face by face and tested SAT_CHUNK_ROWS at a
    time, so memory stays bounded however large a face is. Every projection
    is an explicit sum in a fixed order, not a BLAS product (which may round
    a row differently by its position in the matrix), so the grid depends
    neither on the face order nor on the chunk size.
    """
    grid = np.zeros((resolution, resolution, resolution), dtype=bool)
    half = 0.5
    tri = ((mesh.vertices - origin) / cell)[mesh.faces]              # (F, corner, xyz)
    lo = np.clip(np.floor(tri.min(axis=1)).astype(np.int64), 0, resolution - 1)
    hi = np.clip(np.floor(tri.max(axis=1)).astype(np.int64), 0, resolution - 1)
    box = hi - lo + 1                                                # cells per axis
    counts = box.prod(axis=1)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Per-face constants, component-major so a gather by face yields rows.
    corners = np.ascontiguousarray(tri.transpose(1, 2, 0))           # (corner, xyz, F)
    edges = corners[[1, 2, 0]] - corners                             # v1-v0, v2-v1, v0-v2
    normal = np.cross(edges[0], edges[1], axis=0)
    plane_r = half * (np.abs(normal[0]) + np.abs(normal[1]) + np.abs(normal[2]))
    # The axis edge x unit_m is 0 at m, e_l at j and -e_j at l, where j, l
    # follow m cyclically; its box radius is half (|e_l| + |e_j|).
    after = [((m + 1) % 3, (m + 2) % 3) for m in range(3)]
    axes_r = np.stack([half * (np.abs(e[l]) + np.abs(e[j]))
                       for e in edges for j, l in after])             # (9, F)

    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, SAT_CHUNK_ROWS):
        stop = min(start + SAT_CHUNK_ROWS, total)
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        if first == last:
            # Rows of one face: its constants broadcast instead of being gathered.
            fid = slice(first, first + 1)
            local = np.arange(start, stop) - starts[first]
        else:
            span = np.arange(first, last + 1)
            fid = np.repeat(span, np.minimum(ends[span], stop) - np.maximum(starts[span], start))
            local = np.arange(start, stop) - starts[fid]
        yz, z = np.divmod(local, box[fid, 2])
        x, y = np.divmod(yz, box[fid, 1])
        cells = lo[fid].T + np.stack([x, y, z])
        p = corners[:, :, fid] - (cells + 0.5)                        # corner - cell centre
        ok = ((p.min(axis=0) <= half) & (p.max(axis=0) >= -half)).all(axis=0)
        n = normal[:, fid]
        ok &= np.abs(p[0, 0] * n[0] + p[0, 1] * n[1] + p[0, 2] * n[2]) <= plane_r[fid]
        if not ok.all():
            keep = np.flatnonzero(ok)
            p, cells = p[:, :, keep], cells[:, keep]
            fid = fid if first == last else fid[keep]
        e, r = edges[:, :, fid], axes_r[:, fid]
        hit = np.ones(cells.shape[1], dtype=bool)
        for k in range(9):
            edge, (j, l) = e[k // 3], after[k % 3]
            # p . axis with the zero term dropped, which leaves every bit as is.
            q0, q1, q2 = (c[j] * edge[l] - c[l] * edge[j] for c in p)
            hit &= ((np.minimum(np.minimum(q0, q1), q2) <= r[k])
                    & (np.maximum(np.maximum(q0, q1), q2) >= -r[k]))
        grid[tuple(cells[:, hit])] = True
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
    UserWarning for each such mesh. Non-finite vertices raise NumericalError.
    """
    iou = _grid_iou(mesh_a, mesh_b, resolution)
    for mesh in (mesh_a, mesh_b):
        if not mesh.is_closed():
            warnings.warn("mesh is not watertight; falling back to surface-only occupancy")
    return iou


def _grid_iou(mesh_a: TriangleMesh, mesh_b: TriangleMesh, resolution: int) -> float:
    """``voxel_iou`` without the warnings, which are process-global state."""
    if not 8 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [8, {MAX_RESOLUTION}], got {resolution}")
    joint = np.concatenate([mesh_a.vertices, mesh_b.vertices])
    if not np.isfinite(joint).all():
        raise NumericalError("voxel_iou got non-finite vertices")
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


def evaluate(net: DeformationNetwork, dataset: list[DatasetPair], *,
             seed: int = 0, threshold: float = 1e-4,
             resolution: int = 32) -> tuple[list[MetricReport], dict]:
    """Per-pair metrics of the final block prediction, plus aggregate means.

    Predictions and targets are normalized jointly to the unit cube, and
    F1_SAMPLES points are drawn from each. Point sampling is seeded per pair,
    so repeated calls with the same seed reproduce every number. Pairs are
    evaluated in parallel, one thread per CPU the process may run on, and
    reported in input order. ``set_allocator_policy()`` is called first, as
    ``train`` does, and each pair runs ``network_forward``.
    """
    if not dataset:
        raise EmptyInputError("evaluate needs a non-empty dataset")
    if not threshold > 0:
        raise ValueError("threshold must be > 0")

    def one(index: int) -> MetricReport:
        pair = dataset[index]
        pred_mesh = network_forward(net, *pair.source_meshes())[-1]
        pred_mesh, gt_mesh = normalize_to_unit_cube([pred_mesh, pair.target])
        rng = np.random.default_rng([seed, index])
        pred_pts = sample_surface(pred_mesh.vertices, pred_mesh.faces,
                                  F1_SAMPLES, rng).points
        gt_pts = sample_surface(gt_mesh.vertices, gt_mesh.faces,
                                F1_SAMPLES, rng).points
        cd, f1, precision, recall = _scores(pred_pts, gt_pts, threshold)
        watertight = pred_mesh.is_closed() and gt_mesh.is_closed()
        iou = _grid_iou(pred_mesh, gt_mesh, resolution)
        return MetricReport(pair.identifier, cd, f1, precision, recall,
                            threshold, iou, resolution,
                            iou_mode="volume" if watertight else "surface")

    # Process-global steps run here, not in a worker: an import mutates
    # sys.modules, and the allocator policy is set from the main thread only.
    kdtree()
    set_allocator_policy()
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
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
            fh.write(json.dumps(asdict(report)) + "\n")
        fh.write(json.dumps({"aggregate": aggregate}) + "\n")
