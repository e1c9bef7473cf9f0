"""Procedural desk-scale dataset pairs: boxes paired with smooth targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import ObbNode, fit_obb, mesh_cuboid
from .mesh import TriangleMesh, adjacency_csr, midpoint_subdivide

FIXTURE_KINDS = ("cube-to-sphere", "box-to-ellipsoid", "two-box-chair",
                 "random-box-smooth")

# Icosahedron with outward-facing triangles; t is the golden ratio.
_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


@dataclass
class DatasetPair:
    """A deformation source box tree and its target surface."""

    identifier: str
    source: ObbNode
    target: TriangleMesh
    source_subdivisions: int = 0

    def source_meshes(self) -> list[TriangleMesh]:
        """Meshes fed to the network: one per leaf box."""
        return [mesh_cuboid(leaf, self.source_subdivisions)
                for leaf in self.source.leaves()]


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> TriangleMesh:
    """Unit icosahedron refined ``subdivisions`` times, projected to a sphere."""
    def project(verts):
        return verts * (radius / np.linalg.norm(verts, axis=1))[:, None]

    mesh = TriangleMesh(project(_ICO_VERTS), _ICO_FACES)
    for _ in range(subdivisions):
        mesh = midpoint_subdivide(mesh)
        mesh = mesh.replace_vertices(project(mesh.vertices))
    return mesh


def laplacian_smooth(mesh: TriangleMesh, iterations: int = 3,
                     strength: float = 0.4) -> TriangleMesh:
    """Move each vertex toward the mean of its neighbors; topology unchanged.

    An isolated vertex keeps its position.
    """
    adjacency = adjacency_csr(mesh.n_vertices, mesh.edges)
    degree = np.diff(adjacency.indptr)[:, None]
    vertices = np.array(mesh.vertices)
    for _ in range(iterations):
        means = np.divide(adjacency @ vertices, degree, out=vertices.copy(), where=degree > 0)
        vertices = vertices + strength * (means - vertices)
    return mesh.replace_vertices(vertices)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _random_box(rng: np.random.Generator) -> ObbNode:
    center = rng.uniform(-0.2, 0.2, 3)
    axes = random_rotation(rng)
    extents = rng.uniform(0.3, 0.8, 3)
    return ObbNode(center, axes, extents)


def _ellipsoid(center, axes, semi_axes, subdivisions: int = 3) -> TriangleMesh:
    sphere = icosphere(subdivisions, radius=1.0)
    world = center + (sphere.vertices * semi_axes) @ axes.T
    return sphere.replace_vertices(world)


def _rounded_box(box: ObbNode, subdivisions: int = 3, power: float = 4.0,
                 scale: float = 1.1) -> TriangleMesh:
    """Box surface bulged onto the p-norm unit sphere of its local frame."""
    mesh = mesh_cuboid(box, subdivisions)
    local = ((mesh.vertices - box.center) @ box.axes) / box.extents
    norms = np.power(np.abs(local), power).sum(axis=1) ** (1.0 / power)
    rounded = local / norms[:, None]
    world = box.center + (rounded * (box.extents * scale)) @ box.axes.T
    return mesh.replace_vertices(world)


def _chair(rng: np.random.Generator) -> DatasetPair:
    """Two stacked boxes (seat + back) with a smoothed L-prism as target."""
    seat_x = rng.uniform(0.9, 1.1)       # seat depth along x
    seat_z = rng.uniform(0.18, 0.26)     # seat thickness
    back_x = rng.uniform(0.16, 0.24)     # back thickness
    back_z = rng.uniform(0.7, 0.9)       # back height above the seat
    width = rng.uniform(0.9, 1.1)        # extrusion along y

    seat = ObbNode((seat_x / 2, width / 2, seat_z / 2), np.eye(3),
                   (seat_x / 2, width / 2, seat_z / 2))
    back = ObbNode((back_x / 2, width / 2, seat_z + back_z / 2), np.eye(3),
                   (back_x / 2, width / 2, back_z / 2))
    root = fit_obb(np.concatenate([seat.corners(), back.corners()]))
    root.children = [seat, back]

    # L-shaped cross-section in (x, z), counter-clockwise outline.
    pts = np.array([
        (0.0, 0.0), (seat_x, 0.0), (seat_x, seat_z), (back_x, seat_z),
        (0.0, seat_z), (back_x, seat_z + back_z), (0.0, seat_z + back_z),
    ])
    front2d = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (4, 3, 5), (4, 5, 6)]
    outline = [0, 1, 2, 3, 5, 6, 4]
    k = len(pts)
    vertices = np.concatenate([
        np.column_stack([pts[:, 0], np.zeros(k), pts[:, 1]]),       # y = 0
        np.column_stack([pts[:, 0], np.full(k, width), pts[:, 1]]),  # y = width
    ])
    faces = [(a, b, c) for a, b, c in front2d]
    faces += [(a + k, c + k, b + k) for a, b, c in front2d]
    for s in range(len(outline)):
        p, q = outline[s], outline[(s + 1) % len(outline)]
        faces += [(p, p + k, q + k), (p, q + k, q)]
    target = TriangleMesh(vertices, faces)
    for _ in range(2):
        target = midpoint_subdivide(target)
    target = laplacian_smooth(target, iterations=3, strength=0.4)
    return DatasetPair("two_box_chair", root, target)


def make_fixtures(kind: str, seed: int = 0) -> list[DatasetPair]:
    """Deterministic desk-scale dataset pairs of the requested kind."""
    if kind not in FIXTURE_KINDS:
        raise ValueError(
            f"unknown fixture kind {kind!r}; valid kinds: {', '.join(FIXTURE_KINDS)}")
    rng = np.random.default_rng([seed, FIXTURE_KINDS.index(kind)])
    if kind == "cube-to-sphere":
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        return [DatasetPair("cube_to_sphere", cube, icosphere(3, radius=1.0))]
    if kind == "box-to-ellipsoid":
        pairs = []
        for i in range(2):
            box = _random_box(rng)
            target = _ellipsoid(box.center, box.axes, box.extents * 1.2)
            pairs.append(DatasetPair(f"box_to_ellipsoid_{i}", box, target))
        return pairs
    if kind == "two-box-chair":
        return [_chair(rng)]
    pairs = []
    for i in range(2):
        box = _random_box(rng)
        pairs.append(DatasetPair(f"random_box_smooth_{i}", box, _rounded_box(box)))
    return pairs
