"""Oriented bounding boxes, box hierarchies, cuboid meshing, and OBB fitting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, EmptyInputError
from .mesh import TriangleMesh, midpoint_subdivide

EXTENT_FLOOR = 1e-6
ORTHONORMAL_TOL = 1e-9

# Local cube corners, x varying fastest, and the 12 outward-facing triangles
# obtained by splitting each quad along its first diagonal.
_CUBE_CORNERS = np.array(
    [
        [-1, -1, -1], [1, -1, -1], [-1, 1, -1], [1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, 1],
    ],
    dtype=np.float64,
)
_CUBE_QUADS = (
    (0, 2, 3, 1),  # -z
    (4, 5, 7, 6),  # +z
    (0, 1, 5, 4),  # -y
    (2, 6, 7, 3),  # +y
    (0, 4, 6, 2),  # -x
    (1, 3, 7, 5),  # +x
)
_CUBE_FACES = np.array(
    [tri for (a, b, c, d) in _CUBE_QUADS for tri in ((a, b, c), (a, c, d))],
    dtype=np.int64,
)


@dataclass
class ObbNode:
    """Oriented bounding box; a non-empty ``children`` list makes it internal.

    ``axes`` is a rotation matrix whose columns are the box axis directions,
    so a local point ``q`` maps to ``center + axes @ (q * extents)``.
    """

    center: np.ndarray
    axes: np.ndarray
    extents: np.ndarray
    children: list["ObbNode"] = field(default_factory=list)

    def __post_init__(self):
        self.center = np.array(self.center, dtype=np.float64).reshape(3)
        self.axes = np.array(self.axes, dtype=np.float64).reshape(3, 3)
        self.extents = np.array(self.extents, dtype=np.float64).reshape(3)
        if not all(np.isfinite(arr).all() for arr in (self.center, self.axes, self.extents)):
            raise ValueError("box center, axes and extents must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # huge values: checked below
            gram = self.axes.T @ self.axes
            corners = self.corners()
        if not np.abs(gram - np.eye(3)).max() <= ORTHONORMAL_TOL:
            raise ValueError("box axes are not orthonormal")
        if np.linalg.det(self.axes) < 0.0:
            raise ValueError("box axes are a reflection, not a rotation")
        if (self.extents <= 0.0).any():
            raise ValueError(f"box extents must be positive, got {self.extents}")
        if not np.isfinite(corners).all():
            raise ValueError("box corners overflow the float64 range")
        for arr in (self.center, self.axes, self.extents):
            arr.setflags(write=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["ObbNode"]:
        if self.is_leaf:
            return [self]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def corners(self) -> np.ndarray:
        """The 8 world-space corners, in local x-fastest order."""
        return self.center + (_CUBE_CORNERS * self.extents) @ self.axes.T


def mesh_cuboid(box: ObbNode, subdivisions: int = 0) -> TriangleMesh:
    """Closed 12-triangle surface mesh of a box, optionally midpoint-subdivided."""
    if subdivisions < 0:
        raise ValueError(f"subdivisions must be >= 0, got {subdivisions}")
    mesh = TriangleMesh(box.corners(), _CUBE_FACES)
    for _ in range(subdivisions):
        mesh = midpoint_subdivide(mesh)
    return mesh


def fit_obb(points) -> ObbNode:
    """Fit an oriented box via principal axes of the point covariance.

    Axes are ordered by decreasing variance (ties keep coordinate order), sign
    fixed so each axis's largest component is positive, and handedness fixed
    to a rotation. Extents are floored at EXTENT_FLOOR so degenerate point
    sets still yield a valid box.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise EmptyInputError("cannot fit a bounding box to an empty point set")
    mu = pts.mean(axis=0)
    centered = pts - mu
    cov = centered.T @ centered / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    axes = eigvecs[:, order]
    for c in range(3):
        col = axes[:, c]
        if col[np.argmax(np.abs(col))] < 0:
            axes[:, c] = -col
    if np.linalg.det(axes) < 0:
        axes[:, 2] = -axes[:, 2]
    local = centered @ axes
    lo, hi = local.min(axis=0), local.max(axis=0)
    center = mu + axes @ ((lo + hi) / 2.0)
    extents = np.maximum((hi - lo) / 2.0, EXTENT_FLOOR)
    return ObbNode(center, axes, extents)


def structure_to_dict(node: ObbNode) -> dict:
    return {
        "center": [float(v) for v in node.center],
        "axes": [float(v) for v in node.axes.ravel()],  # row-major
        "extents": [float(v) for v in node.extents],
        "children": [structure_to_dict(c) for c in node.children],
    }


def structure_from_dict(data) -> ObbNode:
    if not isinstance(data, dict):
        raise DataFormatError("structure node must be a JSON object")
    try:
        children = [structure_from_dict(c) for c in data.get("children", [])]
        return ObbNode(data["center"], data["axes"], data["extents"], children)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"bad structure node: {exc}") from exc


def save_structure(node: ObbNode, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(structure_to_dict(node), fh, indent=2)
        fh.write("\n")


def load_structure(path) -> ObbNode:
    """Read a box tree; a tree nested past Python's recursion limit is a DataFormatError."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    try:
        return structure_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataFormatError("box tree nested too deeply") from exc
