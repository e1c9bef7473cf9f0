"""Triangle meshes, midpoint subdivision, graph adjacency, and OBJ I/O."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DataFormatError, DimensionError, EmptyInputError

NORMALIZATION_MODES = ("sym", "row", "none")


class TriangleMesh:
    """Immutable triangle mesh: vertices (V, 3) float64, faces (F, 3) int64.

    Edges are the deduplicated face edges stored as (min, max) index pairs in
    lexicographic order. Subdivision, unpooling, and checkpointing rely on
    this ordering being reproducible, so it is part of the class contract.
    """

    def __init__(self, vertices, faces):
        vertices = np.array(vertices, dtype=np.float64)
        faces = np.array(faces, dtype=np.int64)
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise DimensionError(f"vertices must have shape (V, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise DimensionError(f"faces must have shape (F, 3), got {faces.shape}")
        if faces.size:
            if faces.min() < 0 or faces.max() >= len(vertices):
                raise ValueError("face index out of range")
            degenerate = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 2] == faces[:, 0])
            )
            if degenerate.any():
                raise ValueError(f"degenerate face at index {int(np.argmax(degenerate))}")
        vertices.setflags(write=False)
        faces.setflags(write=False)
        self.vertices = vertices
        self.faces = faces
        self._edges = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as (min, max) pairs, lexicographically sorted."""
        if self._edges is None:
            e = unique_edges(self.faces, self.n_vertices)
            e.setflags(write=False)
            self._edges = e
        return self._edges

    def is_closed(self) -> bool:
        """True when every edge is shared by exactly two faces."""
        if self.n_faces == 0:
            return False
        _, counts = np.unique(_face_edge_keys(self.faces, self.n_vertices),
                              return_counts=True)
        return bool((counts == 2).all())

    def replace_vertices(self, vertices) -> "TriangleMesh":
        """New mesh with the same topology and different vertex positions."""
        out = TriangleMesh(vertices, self.faces)
        out._edges = self._edges
        return out

    def __repr__(self) -> str:
        return f"TriangleMesh(V={self.n_vertices}, F={self.n_faces})"


def _face_edge_keys(faces: np.ndarray, n_vertices: int) -> np.ndarray:
    """Key min * n + max of every face edge (i, j), (j, k), (k, i), face by face."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    a = faces.reshape(-1)
    b = faces[:, [1, 2, 0]].reshape(-1)
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


def unique_edges(faces: np.ndarray, n_vertices: int) -> np.ndarray:
    """Unique undirected face edges as (min, max) pairs, lexicographically sorted."""
    return np.stack(np.divmod(np.unique(_face_edge_keys(faces, n_vertices)), n_vertices),
                    axis=1)


def join_indices(n_vertices: list[int], parts: list[np.ndarray]) -> np.ndarray:
    """Vertex-index arrays (faces or edges) of parts joined into one disjoint mesh.

    The parts' vertices are stacked in order, so part p's indices shift by the
    vertex count of the parts before it.
    """
    offsets = np.cumsum([0, *n_vertices[:-1]])
    return np.concatenate([part + off for part, off in zip(parts, offsets)])


def subdivide_topology(faces: np.ndarray, edges: np.ndarray, n_vertices: int) -> np.ndarray:
    """Faces of the 1-to-4 midpoint split.

    The midpoint of edge rank r (in the lex-sorted edge order) becomes vertex
    n_vertices + r. Each face (i, j, k) is replaced by three corner triangles
    (i, mij, mki), (j, mjk, mij), (k, mki, mjk) and the center triangle
    (mij, mjk, mki), preserving orientation.
    """
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edge_keys = edges[:, 0] * n_vertices + edges[:, 1]
    keys = _face_edge_keys(faces, n_vertices)
    rank = np.minimum(np.searchsorted(edge_keys, keys), max(len(edges) - 1, 0))
    if keys.size and (not len(edges) or not np.array_equal(edge_keys[rank], keys)):
        raise ValueError("a face edge is missing from the edge list")
    mij, mjk, mki = (n_vertices + rank).reshape(-1, 3).T
    i, j, k = faces.T
    return np.stack([i, mij, mki, j, mjk, mij, k, mki, mjk, mij, mjk, mki],
                    axis=1).reshape(-1, 3)


def midpoint_operator(n_vertices: int, edges: np.ndarray) -> sp.csr_array:
    """The (V + E) x V unpooling map as CSR: V identity rows, then one row per edge.

    Row V + r holds 1/2 at both ends of edge r, giving the midpoint that
    ``subdivide_topology`` numbers V + r. Rows sum from +0.0, so -0.0 gives +0.0.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n, e = n_vertices, len(edges)
    return sp.csr_array((np.repeat([1.0, 0.5], [n, 2 * e]),
                         np.concatenate([np.arange(n), edges.reshape(-1)]),
                         np.concatenate([np.arange(n), n + 2 * np.arange(e + 1)])),
                        shape=(n + e, n))


def midpoint_subdivide(mesh: TriangleMesh) -> TriangleMesh:
    """One round of edge-midpoint subdivision: V' = V + E, F' = 4F."""
    vertices = midpoint_operator(mesh.n_vertices, mesh.edges) @ mesh.vertices
    return TriangleMesh(vertices, subdivide_topology(mesh.faces, mesh.edges, mesh.n_vertices))


def adjacency_csr(n_vertices: int, edges: np.ndarray) -> sp.csr_array:
    """Symmetric 0/1 adjacency of an undirected edge list as CSR, no self-loops."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(np.concatenate([edges[:, 0] * n_vertices + edges[:, 1],
                                     edges[:, 1] * n_vertices + edges[:, 0]]))
    rows, cols = np.divmod(keys, n_vertices)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_vertices))])
    return sp.csr_array((np.ones(len(keys)), cols, indptr), shape=(n_vertices, n_vertices))


class AdjacencyOperator:
    """Sparse normalized mesh adjacency A-bar for k-hop aggregation.

    Modes:
      "sym"  -- D^(-1/2) (A + I) D^(-1/2); bounded spectrum (|lambda| <= 1),
                the default for deep stacks.
      "row"  -- D^(-1) (A + I); every row sums to exactly 1.
      "none" -- raw 0/1 adjacency, no self-loops; kept for ablations.

    ``csr`` holds A-bar as one scipy CSR matrix built straight from the edge
    list, and ``csr_t`` its transpose, which differs from it only in "row"
    mode. Layers get A-bar^k X as k sparse products, so no V x V array is
    ever formed. ``power(k)`` returns a dense power built on demand, for
    inspection; no forward or backward pass uses it.
    """

    def __init__(self, matrix, hops: int, mode: str):
        self.csr = sp.csr_array(matrix)
        self.csr_t = self.csr.T.tocsr() if mode == "row" else self.csr
        self.hops = hops

    @classmethod
    def from_edges(cls, n_vertices: int, edges: np.ndarray, hops: int = 2,
                   mode: str = "sym") -> "AdjacencyOperator":
        if n_vertices == 0:
            raise EmptyInputError("cannot build adjacency for a mesh with zero vertices")
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        if mode not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization {mode!r}; choose from {NORMALIZATION_MODES}")
        m = adjacency_csr(n_vertices, edges)
        if mode != "none":
            m = m + sp.eye_array(n_vertices, format="csr")
            deg = m.sum(axis=1)
            rows = np.repeat(np.arange(n_vertices), np.diff(m.indptr))
            if mode == "sym":
                inv_sqrt = 1.0 / np.sqrt(deg)
                m.data = m.data * inv_sqrt[rows] * inv_sqrt[m.indices]
            else:
                m.data = m.data / deg[rows]
        return cls(m, hops, mode)

    def power(self, k: int) -> np.ndarray:
        """A-bar to the k-th power as a dense array, 1 <= k <= hops."""
        if not 1 <= k <= self.hops:
            raise ValueError(f"power {k} outside range 1..{self.hops}")
        p = self.csr
        for _ in range(k - 1):
            p = p @ self.csr
        return p.toarray()


def build_adjacency(mesh: TriangleMesh, hops: int = 2, mode: str = "sym") -> AdjacencyOperator:
    return AdjacencyOperator.from_edges(mesh.n_vertices, mesh.edges, hops=hops, mode=mode)


def format_obj(mesh: TriangleMesh) -> str:
    """ASCII OBJ text with 9-significant-digit coordinates and 1-based faces."""
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces.tolist()]
    return "\n".join(lines) + "\n"


def write_obj(mesh: TriangleMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_obj(mesh))


def parse_obj(text: str) -> TriangleMesh:
    """Parse `v` and `f` directives; everything else is ignored."""
    vertices = []
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "v":
            if len(tokens) < 4:
                raise DataFormatError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                vertices.append([float(t) for t in tokens[1:4]])
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: bad vertex coordinate") from exc
        elif tokens[0] == "f":
            if len(tokens) != 4:
                raise DataFormatError(f"line {lineno}: only triangular faces are supported")
            try:
                idx = [int(t.split("/")[0]) for t in tokens[1:]]
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: bad face index") from exc
            if any(i <= 0 for i in idx):
                raise DataFormatError(f"line {lineno}: face indices must be positive (1-based)")
            faces.append([i - 1 for i in idx])
    vertices = np.array(vertices, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        raise DataFormatError(f"vertex {int(np.argmin(finite)) + 1}: non-finite coordinate")
    try:
        return TriangleMesh(vertices, faces)
    except (ValueError, OverflowError) as exc:  # OverflowError: an index past int64
        raise DataFormatError(str(exc)) from exc


def read_obj(path) -> TriangleMesh:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_obj(fh.read())
