import warnings

import numpy as np
import pytest

from stdnet import (AdjacencyOperator, EmptyInputError, ObbNode, TriangleMesh,
                    build_adjacency, fit_obb, mesh_cuboid, midpoint_subdivide)
from stdnet.boxes import (load_structure, save_structure, structure_from_dict,
                          structure_to_dict)
from stdnet.errors import DataFormatError
from stdnet.fixtures import icosphere, laplacian_smooth, make_fixtures
from stdnet.mesh import (format_obj, parse_obj, read_obj, subdivide_topology,
                         unique_edges, write_obj)


def unit_cube():
    return ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))


def contains(box, points, tol=1e-9):
    """True when every point lies inside ``box`` inflated by ``tol``."""
    local = (np.asarray(points, dtype=np.float64).reshape(-1, 3) - box.center) @ box.axes
    return bool((np.abs(local) <= box.extents + tol).all())


class TestTriangleMesh:
    def test_rejects_out_of_range_face_index(self):
        with pytest.raises(ValueError):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])

    def test_rejects_degenerate_face(self):
        with pytest.raises(ValueError):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])

    def test_edges_are_sorted_and_unique(self):
        mesh = mesh_cuboid(unit_cube())
        edges = mesh.edges
        assert (edges[:, 0] < edges[:, 1]).all()
        # lexicographic ordering
        keys = edges[:, 0] * mesh.n_vertices + edges[:, 1]
        assert (np.diff(keys) > 0).all()
        # edge set equals the union of face edges
        from_faces = np.concatenate(
            [mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]], mesh.faces[:, [2, 0]]])
        from_faces.sort(axis=1)
        assert np.array_equal(np.unique(from_faces, axis=0), edges)

    def test_vertices_are_immutable(self):
        mesh = mesh_cuboid(unit_cube())
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 9.0


class TestMeshCuboid:
    def test_unit_cube_counts(self):
        mesh = mesh_cuboid(unit_cube(), 0)
        assert (mesh.n_vertices, mesh.n_faces) == (8, 12)
        assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2
        assert mesh.is_closed()

    def test_one_subdivision_counts(self):
        # V' = V + E = 8 + 18, F' = 4F = 48
        base = mesh_cuboid(unit_cube(), 0)
        mesh = mesh_cuboid(unit_cube(), 1)
        assert mesh.n_vertices == base.n_vertices + base.n_edges == 26
        assert mesh.n_faces == 4 * base.n_faces == 48
        assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2

    def test_half_extent_corner_coordinates(self):
        mesh = mesh_cuboid(unit_cube(), 0)
        assert set(np.unique(mesh.vertices)) == {-0.5, 0.5}

    def test_box_transform(self):
        rng = np.random.default_rng(3)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        box = ObbNode((1.0, -2.0, 0.5), q, (0.3, 0.6, 0.9))
        mesh = mesh_cuboid(box, 0)
        local = (mesh.vertices - box.center) @ box.axes
        assert np.allclose(np.abs(local), box.extents, atol=1e-12)

    def test_outward_winding(self):
        mesh = mesh_cuboid(unit_cube(), 0)
        v = mesh.vertices
        for i, j, k in mesh.faces:
            normal = np.cross(v[j] - v[i], v[k] - v[i])
            centroid = (v[i] + v[j] + v[k]) / 3.0
            assert normal @ centroid > 0  # points away from the box center

    def test_subdivision_preserves_surface(self):
        mesh = mesh_cuboid(unit_cube(), 2)
        assert np.abs(mesh.vertices).max() == 0.5
        assert mesh.is_closed()

    def test_negative_subdivisions_rejected(self):
        with pytest.raises(ValueError):
            mesh_cuboid(unit_cube(), -1)


class TestSubdivision:
    def test_counting_law_random_closed_meshes(self):
        for s in range(3):
            mesh = mesh_cuboid(unit_cube(), s)
            fine = midpoint_subdivide(mesh)
            assert fine.n_vertices == mesh.n_vertices + mesh.n_edges
            assert fine.n_faces == 4 * mesh.n_faces
            assert (fine.n_vertices - fine.n_edges + fine.n_faces
                    == mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2)
            assert fine.is_closed()

    def test_topology_matches_per_face_reference(self):
        # the edge-key/searchsorted split must give the same faces in the same
        # order as the face-by-face definition
        for s in range(3):
            mesh = mesh_cuboid(unit_cube(), s)
            rank = {(int(a), int(b)): mesh.n_vertices + r
                    for r, (a, b) in enumerate(mesh.edges)}

            def mid(a, b):
                return rank[(min(a, b), max(a, b))]

            expected = []
            for i, j, k in mesh.faces.tolist():
                mij, mjk, mki = mid(i, j), mid(j, k), mid(k, i)
                expected += [(i, mij, mki), (j, mjk, mij), (k, mki, mjk), (mij, mjk, mki)]
            out = subdivide_topology(mesh.faces, mesh.edges, mesh.n_vertices)
            assert out.dtype == np.int64
            assert np.array_equal(out, np.array(expected))

    def test_missing_edge_rejected(self):
        mesh = mesh_cuboid(unit_cube())
        with pytest.raises(ValueError):
            subdivide_topology(mesh.faces, mesh.edges[1:], mesh.n_vertices)
        with pytest.raises(ValueError):
            subdivide_topology(mesh.faces, np.empty((0, 2), np.int64), mesh.n_vertices)

    def test_unique_edges_matches_row_unique(self):
        faces = mesh_cuboid(unit_cube(), 1).faces
        e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        e.sort(axis=1)
        assert np.array_equal(unique_edges(faces, 26), np.unique(e, axis=0))
        assert unique_edges(np.empty((0, 3), np.int64), 0).shape == (0, 2)

    def test_midpoints_bisect_edges(self):
        mesh = mesh_cuboid(unit_cube())
        fine = midpoint_subdivide(mesh)
        mids = fine.vertices[mesh.n_vertices:]
        expected = (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]) * 0.5
        assert np.array_equal(mids, expected)


class TestAdjacency:
    def path_graph(self):
        # 3 vertices in a row joined by 2 edges
        return 3, np.array([[0, 1], [1, 2]])

    def test_row_mode_row_sums_are_one(self):
        n, edges = self.path_graph()
        adj = AdjacencyOperator.from_edges(n, edges, hops=1, mode="row")
        assert np.allclose(adj.csr.toarray().sum(axis=1), 1.0, atol=1e-12)

    def test_sym_mode_spectral_bound(self):
        mesh = mesh_cuboid(unit_cube(), 1)
        adj = build_adjacency(mesh, hops=1, mode="sym")
        dense = adj.csr.toarray()
        assert np.allclose(dense, dense.T)
        eigs = np.linalg.eigvalsh(dense)
        assert np.abs(eigs).max() <= 1.0 + 1e-9

    def test_power_equals_repeated_product(self):
        tri = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        adj = build_adjacency(tri, hops=2)
        dense = adj.csr.toarray()
        assert np.abs(adj.power(2) - dense @ dense).max() < 1e-12
        adj3 = build_adjacency(tri, hops=3)
        dense3 = adj3.csr.toarray()
        assert np.abs(adj3.power(3) - np.linalg.matrix_power(dense3, 3)).max() < 1e-12

    def test_isolated_vertex_row_is_unit_self_loop(self):
        # triangle 0-1-2 plus isolated vertex 3, hand-computed 4x4 matrix:
        # degrees with self-loops are (3, 3, 3, 1), so rows 0..2 hold 1/3 on
        # the triangle block and row 3 is the unit self-loop row.
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        for mode in ("sym", "row"):
            adj = AdjacencyOperator.from_edges(4, edges, hops=1, mode=mode)
            expected = np.zeros((4, 4))
            expected[:3, :3] = 1.0 / 3.0
            expected[3, 3] = 1.0
            assert np.allclose(adj.csr.toarray(), expected, atol=1e-12)

    def test_none_mode_is_raw_adjacency(self):
        n, edges = self.path_graph()
        adj = AdjacencyOperator.from_edges(n, edges, hops=1, mode="none")
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(adj.csr.toarray(), expected)

    def test_sparsity_pattern_matches_edges(self):
        mesh = mesh_cuboid(unit_cube())
        adj = build_adjacency(mesh, hops=1)
        nz = adj.csr.toarray() != 0
        for i in range(mesh.n_vertices):
            for j in range(mesh.n_vertices):
                has_edge = i == j or any(
                    (min(i, j), max(i, j)) == (a, b) for a, b in mesh.edges)
                assert nz[i, j] == has_edge

    def test_deterministic_bits(self):
        mesh = mesh_cuboid(unit_cube(), 1)
        a = build_adjacency(mesh, hops=2)
        b = build_adjacency(mesh, hops=2)
        assert a.csr.toarray().tobytes() == b.csr.toarray().tobytes()
        assert a.power(2).tobytes() == b.power(2).tobytes()

    def test_empty_mesh_rejected(self):
        with pytest.raises(EmptyInputError):
            AdjacencyOperator.from_edges(0, np.empty((0, 2), int), hops=1)

    def test_bad_hops_rejected(self):
        with pytest.raises(ValueError):
            AdjacencyOperator.from_edges(3, np.array([[0, 1]]), hops=0)


class TestFitObb:
    def test_unit_cube_corners(self):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                           dtype=float)
        box = fit_obb(corners)
        assert np.allclose(box.center, (0.5, 0.5, 0.5), atol=1e-12)
        assert np.allclose(sorted(box.extents), (0.5, 0.5, 0.5), atol=1e-12)
        assert contains(box, corners)

    def test_collinear_points_major_axis(self):
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]], dtype=float)
        box = fit_obb(pts)
        assert np.allclose(np.abs(box.axes[:, 0]), (1, 0, 0), atol=1e-9)
        assert np.isclose(box.extents[0], 0.5)
        assert np.allclose(box.extents[1:], 1e-6)
        assert contains(box, pts)

    def test_single_point(self):
        box = fit_obb([[1.0, 2.0, 3.0]])
        assert np.allclose(box.center, (1, 2, 3))
        assert np.allclose(box.extents, 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            fit_obb(np.empty((0, 3)))

    def test_containment_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(1, 60), 3)) * rng.uniform(0.1, 5)
            box = fit_obb(pts)
            assert contains(box, pts)
            assert np.linalg.det(box.axes) > 0

    def test_rotation_recovered(self):
        rng = np.random.default_rng(5)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        local = rng.uniform(-1, 1, size=(500, 3)) * (4.0, 2.0, 1.0)
        pts = local @ q.T + (3.0, -1.0, 2.0)
        box = fit_obb(pts)
        assert contains(box, pts)
        # major axis aligns with the longest local direction (sign-free)
        assert abs(box.axes[:, 0] @ q[:, 0]) > 0.99


class TestObbNode:
    def test_rejects_non_orthonormal_axes(self):
        with pytest.raises(ValueError):
            ObbNode(np.zeros(3), np.ones((3, 3)), np.ones(3))

    def test_rejects_reflection(self):
        axes = np.diag((1.0, 1.0, -1.0))
        with pytest.raises(ValueError):
            ObbNode(np.zeros(3), axes, np.ones(3))

    def test_rejects_zero_extent(self):
        with pytest.raises(ValueError):
            ObbNode(np.zeros(3), np.eye(3), (1.0, 0.0, 1.0))

    @pytest.mark.parametrize("field, value", [
        ("center", (np.nan, 0.0, 0.0)),
        ("axes", np.where(np.eye(3) == 1.0, np.nan, 0.0)),
        ("extents", (1.0, np.inf, 1.0))])
    def test_rejects_non_finite(self, field, value):
        args = {"center": np.zeros(3), "axes": np.eye(3), "extents": np.ones(3)}
        args[field] = value
        with pytest.raises(ValueError, match="finite"):
            ObbNode(**args)

    @pytest.mark.parametrize("center, axes, extents", [
        ((1e308, 0.0, 0.0), np.eye(3), (1e308, 1.0, 1.0)),
        (np.zeros(3), [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]],
         (1.5e308, 1.5e308, 1.0))])
    def test_rejects_overflowing_corners_without_warning(self, center, axes, extents):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="corners"):
                ObbNode(center, axes, extents)

    def test_leaves_traversal(self):
        a, b = unit_cube(), unit_cube()
        root = ObbNode(np.zeros(3), np.eye(3), np.ones(3), children=[a, b])
        assert root.leaves() == [a, b]
        assert not root.is_leaf


class TestStructureJson:
    def test_round_trip(self, tmp_path):
        seat = unit_cube()
        back = ObbNode((0.1, 0.2, 0.9), np.eye(3), (0.1, 0.5, 0.4))
        root = ObbNode(np.zeros(3), np.eye(3), np.ones(3), children=[seat, back])
        path = tmp_path / "tree.json"
        save_structure(root, path)
        loaded = load_structure(path)
        assert len(loaded.children) == 2
        assert np.allclose(loaded.children[1].center, back.center)
        assert np.allclose(loaded.children[1].axes, back.axes)
        # byte-identical on rewrite
        again = tmp_path / "tree2.json"
        save_structure(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_dict_schema(self):
        d = structure_to_dict(unit_cube())
        assert set(d) == {"center", "axes", "extents", "children"}
        assert len(d["axes"]) == 9
        assert structure_from_dict(d).is_leaf

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_structure(path)
        path.write_text('{"center": [0, 0, 0]}')
        with pytest.raises(DataFormatError):
            load_structure(path)

    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deeply_nested_tree_rejected(self, tmp_path, depth):
        box = '"center": [0, 0, 0], "axes": [1, 0, 0, 0, 1, 0, 0, 0, 1], "extents": [1, 1, 1]'
        path = tmp_path / "deep.json"
        path.write_text(('{' + box + ', "children": [') * depth + '{' + box + '}'
                        + ']}' * depth)
        with pytest.raises(DataFormatError, match="nested too deeply"):
            load_structure(path)

    def test_moderately_nested_tree_loads(self, tmp_path):
        node = unit_cube()
        for _ in range(50):
            node = ObbNode(np.zeros(3), np.eye(3), np.ones(3), children=[node])
        path = tmp_path / "tree.json"
        save_structure(node, path)
        assert len(load_structure(path).leaves()) == 1


def reference_laplacian_smooth(mesh, iterations, strength):
    """The per-vertex loop over neighbour lists that ``laplacian_smooth`` replaced."""
    lists = [[] for _ in range(mesh.n_vertices)]
    for a, b in mesh.edges:
        lists[a].append(int(b))
        lists[b].append(int(a))
    neighbor_lists = [np.array(sorted(l), dtype=np.int64) for l in lists]
    vertices = np.array(mesh.vertices)
    for _ in range(iterations):
        means = np.array([vertices[nb].mean(axis=0) if len(nb) else vertices[p]
                          for p, nb in enumerate(neighbor_lists)])
        vertices = vertices + strength * (means - vertices)
    return vertices


class TestLaplacianSmooth:
    @staticmethod
    def meshes():
        chair = make_fixtures("two-box-chair", 0)[0].target
        sphere = icosphere(2)
        noisy = sphere.replace_vertices(
            sphere.vertices + np.random.default_rng(3).normal(0.0, 0.05, sphere.vertices.shape))
        small = icosphere(1)
        isolated = TriangleMesh(np.vstack([small.vertices, [[3.0, -1.0, 2.0]]]), small.faces)
        return [chair, noisy, isolated]

    @pytest.mark.parametrize("iterations, strength", [(3, 0.4), (5, 0.9)])
    def test_matches_per_vertex_loop_bit_for_bit(self, iterations, strength):
        for mesh in self.meshes():
            got = laplacian_smooth(mesh, iterations, strength)
            assert got.vertices.tobytes() == reference_laplacian_smooth(
                mesh, iterations, strength).tobytes()
            assert np.array_equal(got.faces, mesh.faces)


class TestObjIO:
    def test_round_trip_bytes(self, tmp_path):
        mesh = mesh_cuboid(unit_cube(), 1)
        first = tmp_path / "a.obj"
        write_obj(mesh, first)
        reread = read_obj(first)
        assert np.array_equal(reread.faces, mesh.faces)
        second = tmp_path / "b.obj"
        write_obj(reread, second)
        assert first.read_bytes() == second.read_bytes()

    def test_nine_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        mesh = TriangleMesh(rng.normal(size=(4, 3)) * 123.456,
                            [[0, 1, 2], [0, 2, 3]])
        path = tmp_path / "m.obj"
        write_obj(mesh, path)
        reread = read_obj(path)
        assert format_obj(reread) == format_obj(mesh.replace_vertices(reread.vertices))
        assert np.abs(reread.vertices - mesh.vertices).max() < 1e-6

    def test_ignores_other_directives(self):
        text = "# comment\nvn 0 0 1\no thing\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
        mesh = parse_obj(text)
        assert (mesh.n_vertices, mesh.n_faces) == (3, 1)

    def test_accepts_slash_face_syntax(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
        assert mesh.n_faces == 1

    def test_rejects_quad_faces(self):
        with pytest.raises(DataFormatError):
            parse_obj("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")

    def test_rejects_bad_floats(self):
        with pytest.raises(DataFormatError):
            parse_obj("v zero 0 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_rejects_non_finite_coordinates(self, value):
        with pytest.raises(DataFormatError, match="vertex 2"):
            parse_obj(f"v 0 0 0\nv 1 {value} 0\nv 0 1 0\nf 1 2 3\n")

    def test_face_index_past_int64_is_data_error(self):
        with pytest.raises(DataFormatError):
            parse_obj(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 {2 ** 64}\n")

    def test_exact_text_of_edge_coordinates(self):
        # -0.0 keeps its sign, a subnormal and 1e300 print in exponent form
        mesh = TriangleMesh([[-0.0, 5e-324, 1e300], [0.1, 1.0, -4.5], [2.0, 0.0, 1e-7]],
                            [[0, 1, 2]])
        assert format_obj(mesh) == ("v -0 4.94065646e-324 1e+300\n"
                                    "v 0.1 1 -4.5\n"
                                    "v 2 0 1e-07\n"
                                    "f 1 2 3\n")

    def test_never_emits_other_directives(self):
        text = format_obj(mesh_cuboid(unit_cube()))
        kinds = {line.split()[0] for line in text.strip().splitlines()}
        assert kinds == {"v", "f"}
