import json
from dataclasses import asdict

import numpy as np
import pytest

from stdnet import (DegenerateMeshError, DimensionError, EmptyInputError, LossReport, ObbNode,
                    Tape, chamfer_loss, edge_loss, gradcheck, laplacian_loss,
                    mesh_cuboid, sample_surface, total_loss)
from stdnet.autodiff import sparse_matmul
from stdnet.errors import NumericalError
from stdnet.losses import barycentric_coefficients, nearest_neighbors, triangle_areas
from stdnet.mesh import TriangleMesh
from stdnet.network import BlockOutput


def single_triangle(scale=1.0):
    return TriangleMesh(np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0]]) * scale,
                        [[0, 1, 2]])


class TestBarycentric:
    def test_u_zero_gives_first_vertex(self):
        c1, c2, c3 = barycentric_coefficients(np.zeros(4), np.linspace(0, 0.9, 4))
        assert np.allclose(c1, 1.0) and np.allclose(c2, 0.0) and np.allclose(c3, 0.0)

    def test_endpoints(self):
        c1, c2, c3 = barycentric_coefficients(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose([c1[0], c2[0], c3[0]], [0, 0, 1])  # u=1, w=1 -> v3
        assert np.allclose([c1[1], c2[1], c3[1]], [0, 1, 0])  # u=1, w=0 -> v2

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(0)
        c1, c2, c3 = barycentric_coefficients(rng.random(100), rng.random(100))
        assert np.allclose(c1 + c2 + c3, 1.0, atol=1e-12)


class TestSampleSurface:
    def test_barycentric_identity_per_sample(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.3, 0.7)), 1)
        t = Tape()
        batch = sample_surface(t.leaf(mesh.vertices), mesh.faces, 500,
                               np.random.default_rng(1))
        c1, c2, c3 = barycentric_coefficients(batch.u, batch.w)
        tri = mesh.faces[batch.face_indices]
        expected = (c1[:, None] * mesh.vertices[tri[:, 0]]
                    + c2[:, None] * mesh.vertices[tri[:, 1]]
                    + c3[:, None] * mesh.vertices[tri[:, 2]])
        assert np.abs(batch.points.value - expected).max() < 1e-12

    def test_uw_in_unit_interval(self):
        batch = sample_surface(single_triangle().vertices, single_triangle().faces,
                               1000, np.random.default_rng(2))
        assert ((batch.u >= 0) & (batch.u < 1)).all()
        assert ((batch.w >= 0) & (batch.w < 1)).all()

    def test_mean_approaches_centroid(self):
        # Monte-Carlo oracle: the sample mean of a uniform triangle
        # distribution is its centroid.
        tri = single_triangle()
        batch = sample_surface(tri.vertices, tri.faces, 50_000,
                               np.random.default_rng(3))
        centroid = tri.vertices.mean(axis=0)
        diameter = np.sqrt(5.0)  # longest side of the (2, 1) right triangle
        err = np.linalg.norm(batch.points.mean(axis=0) - centroid)
        assert err < 0.01 * diameter

    def test_area_weighted_face_frequency(self):
        # two triangles with area ratio 1:3
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-3, 0, 0], [0, -1, 0]],
                         dtype=float)
        faces = np.array([[0, 1, 2], [0, 3, 4]])
        assert np.allclose(triangle_areas(verts, faces), [0.5, 1.5])
        batch = sample_surface(verts, faces, 100_000, np.random.default_rng(4))
        frac = (batch.face_indices == 1).mean()
        assert abs(frac - 0.75) < 0.05 * 0.75

    def test_zero_area_mesh_rejected(self):
        flat = TriangleMesh(np.zeros((3, 3)), [[0, 1, 2]])
        with pytest.raises(DegenerateMeshError):
            sample_surface(flat.vertices, flat.faces, 10, np.random.default_rng(0))

    def test_zero_area_faces_never_chosen(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 1, 3]])  # second face is degenerate
        batch = sample_surface(verts, faces, 5000, np.random.default_rng(5))
        assert (batch.face_indices == 0).all()

    def test_gradients_flow_to_vertices(self):
        tri = single_triangle()
        t = Tape()
        v = t.leaf(tri.vertices, requires_grad=True)
        batch = sample_surface(v, tri.faces, 64, np.random.default_rng(6))
        batch.points.sum().backward()
        assert v.grad is not None and np.abs(v.grad).sum() > 0

    def test_gather_matches_dense_coefficient_matmul(self):
        # the recorded three-row gather against the (n x V) coefficient matrix
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.3, 0.7)), 1)
        t = Tape()
        v = t.leaf(mesh.vertices, requires_grad=True)
        batch = sample_surface(v, mesh.faces, 300, np.random.default_rng(13))
        c1, c2, c3 = barycentric_coefficients(batch.u, batch.w)
        tri = mesh.faces[batch.face_indices]
        n = len(batch.face_indices)
        coeff = np.zeros((n, mesh.n_vertices))
        rows = np.arange(n)
        coeff[rows, tri[:, 0]] = c1
        coeff[rows, tri[:, 1]] = c2
        coeff[rows, tri[:, 2]] = c3
        mix = np.random.default_rng(14).normal(size=(5, n))
        sparse_matmul(mix, batch.points).square().sum().backward()
        assert np.abs(batch.points.value - coeff @ mesh.vertices).max() <= 1e-12
        upstream = 2.0 * mix.T @ (mix @ batch.points.value)
        assert np.abs(v.grad - coeff.T @ upstream).max() <= 1e-12 * np.abs(v.grad).max()

    def test_tensor_and_array_points_identical(self):
        for subdivisions, n in ((1, 200), (4, 1000)):  # 26 and 1,538 vertices
            mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.3, 0.7)), subdivisions)
            plain = sample_surface(mesh.vertices, mesh.faces, n, np.random.default_rng(15))
            traced = sample_surface(Tape().leaf(mesh.vertices), mesh.faces, n,
                                    np.random.default_rng(15))
            assert traced.points.value.tobytes() == plain.points.tobytes()

    def test_gather_gradient_matches_finite_differences(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.3, 0.7)))
        mix = np.random.default_rng(16).normal(size=(7, 40))

        def loss(ts):
            points = sample_surface(ts[0], mesh.faces, 40, np.random.default_rng(17)).points
            return sparse_matmul(mix, points).square().sum()

        report = gradcheck(loss, [np.array(mesh.vertices)], tol=1e-6)
        assert report.passed, str(report)


class TestChamfer:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(7).normal(size=(20, 3))
        assert chamfer_loss(pts, pts.copy()).item() == 0.0

    def test_hand_computed_value(self):
        # nearest neighbors by hand: 1 + (1 + 4) = 6
        m = np.array([[0.0, 0.0, 0.0]])
        s = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert chamfer_loss(m, s).item() == pytest.approx(6.0)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(15, 3)), rng.normal(size=(9, 3))
        assert chamfer_loss(a, b).item() == pytest.approx(chamfer_loss(b, a).item())

    def test_nonnegative_and_zero_iff_cover(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
            assert chamfer_loss(a, b).item() > 0
        pts = rng.normal(size=(6, 3))
        assert chamfer_loss(pts, pts[::-1].copy()).item() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            chamfer_loss(np.zeros((0, 3)), np.zeros((3, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        report = gradcheck(
            lambda ts: chamfer_loss(ts[0], ts[1]),
            [rng.normal(size=(8, 3)), rng.normal(size=(6, 3))], tol=1e-5)
        assert report.passed, str(report)

    def test_array_operand_joins_the_tensor_operand_tape(self):
        rng = np.random.default_rng(13)
        tape = Tape()
        target = tape.leaf(rng.normal(size=(5, 3)), requires_grad=True)
        loss = chamfer_loss(rng.normal(size=(4, 3)), target)
        assert loss.tape is tape
        loss.backward()
        assert target.grad.shape == (5, 3) and np.abs(target.grad).sum() > 0


def product_form_nearest(a, b):
    """The product-form search ``nearest_neighbors`` replaced: lowest index at ties."""
    scores = a @ b.T
    scores *= -2.0
    scores += (b * b).sum(axis=1)[None, :]
    idx = np.argmin(scores, axis=1)
    diff = a - b[idx]
    return (diff * diff).sum(axis=1), idx


def product_form_chamfer(a, b):
    return (product_form_nearest(a, b)[0].reshape(-1, 1).sum()
            + product_form_nearest(b, a)[0].reshape(-1, 1).sum())


class TestNearestNeighbors:
    def test_chamfer_matches_product_form_bit_for_bit(self):
        rng = np.random.default_rng(12)
        a, b = rng.uniform(size=(1000, 3)), rng.uniform(size=(1000, 3))
        for x, y in ((a, b), (b, a)):
            sq, idx = nearest_neighbors(x, y)
            ref_sq, ref_idx = product_form_nearest(x, y)
            assert np.array_equal(idx, ref_idx)
            assert sq.tobytes() == ref_sq.tobytes()
        t = Tape()
        ta, tb = t.leaf(a, requires_grad=True), t.leaf(b, requires_grad=True)
        loss = chamfer_loss(ta, tb)
        assert loss.item() == product_form_chamfer(a, b)
        # with no ties the gradient is 2 (x - nearest) summed over both directions
        loss.backward()
        grad_a = np.zeros_like(a)
        fwd_idx, rev_idx = product_form_nearest(a, b)[1], product_form_nearest(b, a)[1]
        grad_a += 2.0 * (a - b[fwd_idx])
        np.add.at(grad_a, rev_idx, -2.0 * (b - a[rev_idx]))
        assert np.array_equal(ta.grad, grad_a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(13).normal(size=(30, 3))
        broken = pts.copy()
        broken[7, 2] = bad
        for a, b in ((broken, pts), (pts, broken)):
            with pytest.raises(NumericalError):
                chamfer_loss(a, b)
            with pytest.raises(NumericalError):
                nearest_neighbors(a, b)
        t = Tape()
        with pytest.raises(NumericalError):
            chamfer_loss(t.leaf(broken, requires_grad=True), pts)

    def test_ties_are_deterministic_and_keep_the_value(self):
        # Lattice points, duplicated, against cell centres: every centre has
        # eight equidistant neighbours, and exact copies tie with their twins.
        grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        b = np.concatenate([grid, grid[::3]])
        a = np.concatenate([grid[:-1] + 0.5, grid[::7]])
        first, again = chamfer_loss(a, b).item(), chamfer_loss(a, b).item()
        assert first == again == product_form_chamfer(a, b)
        assert np.array_equal(nearest_neighbors(a, b)[1], nearest_neighbors(a, b)[1])
        grads = []
        for _ in range(2):
            t = Tape()
            ta = t.leaf(a, requires_grad=True)
            chamfer_loss(ta, b).backward()
            grads.append(ta.grad)
        assert np.array_equal(grads[0], grads[1])


class TestLaplacian:
    def test_unchanged_vertices_zero(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        t = Tape()
        v = t.leaf(mesh.vertices)
        assert laplacian_loss(v, t.leaf(mesh.vertices.copy()), mesh.edges).item() == 0.0

    def test_translation_invariance(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)), 1)
        t = Tape()
        before = t.leaf(mesh.vertices)
        after = t.leaf(mesh.vertices + np.array([3.0, -1.0, 0.25]))
        assert laplacian_loss(before, after, mesh.edges).item() < 1e-22

    def test_path_graph_hand_value(self):
        # p at the origin with neighbors (+-1, 0, 0); moving p to (0, 1, 0)
        # changes delta by (0,1,0) at p and by (0,-1,0) at each neighbor,
        # so the loss is 1 + 1 + 1 = 3.
        edges = np.array([[0, 1], [0, 2]])
        before = np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0]], dtype=float)
        after = before.copy()
        after[0] = (0, 1, 0)
        t = Tape()
        loss = laplacian_loss(t.leaf(before), t.leaf(after), edges)
        assert loss.item() == pytest.approx(3.0)

    def test_isolated_vertex_excluded(self):
        edges = np.array([[0, 1]])
        before = np.array([[0, 0, 0], [1, 0, 0], [5, 5, 5]], dtype=float)
        after = before.copy()
        after[2] = (9, 9, 9)  # isolated vertex moves; must not contribute
        t = Tape()
        assert laplacian_loss(t.leaf(before), t.leaf(after), edges).item() == 0.0

    def test_topology_mismatch_raises(self):
        edges = np.array([[0, 1], [1, 2]])
        t = Tape()
        with pytest.raises(DimensionError):
            laplacian_loss(t.leaf(np.zeros((3, 3))), t.leaf(np.zeros((4, 3))), edges)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        before = np.array(mesh.vertices)
        after = before + 0.1 * rng.normal(size=before.shape)
        report = gradcheck(
            lambda ts: laplacian_loss(ts[0], ts[1], mesh.edges),
            [before, after], tol=1e-5)
        assert report.passed, str(report)

    def test_sparse_operator_matches_dense_formula(self):
        # (I - mean) with isolated rows zeroed, as a dense matrix, on a mesh
        # with two isolated vertices that move
        cube = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)), 1)
        n = cube.n_vertices + 2
        rng = np.random.default_rng(18)
        before = rng.normal(size=(n, 3))
        after = before + 0.3 * rng.normal(size=(n, 3))
        mean = np.zeros((n, n))
        for a, b in cube.edges:
            mean[a, b] = mean[b, a] = 1.0
        degree = mean.sum(axis=1, keepdims=True)
        mean = np.divide(mean, degree, out=np.zeros_like(mean), where=degree > 0)
        lap = np.eye(n) - mean
        lap[mean.sum(axis=1) == 0.0] = 0.0
        delta = lap @ after - lap @ before
        t = Tape()
        b, a = t.leaf(before, requires_grad=True), t.leaf(after, requires_grad=True)
        loss = laplacian_loss(b, a, cube.edges)
        loss.backward()
        assert abs(loss.item() - (delta ** 2).sum()) <= 1e-12 * (delta ** 2).sum()
        expected = 2.0 * lap.T @ delta
        assert np.abs(a.grad - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(b.grad + expected).max() <= 1e-12 * np.abs(expected).max()
        assert not a.grad[-2:].any() and not b.grad[-2:].any()

    def test_gradient_with_isolated_vertices(self):
        rng = np.random.default_rng(19)
        edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])  # vertex 4 is isolated
        before = rng.normal(size=(5, 3))
        after = before + 0.2 * rng.normal(size=(5, 3))
        report = gradcheck(lambda ts: laplacian_loss(ts[0], ts[1], edges),
                           [before, after], tol=1e-6)
        assert report.passed, str(report)


class TestEdgeLoss:
    def test_single_edge_counted_twice(self):
        t = Tape()
        v = t.leaf(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        assert edge_loss(v, np.array([[0, 1]])).item() == pytest.approx(2.0)

    def test_coincident_vertices_zero(self):
        t = Tape()
        v = t.leaf(np.zeros((4, 3)))
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        assert edge_loss(v, edges).item() == 0.0

    def test_quadratic_scaling(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        t = Tape()
        base = edge_loss(t.leaf(mesh.vertices), mesh.edges).item()
        scaled = edge_loss(t.leaf(mesh.vertices * 3.0), mesh.edges).item()
        assert scaled == pytest.approx(9.0 * base)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        report = gradcheck(
            lambda ts: edge_loss(ts[0], mesh.edges),
            [rng.normal(size=(mesh.n_vertices, 3))], tol=1e-5)
        assert report.passed, str(report)

    def test_incidence_matches_gather_formula(self):
        # The incidence-matrix loss against the endpoint gathers it replaced.
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)), 2)
        vertices = mesh.vertices + 0.05 * np.random.default_rng(18).normal(
            size=mesh.vertices.shape)
        i, j = mesh.edges.T
        diff = vertices[i] - vertices[j]
        expected_grad = np.zeros_like(vertices)
        np.add.at(expected_grad, i, 4.0 * diff)
        np.add.at(expected_grad, j, -4.0 * diff)
        t = Tape()
        v = t.leaf(vertices, requires_grad=True)
        loss = edge_loss(v, mesh.edges)
        loss.backward()
        assert loss.item() == 2.0 * (diff * diff).sum()
        assert np.abs(v.grad - expected_grad).max() <= 1e-12 * np.abs(expected_grad).max()
        empty = edge_loss(v, np.zeros((0, 2), dtype=np.int64))
        assert empty.item() == 0.0


class TestTotalLoss:
    def _block(self, tape, mesh, after=None):
        v_in = tape.leaf(mesh.vertices)
        v_out = tape.leaf(mesh.vertices if after is None else after,
                          requires_grad=True)
        return BlockOutput(mesh.faces, mesh.edges, v_in, v_out)

    @staticmethod
    def _combine(l_cd, l_lap, l_edge, lambda_lap, lambda_edge):
        """l_all by the rounding order of ``total_loss``."""
        return l_cd + (lambda_lap * l_lap + lambda_edge * l_edge)

    def test_combination_arithmetic(self):
        assert self._combine(1.0, 2.0, 3.0, 0.3, 0.1) == pytest.approx(1.9)

    def test_report_consistency(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        t = Tape()
        blocks = [self._block(t, mesh, mesh.vertices + 0.05)]
        target = sample_surface(mesh.vertices * 1.2, mesh.faces, 50,
                                np.random.default_rng(14))
        loss, report = total_loss(blocks, target, 50, np.random.default_rng(15))
        assert loss.item() == self._combine(
            report.l_cd, report.l_lap, report.l_edge, 0.3, 0.1)
        assert len(report.per_block) == 1

    def test_zero_regularizers_reduce_to_chamfer(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        t = Tape()
        blocks = [self._block(t, mesh)]
        target = sample_surface(mesh.vertices * 1.5, mesh.faces, 40,
                                np.random.default_rng(16))
        loss, report = total_loss(blocks, target, 40, np.random.default_rng(17),
                                  lambda_lap=0.0, lambda_edge=0.0)
        assert loss.item() == pytest.approx(report.l_cd)

    def test_identity_deformation_has_zero_laplacian(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        t = Tape()
        blocks = [self._block(t, mesh)]
        target = sample_surface(mesh.vertices, mesh.faces, 40,
                                np.random.default_rng(18))
        _, report = total_loss(blocks, target, 40, np.random.default_rng(19))
        assert report.l_lap == 0.0

    def test_report_json_round_trip(self):
        report = LossReport(1.0, 2.0, 3.0, [{"block": 1}])
        data = json.loads(json.dumps(asdict(report)))
        assert data == {"l_cd": 1.0, "l_lap": 2.0, "l_edge": 3.0, "per_block": [{"block": 1}]}

    def test_equal_sample_counts_both_sides(self):
        mesh = mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)))
        t = Tape()
        n = 37
        target = sample_surface(mesh.vertices, mesh.faces, n,
                                np.random.default_rng(22))
        batch = sample_surface(t.leaf(mesh.vertices), mesh.faces, n,
                               np.random.default_rng(23))
        assert len(batch.face_indices) == len(target.face_indices) == n
