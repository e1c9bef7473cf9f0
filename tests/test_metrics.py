import builtins
import json
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from stdnet import (FIXTURE_KINDS, DatasetPair, DeformationNetwork,
                    EmptyInputError, NetworkConfig, NumericalError, ObbNode,
                    TriangleMesh, evaluate, f1_score, make_fixtures, mesh_cuboid,
                    network_forward, voxel_iou, write_metrics)
from stdnet import metrics
from stdnet.fixtures import icosphere
from stdnet.losses import kdtree, nearest_neighbors
from stdnet.metrics import (MAX_RESOLUTION, chamfer_metric, mesh_occupancy,
                            normalize_to_unit_cube, surface_voxels)


def cube_mesh(half=0.5, center=(0, 0, 0), subdivisions=0):
    box = ObbNode(np.array(center, dtype=float), np.eye(3), (half, half, half))
    return mesh_cuboid(box, subdivisions)


def reference_surface_voxels(mesh, origin, cell, resolution):
    """The per-face separating-axis loop that ``surface_voxels`` replaced."""
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
        v0, v1, v2 = tri
        p0, p1, p2 = v0 - centers, v1 - centers, v2 - centers
        ok = np.ones(len(centers), dtype=bool)
        for axis in range(3):
            lo_p = np.minimum(np.minimum(p0[:, axis], p1[:, axis]), p2[:, axis])
            hi_p = np.maximum(np.maximum(p0[:, axis], p1[:, axis]), p2[:, axis])
            ok &= (lo_p <= half) & (hi_p >= -half)
        e0, e1, e2 = v1 - v0, v2 - v1, v0 - v2
        normal = np.cross(e0, e1)
        ok &= np.abs((p0 * normal).sum(axis=1)) <= half * np.abs(normal).sum()
        for e in (e0, e1, e2):
            for unit in np.eye(3):
                axis = np.cross(e, unit)
                if not axis.any():
                    continue
                r = half * np.abs(axis).sum()
                q0, q1, q2 = p0 @ axis, p1 @ axis, p2 @ axis
                ok &= ((np.minimum(np.minimum(q0, q1), q2) <= r)
                       & (np.maximum(np.maximum(q0, q1), q2) >= -r))
        grid[cx.ravel()[ok], cy.ravel()[ok], cz.ravel()[ok]] = True
    return grid


def joint_grid(*meshes, resolution=32):
    """The origin and cell size ``voxel_iou`` puts over these meshes."""
    joint = np.concatenate([m.vertices for m in meshes])
    lo, hi = joint.min(axis=0), joint.max(axis=0)
    side = float((hi - lo).max()) * 1.01
    return (lo + hi) / 2.0 - side / 2.0, side / resolution


def random_mesh(seed, n_vertices=40, n_faces=80):
    rng = np.random.default_rng(seed)
    faces = np.array([rng.choice(n_vertices, 3, replace=False) for _ in range(n_faces)])
    return TriangleMesh(rng.uniform(-1.0, 1.0, (n_vertices, 3)), faces)


def dense_nearest_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=2).min(axis=1)


class TestF1:
    def test_identical_sets_are_100(self):
        pts = np.random.default_rng(0).normal(size=(200, 3))
        f1, precision, recall = f1_score(pts, pts.copy(), 1e-4)
        assert (f1, precision, recall) == (100.0, 100.0, 100.0)

    def test_unit_offset_is_0(self):
        pts = np.random.default_rng(1).normal(size=(100, 3))
        f1, precision, recall = f1_score(pts + np.array([1.0, 0, 0]), pts, 1e-4)
        assert (f1, precision, recall) == (0.0, 0.0, 0.0)

    def test_harmonic_mean(self):
        pred = np.array([[0.0, 0, 0], [5.0, 0, 0]])       # one of two matches
        gt = np.array([[0.0, 0, 0], [0.001, 0, 0]])       # both match
        f1, precision, recall = f1_score(pred, gt, 1e-4)
        assert precision == 50.0 and recall == 100.0
        assert f1 == pytest.approx(2 * 50 * 100 / 150)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        pred, gt = rng.normal(size=(150, 3)), rng.normal(size=(150, 3))
        values = [f1_score(pred, gt, d)[0]
                  for d in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            f1_score(np.zeros((0, 3)), np.zeros((4, 3)), 1e-4)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            f1_score(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(5).normal(size=(20, 3))
        broken = pts.copy()
        broken[3, 1] = bad
        with pytest.raises(NumericalError):
            f1_score(broken, pts, 1e-2)
        with pytest.raises(NumericalError):
            f1_score(pts, broken, 1e-2)

    def test_nearest_distances_match_dense_reference(self):
        rng = np.random.default_rng(6)
        a, b = rng.uniform(size=(300, 3)), rng.uniform(size=(250, 3))
        b = np.concatenate([b, b[:40], a[:10]])  # duplicates, and exact matches
        got = nearest_neighbors(a, b)[0]
        assert np.array_equal(got, dense_nearest_sq_dists(a, b))
        assert (got[:10] == 0.0).all()

    def test_threshold_equal_to_a_sample_distance_counts(self):
        rng = np.random.default_rng(7)
        pred, gt = rng.uniform(size=(200, 3)), rng.uniform(size=(180, 3))
        to_gt, to_pred = dense_nearest_sq_dists(pred, gt), dense_nearest_sq_dists(gt, pred)
        for threshold in (np.sort(to_gt)[100], np.sort(to_pred)[37]):
            precision = 100.0 * (to_gt <= threshold).mean()
            recall = 100.0 * (to_pred <= threshold).mean()
            f1 = 2.0 * precision * recall / (precision + recall)
            assert f1_score(pred, gt, threshold) == (f1, precision, recall)


class TestVoxelIou:
    def test_identity_is_100(self):
        mesh = cube_mesh()
        assert voxel_iou(mesh, mesh, 32) == 100.0

    def test_disjoint_cubes_are_0(self):
        a = cube_mesh(center=(0, 0, 0))
        b = cube_mesh(center=(10, 0, 0))
        assert voxel_iou(a, b, 64) == 0.0

    def test_half_scaled_cube_volume_ratio(self):
        big = cube_mesh(half=0.5)
        small = cube_mesh(half=0.25)
        iou = voxel_iou(big, small, 64)
        assert abs(iou - 12.5) <= 1.5  # volume ratio 1/8, voxelization error

    def test_symmetry(self):
        a = cube_mesh(half=0.5)
        b = icosphere(2, radius=0.6)
        assert voxel_iou(a, b, 32) == voxel_iou(b, a, 32)

    def test_rigid_invariance_within_tolerance(self):
        rng = np.random.default_rng(3)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        shift = np.array([0.3, -1.2, 2.0])
        a, b = cube_mesh(half=0.5), cube_mesh(half=0.35, center=(0.1, 0, 0))
        base = voxel_iou(a, b, 32)
        moved = voxel_iou(a.replace_vertices(a.vertices @ q.T + shift),
                          b.replace_vertices(b.vertices @ q.T + shift), 32)
        assert abs(base - moved) < 12.0  # within a resolution cell of drift

    def test_non_watertight_warns_and_falls_back(self):
        open_mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.warns(UserWarning, match="watertight"):
            iou = voxel_iou(open_mesh, open_mesh, 16)
        assert iou == 100.0

    def test_resolution_floor(self):
        mesh = cube_mesh()
        with pytest.raises(ValueError):
            voxel_iou(mesh, mesh, 4)

    def test_resolution_ceiling_keeps_the_labels_addressable(self):
        # ndimage.label's int32 grid takes 4 r^3 bytes
        assert 4 * MAX_RESOLUTION ** 3 <= np.iinfo(np.intp).max < 4 * (MAX_RESOLUTION + 1) ** 3
        mesh = cube_mesh()
        with pytest.raises(ValueError, match=str(MAX_RESOLUTION)):
            voxel_iou(mesh, mesh, MAX_RESOLUTION + 1)

    def test_non_finite_vertex_rejected(self):
        good = cube_mesh()
        vertices = good.vertices.copy()
        vertices[2, 0] = np.nan
        bad = good.replace_vertices(vertices)
        with pytest.raises(NumericalError):
            voxel_iou(good, bad, 16)
        with pytest.raises(NumericalError):
            metrics._grid_iou(bad, good, 16)

    def test_occupancy_fills_interior(self):
        mesh = cube_mesh(half=0.5)
        res = 16
        origin = np.full(3, -0.505)
        cell = 1.01 / res
        occ = mesh_occupancy(mesh, origin, cell, res)
        assert occ.all()  # the cube spans the whole grid: shell + interior


class TestSurfaceVoxels:
    """The chunked separating-axis test against the per-face loop it replaced."""

    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_fixtures_and_predictions_match_loop(self, kind):
        net = DeformationNetwork(NetworkConfig(channels=6, layers_per_block=2, seed=1))
        rng = np.random.default_rng(2)
        for block in net.blocks:  # non-zero displacements, so vertices move
            for w in block.coord.weights:
                w[...] = rng.normal(0.0, 1e-2, w.shape)
        (pair,) = make_fixtures(kind, seed=0)[:1]
        for subdivisions in (0, 1):
            pair.source_subdivisions = subdivisions
            source = pair.source_meshes()
            pred = network_forward(net, *source)[-1]
            meshes = [*source, pred] + ([pair.target] if subdivisions == 0 else [])
            origin, cell = joint_grid(pred, pair.target)
            for mesh in meshes:
                expected = reference_surface_voxels(mesh, origin, cell, 32)
                assert np.array_equal(surface_voxels(mesh, origin, cell, 32), expected)

    @pytest.mark.parametrize("resolution", [16, 32])
    def test_random_meshes_match_loop(self, resolution):
        for seed in range(3):
            mesh = random_mesh(seed)
            origin, cell = joint_grid(mesh, resolution=resolution)
            assert np.array_equal(surface_voxels(mesh, origin, cell, resolution),
                                  reference_surface_voxels(mesh, origin, cell, resolution))

    def test_faces_outside_the_grid_are_clipped_like_loop(self):
        mesh = random_mesh(3)
        origin, cell = np.array([-0.4, -0.6, -0.3]), 0.05   # covers a corner only
        grid = surface_voxels(mesh, origin, cell, 16)
        assert grid.any() and not grid.all()
        assert np.array_equal(grid, reference_surface_voxels(mesh, origin, cell, 16))

    def test_axis_aligned_cube_with_zero_cross_axes_matches_loop(self):
        mesh = cube_mesh(subdivisions=1)
        for resolution in (16, 40):
            origin, cell = joint_grid(mesh, resolution=resolution)
            assert np.array_equal(surface_voxels(mesh, origin, cell, resolution),
                                  reference_surface_voxels(mesh, origin, cell, resolution))

    def test_exact_ties_independent_of_face_order_and_chunking(self, monkeypatch):
        # Corners on cell corners: edges run along cell edges and faces along
        # cell faces, so many separating-axis margins are exactly zero.
        mesh = TriangleMesh([[1, 1, 1], [6, 1, 1], [1, 6, 1], [1, 1, 6], [6, 6, 6]],
                            [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 4], [1, 4, 3]])
        origin, cell = np.zeros(3), 1.0
        grid = surface_voxels(mesh, origin, cell, 8)
        assert grid.any()
        order = np.random.default_rng(8).permutation(mesh.n_faces)
        shuffled = TriangleMesh(mesh.vertices, mesh.faces[order])
        assert np.array_equal(surface_voxels(shuffled, origin, cell, 8), grid)
        for chunk_rows in (1, 7):
            monkeypatch.setattr(metrics, "SAT_CHUNK_ROWS", chunk_rows)
            assert np.array_equal(surface_voxels(mesh, origin, cell, 8), grid)
            assert np.array_equal(surface_voxels(shuffled, origin, cell, 8), grid)

    def test_memory_bounded_on_faces_spanning_the_grid(self):
        # The per-face loop peaked at 342 MiB here.
        mesh = TriangleMesh([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]], [[0, 1, 2], [1, 2, 3]])
        origin, cell = np.full(3, -0.005), 1.01 / 128
        tracemalloc.start()
        try:
            grid = surface_voxels(mesh, origin, cell, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.sum() > 128 * 128
        assert peak < 64 * 2 ** 20


class TestChamferMetric:
    def test_matches_loss_implementation(self):
        from stdnet import Tape, chamfer_loss
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(50, 3)), rng.normal(size=(40, 3))
        t = Tape()
        assert chamfer_metric(a, b) == chamfer_loss(t.leaf(a), t.leaf(b)).item()


class TestNormalize:
    def test_joint_unit_cube(self):
        a = cube_mesh(half=2.0, center=(5, 5, 5))
        b = cube_mesh(half=1.0, center=(-3, 0, 0))
        na, nb = normalize_to_unit_cube([a, b])
        joint = np.concatenate([na.vertices, nb.vertices])
        assert joint.min() >= 0.0 and joint.max() <= 1.0
        assert np.isclose(joint.max() - joint.min(), 1.0)
        # relative geometry preserved: scale ratio between meshes unchanged
        assert np.isclose(
            (na.vertices.max(0) - na.vertices.min(0))[0]
            / (nb.vertices.max(0) - nb.vertices.min(0))[0], 2.0)


class TestEvaluate:
    def _zero_net(self):
        net = DeformationNetwork(NetworkConfig(channels=6, layers_per_block=2, seed=0))
        for p in net.parameters().values():
            p[...] = 0.0
        return net

    def test_identity_on_identical_geometry(self):
        # untrained zero network deforming a cube onto itself: every sampled
        # point lies on the shared surface, so F1 at a loose threshold is 100
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        pair = DatasetPair("cube_to_cube", cube, mesh_cuboid(cube, 2))
        reports, aggregate = evaluate(self._zero_net(), [pair], seed=0,
                                      threshold=1e-2)
        assert reports[0].f1 == 100.0
        assert reports[0].iou == 100.0
        assert aggregate["pairs"] == 1

    def test_deterministic_across_calls(self):
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        pair = DatasetPair("p", cube, icosphere(2, radius=0.9))
        net = self._zero_net()
        a = evaluate(net, [pair], seed=42)
        b = evaluate(net, [pair], seed=42)
        assert asdict(a[0][0]) == asdict(b[0][0])
        c = evaluate(net, [pair], seed=43)
        assert c[0][0].chamfer != a[0][0].chamfer

    def test_reports_in_input_order_with_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        pairs = [DatasetPair(f"p{i}", cube, icosphere(1, radius=0.8 + 0.1 * i))
                 for i in range(4)]
        reports, aggregate = evaluate(self._zero_net(), pairs, seed=0)
        assert [r.identifier for r in reports] == ["p0", "p1", "p2", "p3"]
        assert aggregate["pairs"] == 4

    @pytest.mark.parametrize("affinity, cpu_count, workers", [
        ({0, 1, 2}, 8, 3),      # the affinity mask, not the machine's CPU count
        (None, 5, 5),           # a platform without sched_getaffinity
    ])
    def test_pool_has_one_worker_per_usable_cpu(self, monkeypatch, affinity, cpu_count,
                                                workers):
        sizes = []
        real_pool = metrics.ThreadPoolExecutor

        def pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers)

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(metrics, "ThreadPoolExecutor", pool)
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        evaluate(self._zero_net(), [DatasetPair("p", cube, icosphere(1))], resolution=8)
        assert sizes == [workers]

    def test_workers_leave_warning_filters_alone(self, monkeypatch):
        # The warnings filters are process-global; a worker thread that
        # changes them races every other thread in the process.
        off_main = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"):
            monkeypatch.setattr(warnings, name, spy(getattr(warnings, name)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        sphere = icosphere(1, radius=0.8)
        open_sphere = TriangleMesh(sphere.vertices, sphere.faces[:-1])
        pairs = [DatasetPair("closed", cube, sphere), DatasetPair("open", cube, open_sphere)]
        reports, _ = evaluate(self._zero_net(), pairs, seed=0, resolution=16)
        assert [r.iou_mode for r in reports] == ["volume", "surface"]
        assert off_main == []

    def test_workers_load_no_module(self, monkeypatch):
        # Loading a module from a worker thread mutates sys.modules under the
        # pool's feet; evaluate loads scipy.spatial before it starts the pool.
        monkeypatch.delitem(sys.modules, "scipy.spatial", raising=False)
        kdtree.cache_clear()
        loaded_off_main = []
        real_import = builtins.__import__

        def spy(name, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                return real_import(name, *args, **kwargs)
            before = set(sys.modules)
            try:
                return real_import(name, *args, **kwargs)
            finally:
                loaded_off_main.extend(sorted(set(sys.modules) - before))

        monkeypatch.setattr(builtins, "__import__", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        pairs = [DatasetPair(f"p{i}", cube, icosphere(1, radius=0.8 + 0.1 * i))
                 for i in range(2)]
        evaluate(self._zero_net(), pairs, seed=0, resolution=16)
        assert "scipy.spatial" in sys.modules
        assert loaded_off_main == []

    def test_jsonl_output(self, tmp_path):
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        pair = DatasetPair("only", cube, mesh_cuboid(cube, 1))
        reports, aggregate = evaluate(self._zero_net(), [pair], seed=1)
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, reports, aggregate)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["identifier"] == "only"
        assert set(first) >= {"chamfer", "f1", "precision", "recall",
                              "threshold", "iou", "resolution", "iou_mode"}
        assert "aggregate" in json.loads(lines[1])

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInputError):
            evaluate(self._zero_net(), [])
