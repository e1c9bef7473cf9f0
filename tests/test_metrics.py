import json
import threading
import warnings

import numpy as np
import pytest

from stdnet import (DatasetPair, DeformationNetwork, EmptyInputError,
                    NetworkConfig, ObbNode, TriangleMesh, evaluate, f1_score,
                    mesh_cuboid, voxel_iou, write_metrics)
from stdnet.fixtures import icosphere
from stdnet.metrics import chamfer_metric, mesh_occupancy, normalize_to_unit_cube


def cube_mesh(half=0.5, center=(0, 0, 0), subdivisions=0):
    box = ObbNode(np.array(center, dtype=float), np.eye(3), (half, half, half))
    return mesh_cuboid(box, subdivisions)


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

    def test_occupancy_fills_interior(self):
        mesh = cube_mesh(half=0.5)
        res = 16
        origin = np.full(3, -0.505)
        cell = 1.01 / res
        occ = mesh_occupancy(mesh, origin, cell, res)
        assert occ.all()  # the cube spans the whole grid: shell + interior


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
        assert a[0][0].to_dict() == b[0][0].to_dict()
        c = evaluate(net, [pair], seed=43)
        assert c[0][0].chamfer != a[0][0].chamfer

    def test_reports_in_input_order_with_threads(self, monkeypatch):
        monkeypatch.setenv("STDNET_THREADS", "2")
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        pairs = [DatasetPair(f"p{i}", cube, icosphere(1, radius=0.8 + 0.1 * i))
                 for i in range(4)]
        reports, aggregate = evaluate(self._zero_net(), pairs, seed=0)
        assert [r.identifier for r in reports] == ["p0", "p1", "p2", "p3"]
        assert aggregate["pairs"] == 4

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
        monkeypatch.setenv("STDNET_THREADS", "2")
        cube = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))
        sphere = icosphere(1, radius=0.8)
        open_sphere = TriangleMesh(sphere.vertices, sphere.faces[:-1])
        pairs = [DatasetPair("closed", cube, sphere), DatasetPair("open", cube, open_sphere)]
        reports, _ = evaluate(self._zero_net(), pairs, seed=0, resolution=16)
        assert [r.iou_mode for r in reports] == ["volume", "surface"]
        assert off_main == []

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
