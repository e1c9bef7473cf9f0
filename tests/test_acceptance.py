"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The seeded 2000-iteration cube->icosphere run at the defaults is
shared by the convergence criteria through a module-scoped fixture; the hop
ablation trains its own pair of 1000-iteration runs (K=2 and K=0) on a
two-pair dataset whose cubes share a face, in a second module fixture.
"""

import time

import numpy as np
import pytest

import stdnet as sn
from stdnet.losses import barycentric_coefficients, sample_surface
from stdnet.mesh import build_adjacency, format_obj, parse_obj
from stdnet.metrics import chamfer_metric
from stdnet.selfcheck import gradcheck_suite

CONVERGENCE_BUDGET_S = 600.0


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def unit_cube_box():
    return sn.ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5))


@pytest.fixture(scope="module")
def trained():
    """Seeded default-configuration run on cube->icosphere (K=2)."""
    pairs = sn.make_fixtures("cube-to-sphere", seed=0)
    cfg = sn.TrainConfig(seed=0)  # 2000 iterations, defaults
    net = sn.DeformationNetwork(cfg.network_config())
    start = time.time()
    result = sn.train(net, pairs, cfg)
    return {"net": net, "config": cfg, "result": result, "pairs": pairs,
            "wall": time.time() - start}


def shared_face_pairs():
    """Two cube->icosphere pairs, the second shifted by (1, 0, 0).

    The cubes meet at the plane x = 0.5 and triangulate that face along the
    same diagonal, so after two unpoolings 25 of each pair's 98 vertices start
    at the same positions, while the two targets pull them in opposite x
    directions.
    """
    pairs = []
    for i, shift in enumerate((np.zeros(3), np.array([1.0, 0.0, 0.0]))):
        sphere = sn.icosphere(3, radius=1.0)
        pairs.append(sn.DatasetPair(
            f"shared_face_{i}", sn.ObbNode(shift, np.eye(3), (0.5, 0.5, 0.5)),
            sphere.replace_vertices(sphere.vertices + shift)))
    return pairs


@pytest.fixture(scope="module")
def hop_ablation():
    """Seeded 1000-iteration runs on the shared-face pairs: K=2 and K=0."""
    results = {}
    for hops in (2, 0):
        pairs = shared_face_pairs()
        cfg = sn.TrainConfig(seed=0, hops=hops, iterations=1000)
        net = sn.DeformationNetwork(cfg.network_config())
        results[hops] = {"net": net, "pairs": pairs,
                         "result": sn.train(net, pairs, cfg)}
    return results


class TestCriterion1GradientSuite:
    def test_gradients_match_central_differences(self):
        start = time.time()
        reports = gradcheck_suite(seed=0, h=1e-5, tol=1e-4)
        elapsed = time.time() - start
        for name, report in reports:
            assert report.passed, f"{name}: {report}"
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        worst = max(r.max_rel_error for _, r in reports)
        _report(1, f"gradient suite, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2Sampling:
    def test_barycentric_identity_to_1e12(self):
        mesh = sn.mesh_cuboid(unit_cube_box(), 1)
        batch = sample_surface(mesh.vertices, mesh.faces, 2000,
                               np.random.default_rng(0))
        c1, c2, c3 = barycentric_coefficients(batch.u, batch.w)
        tri = mesh.faces[batch.face_indices]
        expected = (c1[:, None] * mesh.vertices[tri[:, 0]]
                    + c2[:, None] * mesh.vertices[tri[:, 1]]
                    + c3[:, None] * mesh.vertices[tri[:, 2]])
        residual = np.abs(batch.points - expected).max()
        assert residual < 1e-12

    def test_face_frequency_one_to_three(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-3, 0, 0],
                          [0, -1, 0]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 3, 4]])  # areas 0.5 and 1.5
        batch = sample_surface(verts, faces, 100_000, np.random.default_rng(1))
        frac = (batch.face_indices == 1).mean()
        assert abs(frac - 0.75) < 0.05 * 0.75

    def test_triangle_mean_near_centroid(self):
        verts = np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        faces = np.array([[0, 1, 2]])
        batch = sample_surface(verts, faces, 50_000, np.random.default_rng(2))
        centroid = verts.mean(axis=0)
        diameter = np.sqrt(5.0)
        err = np.linalg.norm(batch.points.mean(axis=0) - centroid)
        assert err < 0.01 * diameter
        _report(2, "area-uniform sampling: barycentric identity, 1:3 "
                   "face frequency, centroid mean")


class TestCriterion3TopologyLaws:
    def test_unpool_counting_laws(self):
        mesh = sn.mesh_cuboid(unit_cube_box())
        counts = [mesh.n_vertices]
        for _ in range(2):
            v, e, f = mesh.n_vertices, mesh.n_edges, mesh.n_faces
            mesh = sn.midpoint_subdivide(mesh)
            assert mesh.n_vertices == v + e
            assert mesh.n_faces == 4 * f
            assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2
            counts.append(mesh.n_vertices)
        assert counts == [8, 26, 98]

    def test_network_accepts_differing_topologies(self):
        net = sn.DeformationNetwork(sn.NetworkConfig(channels=8,
                                                     layers_per_block=2, seed=0))
        cube_meshes = sn.network_forward(net, sn.mesh_cuboid(unit_cube_box()))
        assert [m.n_vertices for m in cube_meshes] == [8, 26, 98]
        (chair,) = sn.make_fixtures("two-box-chair", seed=0)
        for part in chair.source_meshes():
            outs = sn.network_forward(net, part)
            assert len(outs) == 3
            assert all(np.isfinite(m.vertices).all() for m in outs)
        _report(3, "unpool laws V'=V+E, F'=4F, Euler 2; single box and "
                   "two-box chair without reconfiguration")


class TestCriterion4Equivariance:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        mesh = sn.mesh_cuboid(unit_cube_box())
        adj = build_adjacency(mesh, 2)
        layer = sn.TagcnLayer(3, 8, hops=2, rng=rng)
        x = rng.normal(size=(mesh.n_vertices, 3))
        perm = rng.permutation(mesh.n_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_vertices)
        pmesh = sn.TriangleMesh(mesh.vertices[perm], inv[mesh.faces])
        padj = build_adjacency(pmesh, 2)
        xt, pxt = sn.Tape().leaf(x), sn.Tape().leaf(x[perm])
        out = layer.apply(xt, adj, layer.bind(xt.tape)).value
        pout = layer.apply(pxt, padj, layer.bind(pxt.tape)).value
        assert np.abs(pout - out[perm]).max() <= 1e-12

    def test_zero_weight_network_is_identity(self):
        net = sn.DeformationNetwork(sn.NetworkConfig(seed=5))
        for p in net.parameters().values():
            p[...] = 0.0
        cube = sn.mesh_cuboid(unit_cube_box())
        meshes = sn.network_forward(net, cube)
        expected = cube
        for mesh in meshes:
            assert mesh.vertices.tobytes() == expected.vertices.tobytes()
            expected = sn.midpoint_subdivide(expected)
        _report(4, "permutation equivariance to 1e-12; zero network is the "
                   "bit-exact identity deformation")


class TestCriterion5Convergence:
    def test_chamfer_drops_below_ten_percent(self, trained):
        initial = trained["result"].initial_val_chamfer
        final = trained["result"].best_val_chamfer  # best-by-validation model
        ratio = final / initial
        assert ratio < 0.10, f"chamfer ratio {ratio:.3f} after 2000 iterations"
        assert trained["wall"] < CONVERGENCE_BUDGET_S

        # sanity: the iteration-0 value matches an independent chamfer of the
        # untrained (identity) prediction computed through the metrics module
        (pair,) = trained["pairs"]
        (source,) = pair.source_meshes()
        identity = sn.midpoint_subdivide(sn.midpoint_subdivide(source))
        rng = np.random.default_rng(9)
        cd0 = chamfer_metric(
            sample_surface(identity.vertices, identity.faces, 1000, rng).points,
            sample_surface(pair.target.vertices, pair.target.faces, 1000,
                           rng).points)
        assert cd0 == pytest.approx(initial, rel=0.25)
        _report(5, f"cube->icosphere at defaults: sampled chamfer ratio "
                   f"{ratio:.3f} after 2000 iterations ({trained['wall']:.0f}s wall)")

    def test_trained_model_improves_voxel_iou(self, trained):
        (pair,) = trained["pairs"]
        (source,) = pair.source_meshes()
        identity = sn.midpoint_subdivide(sn.midpoint_subdivide(source))
        predicted = sn.network_forward(trained["net"], source)[-1]
        before = sn.voxel_iou(identity, pair.target, 32)
        after = sn.voxel_iou(predicted, pair.target, 32)
        assert after > before


class TestCriterion6AblationDirection:
    def test_no_aggregation_is_strictly_worse(self, hop_ablation):
        # The shared-face vertices have the same inputs in both pairs at every
        # block, so a per-vertex network (K = 0) must move them to the same
        # place although the two targets need opposite x displacements. With
        # K = 2 the vertices see their own cube's neighbors and can separate.
        pairs = hop_ablation[0]["pairs"]
        sources = [pair.source_meshes()[0] for pair in pairs]
        stage3 = [sn.midpoint_subdivide(sn.midpoint_subdivide(s)).vertices
                  for s in sources]
        index = {v.tobytes(): j for j, v in enumerate(stage3[1])}
        shared = np.array([(i, index[v.tobytes()])
                           for i, v in enumerate(stage3[0])
                           if v.tobytes() in index])
        assert len(shared) == 25, "the two cubes no longer share a 5x5 face"
        # Premise: the trained K = 0 net cannot tell the shared vertices apart.
        # Identical rows may still round apart in their last bit, because BLAS
        # kernels round a row of a matrix product according to its position.
        finals = [sn.network_forward(hop_ablation[0]["net"], s)[-1].vertices
                  for s in sources]
        gap = np.abs(finals[0][shared[:, 0]] - finals[1][shared[:, 1]]).max()
        assert gap <= 1e-12, f"K=0 separates the shared face by {gap:.3e}"

        with_hops = hop_ablation[2]["result"].best_val_chamfer
        without = hop_ablation[0]["result"].best_val_chamfer
        assert without > with_hops, (
            f"K=0 chamfer {without:.3f} should exceed K=2 {with_hops:.3f}")
        _report(6, f"hop ablation on two face-sharing pairs: K=0 chamfer "
                   f"{without:.3f} > K=2 chamfer {with_hops:.3f} "
                   f"(direction only; K=0 shared-face gap {gap:.1e})")


class TestCriterion7MetricOracles:
    def test_f1_oracles(self):
        pts = np.random.default_rng(4).normal(size=(300, 3))
        f1_same, _, _ = sn.f1_score(pts, pts.copy(), 1e-4)
        assert f1_same == 100.0
        f1_off, _, _ = sn.f1_score(pts + np.array([1.0, 0, 0]), pts, 1e-4)
        assert f1_off == 0.0

    def test_f1_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        pred, gt = rng.normal(size=(200, 3)), rng.normal(size=(200, 3))
        values = [sn.f1_score(pred, gt, d)[0]
                  for d in np.geomspace(1e-5, 10.0, 12)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_voxel_iou_oracles(self):
        cube = sn.mesh_cuboid(unit_cube_box())
        assert sn.voxel_iou(cube, cube, 32) == 100.0
        half = sn.mesh_cuboid(sn.ObbNode(np.zeros(3), np.eye(3),
                                         (0.25, 0.25, 0.25)))
        iou = sn.voxel_iou(cube, half, 64)
        assert abs(iou - 12.5) <= 1.5
        _report(7, f"metric oracles: F1 identity/offset, IoU identity 100, "
                   f"half cube {iou:.2f}")


class TestCriterion8Serialization:
    def test_checkpoint_round_trip_bit_identical(self, tmp_path):
        net = sn.DeformationNetwork(sn.NetworkConfig(channels=12,
                                                     layers_per_block=3, seed=7))
        rng = np.random.default_rng(8)
        for p in net.parameters().values():
            p[...] = rng.normal(size=p.shape)
        path = tmp_path / "model.stdn"
        sn.save_checkpoint(path, net)
        loaded = sn.load_checkpoint(path)
        cube = sn.mesh_cuboid(unit_cube_box())
        for a, b in zip(sn.network_forward(net, cube),
                        sn.network_forward(loaded, cube)):
            assert a.vertices.tobytes() == b.vertices.tobytes()

    def test_obj_round_trip_exact_at_nine_digits(self, tmp_path):
        rng = np.random.default_rng(9)
        mesh = sn.TriangleMesh(rng.normal(size=(30, 3)) * 37.5,
                               [[i, i + 1, i + 2] for i in range(28)])
        text = format_obj(mesh)
        reread = parse_obj(text)
        assert format_obj(reread) == text
        assert np.array_equal(reread.faces, mesh.faces)
        _report(8, "checkpoint and OBJ round trips are exact")
