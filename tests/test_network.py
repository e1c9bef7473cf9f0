import tracemalloc

import numpy as np
import pytest

from stdnet import (DeformationNetwork, DimensionError, NetworkConfig, ObbNode,
                    TagcnLayer, Tape, build_adjacency,
                    load_checkpoint, mesh_cuboid, midpoint_subdivide,
                    network_forward, save_checkpoint)
from stdnet.autodiff import sparse_matmul, tagcn
from stdnet.errors import DataFormatError
from stdnet.mesh import AdjacencyOperator, TriangleMesh, midpoint_operator


def unit_cube_mesh(subdivisions=0):
    return mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)), subdivisions)


def triangle_mesh():
    return TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def apply_layer(layer, adj, x):
    """One layer on the tensor ``x``, its weights bound on x's tape."""
    return layer.apply(x, adj, layer.bind(x.tape))


def small_config(**overrides):
    base = dict(hops=2, channels=6, layers_per_block=3, blocks=3,
                residual_every=2, seed=0)
    base.update(overrides)
    return NetworkConfig(**base)


class TestTagcnLayer:
    def test_identity_configuration_returns_input(self):
        layer = TagcnLayer(3, 3, hops=2, relu=False)
        layer.weights[0][...] = np.eye(3)
        mesh = unit_cube_mesh()
        adj = build_adjacency(mesh, 2)
        t = Tape()
        x = t.leaf(mesh.vertices)
        out = apply_layer(layer, adj, x)
        assert np.array_equal(out.value, mesh.vertices)

    def test_isolated_vertex_hand_expansion(self):
        # one vertex with a self loop: every power of the adjacency is 1, so
        # the output is f(x (W0 + W1 + W2))
        layer = TagcnLayer(2, 2, hops=2, use_bias=False, relu=False,
                           rng=np.random.default_rng(1))
        adj = AdjacencyOperator.from_edges(1, np.empty((0, 2), int), hops=2, mode="sym")
        x = np.array([[0.3, -0.7]])
        t = Tape()
        out = apply_layer(layer, adj, t.leaf(x))
        expected = x @ (layer.weights[0] + layer.weights[1] + layer.weights[2])
        assert np.allclose(out.value, expected, atol=1e-14)

    def test_complete_graph_constant_rows_stay_constant(self):
        mesh = triangle_mesh()
        adj = build_adjacency(mesh, 2)
        layer = TagcnLayer(4, 5, hops=2, rng=np.random.default_rng(2))
        x = np.tile(np.array([[0.1, -0.2, 0.3, 0.4]]), (3, 1))
        out = apply_layer(layer, adj, Tape().leaf(x))
        assert np.allclose(out.value, out.value[0], atol=1e-12)

    def test_channel_mismatch_raises(self):
        layer = TagcnLayer(4, 5)
        adj = build_adjacency(triangle_mesh(), 2)
        with pytest.raises(DimensionError):
            apply_layer(layer, adj, Tape().leaf(np.zeros((3, 3))))

    def test_locality_k_hops(self):
        # path of 7 vertices: perturbing one end must not move outputs more
        # than K hops away
        n = 7
        edges = np.array([[i, i + 1] for i in range(n - 1)])
        adj = AdjacencyOperator.from_edges(n, edges, hops=2, mode="sym")
        layer = TagcnLayer(1, 1, hops=2, use_bias=False,
                           rng=np.random.default_rng(3))
        base = np.zeros((n, 1))
        poked = base.copy()
        poked[0, 0] = 1.0
        out_a = apply_layer(layer, adj, Tape().leaf(base)).value
        out_b = apply_layer(layer, adj, Tape().leaf(poked)).value
        changed = np.abs(out_a - out_b).ravel() > 0
        assert changed[:3].any()
        assert not changed[3:].any()

    def test_hops_zero_is_pointwise(self):
        layer = TagcnLayer(3, 3, hops=0, use_bias=False, relu=False,
                           rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(4, 3))
        out = apply_layer(layer, None, Tape().leaf(x))
        assert np.allclose(out.value, x @ layer.weights[0])


def close(actual, expected, rel=1e-12):
    """Max abs difference within rel times the largest reference entry (at least 1)."""
    return np.abs(actual - expected).max() <= rel * max(1.0, np.abs(expected).max())


class TestFusedTagcn:
    """The sparse, matrix-free tagcn op against sum_k A^k X W_k with dense powers."""

    @staticmethod
    def cube_with_isolated_vertex():
        cube = unit_cube_mesh()
        return TriangleMesh(np.vstack([cube.vertices, [[2.0, 2.0, 2.0]]]), cube.faces)

    @staticmethod
    def unfused(x, ws, b, adj, relu, skip):
        """The same layer as separate tape nodes: tagcn, then relu, then the shortcut add."""
        out = tagcn(x, ws, b, adj.csr, adj.csr_t)
        if relu:
            mask = out.value > 0.0
            out = out.tape.record(np.where(mask, out.value, 0.0), (out,),
                                  lambda g: (g * mask,), "relu")
        return out if skip is None else out + skip

    @pytest.mark.parametrize("hops, mode, relu, skip", [
        pytest.param(hops, mode, relu, skip,
                     id="-".join([str(hops), mode] + ["relu"] * relu + ["skip"] * skip))
        for hops in (1, 2, 3) for mode in ("sym", "row", "none")
        for relu in (False, True) for skip in (False, True)])
    def test_matches_dense_reference(self, hops, mode, relu, skip):
        mesh = self.cube_with_isolated_vertex()
        adj = build_adjacency(mesh, hops, mode)
        rng = np.random.default_rng(hops)
        x = rng.normal(size=(mesh.n_vertices, 4))
        ws = [rng.normal(size=(4, 5)) for _ in range(hops + 1)]
        b = rng.normal(size=(1, 5))
        s = rng.normal(size=(mesh.n_vertices, 5)) if skip else np.zeros((mesh.n_vertices, 5))
        powers = [np.eye(mesh.n_vertices)] + [adj.power(k) for k in range(1, hops + 1)]
        pre = sum(p @ x @ w for p, w in zip(powers, ws)) + b
        mask = pre > 0.0 if relu else np.ones(pre.shape, dtype=bool)
        expected = np.where(mask, pre, 0.0) + s
        g = 2.0 * expected  # upstream gradient of sum(out ** 2)
        h = g * mask  # ... and of the pre-activation

        def run(layer):
            t = Tape()
            xt = t.leaf(x, requires_grad=True)
            wt = [t.leaf(w, requires_grad=True) for w in ws]
            bt = t.leaf(b, requires_grad=True)
            st = t.leaf(s, requires_grad=True) if skip else None
            out = layer(xt, wt, bt, st)
            out.square().sum().backward()
            return out.value, [xt.grad, *(w.grad for w in wt), bt.grad,
                               st.grad if skip else g]

        value, grads = run(lambda xt, wt, bt, st: tagcn(
            xt, wt, bt, adj.csr, adj.csr_t, relu=relu, skip=st))
        ref_value, ref_grads = run(lambda xt, wt, bt, st: self.unfused(
            xt, wt, bt, adj, relu, st))
        assert np.array_equal(value, ref_value)
        for grad, ref in zip(grads, ref_grads):
            assert close(grad, ref)

        gx, *gws, gb, gs = grads
        assert close(value, expected)
        assert close(gx, sum(p.T @ h @ w.T for p, w in zip(powers, ws)))
        for p, gw in zip(powers, gws):
            assert close(gw, (p @ x).T @ h)
        assert close(gb, h.sum(axis=0, keepdims=True))
        assert close(gs, g)
        # the isolated vertex only ever sees itself
        row = x[-1] @ (ws[0] + (sum(ws[1:]) if mode != "none" else 0.0)) + b[0]
        row = (np.maximum(row, 0.0) if relu else row) + s[-1]
        assert close(value[-1], row)

    def test_row_mode_needs_the_transpose(self):
        # in row mode A != A^T, so a vjp that used A would be caught above
        adj = build_adjacency(self.cube_with_isolated_vertex(), 2, "row")
        dense = adj.csr.toarray()
        assert np.abs(dense - dense.T).max() > 0.01
        assert np.array_equal(adj.csr_t.toarray(), dense.T)

    def test_no_dense_operator_on_the_tape(self):
        # every recorded value is at most `channels` wide: no V x V operator
        cfg = small_config()
        t = Tape()
        outputs = DeformationNetwork(cfg).forward(t, unit_cube_mesh(1))
        nodes = [n for n in (t.node(i) for i in range(len(t))) if n is not None]
        assert outputs[-1].n_vertices == 386
        assert sum(n.op == "tagcn" for n in nodes) == cfg.blocks * (cfg.layers_per_block + 1)
        # relu and the shortcuts are inside the layer nodes
        assert not [n for n in nodes if n.op in ("relu", "add")]
        assert max(n.shape[1] for n in nodes) == cfg.channels

    def test_forward_holds_one_activation_per_layer(self):
        # 98/386/1538 vertices at 192 channels: the 45 layer outputs and their
        # relu masks take about 52 MB; keeping hop signals or separate relu and
        # shortcut nodes would take about four times that
        net = DeformationNetwork(NetworkConfig())
        mesh = unit_cube_mesh(2)
        tracemalloc.start()
        try:
            outputs = net.forward(Tape(), mesh)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outputs[-1].n_vertices == 1538
        assert held < 80e6

    def test_hops_zero_needs_no_operator(self):
        x = np.random.default_rng(9).normal(size=(4, 3))
        w = np.random.default_rng(10).normal(size=(3, 2))
        t = Tape()
        assert np.array_equal(tagcn(t.leaf(x), [t.leaf(w)]).value, x @ w)
        with pytest.raises(ValueError):
            tagcn(t.leaf(x), [t.leaf(w), t.leaf(w)])

    def test_further_hops_need_the_transpose(self):
        adj = build_adjacency(unit_cube_mesh(), 1, "row")
        t = Tape()
        x, w = t.leaf(np.ones((8, 3))), t.leaf(np.ones((3, 2)))
        with pytest.raises(ValueError, match="transpose"):
            tagcn(x, [w, w], None, adj.csr)


class TestPermutationEquivariance:
    def test_tagcn_commutes_with_permutation(self):
        rng = np.random.default_rng(6)
        mesh = unit_cube_mesh()
        adj = build_adjacency(mesh, 2)
        layer = TagcnLayer(3, 4, hops=2, rng=rng)
        x = rng.normal(size=(mesh.n_vertices, 3))
        perm = rng.permutation(mesh.n_vertices)
        # permuted mesh: relabel vertices, same geometry
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_vertices)
        pmesh = TriangleMesh(mesh.vertices[perm], inv[mesh.faces])
        padj = build_adjacency(pmesh, 2)
        out = apply_layer(layer, adj, Tape().leaf(x)).value
        pout = apply_layer(layer, padj, Tape().leaf(x[perm])).value
        assert np.abs(pout - out[perm]).max() < 1e-12


class TestGraphUnpool:
    """The unpooling map midpoint_operator(V, edges): (V + E) x V."""

    def test_single_triangle(self):
        tri = triangle_mesh()
        op = midpoint_operator(tri.n_vertices, tri.edges)
        assert op.shape == (6, 3)
        assert op.nnz == 3 + 2 * 3

    def test_cube_counts_and_euler(self):
        cube = unit_cube_mesh()
        op = midpoint_operator(cube.n_vertices, cube.edges)
        mesh = midpoint_subdivide(cube)
        assert op.shape == (mesh.n_vertices, cube.n_vertices) == (26, 8)
        assert (mesh.n_vertices, mesh.n_faces) == (26, 48)
        assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2
        assert mesh.is_closed()

    def test_identity_rows(self):
        cube = unit_cube_mesh()
        dense = midpoint_operator(cube.n_vertices, cube.edges).toarray()
        assert np.array_equal(dense[:8], np.eye(8))

    def test_half_rows_in_edge_order(self):
        cube = unit_cube_mesh()
        op = midpoint_operator(cube.n_vertices, cube.edges)
        for r, (i, j) in enumerate(cube.edges):
            row = op[[8 + r]].toarray()[0]
            expected = np.zeros(8)
            expected[[i, j]] = 0.5
            assert np.array_equal(row, expected)

    def test_constant_features_stay_constant(self):
        c = 3.25
        cube = unit_cube_mesh()
        feats = midpoint_operator(cube.n_vertices, cube.edges) @ np.full((8, 3), c)
        assert feats.shape == (26, 3)
        assert (feats == c).all()

    def test_tensor_features_match_array_features(self):
        rng = np.random.default_rng(8)
        cube = unit_cube_mesh()
        op = midpoint_operator(cube.n_vertices, cube.edges)
        feats = rng.normal(size=(8, 5))
        tensor_out = sparse_matmul(op, Tape().leaf(feats, requires_grad=True))
        assert np.array_equal(tensor_out.value, op @ feats)

    def test_features_row_mismatch_rejected(self):
        cube = unit_cube_mesh()
        with pytest.raises(DimensionError):
            sparse_matmul(midpoint_operator(cube.n_vertices, cube.edges),
                          Tape().leaf(np.zeros((5, 3))))


class TestDeformationBlocks:
    def test_zero_network_is_identity(self):
        net = DeformationNetwork(small_config())
        for p in net.parameters().values():
            p[...] = 0.0
        cube = unit_cube_mesh()
        meshes = network_forward(net, cube)
        assert [m.n_vertices for m in meshes] == [8, 26, 98]
        assert np.array_equal(meshes[0].vertices, cube.vertices)
        sub1 = midpoint_subdivide(cube)
        sub2 = midpoint_subdivide(sub1)
        assert np.array_equal(meshes[1].vertices, sub1.vertices)
        assert np.array_equal(meshes[2].vertices, sub2.vertices)

    def test_fresh_network_is_identity_deformation(self):
        # coordinate branches start at zero, so an untrained network does not
        # move any vertex
        net = DeformationNetwork(small_config(seed=123))
        cube = unit_cube_mesh()
        meshes = network_forward(net, cube)
        assert np.array_equal(meshes[0].vertices, cube.vertices)

    def test_forward_shapes_and_finiteness(self):
        net = DeformationNetwork(small_config(seed=1))
        for name, p in net.parameters().items():
            if "coord" in name:
                p[...] = np.random.default_rng(0).normal(size=p.shape) * 0.01
        box = ObbNode(np.zeros(3), np.eye(3), (0.2, 0.5, 0.9))
        outs = net.forward(Tape(), mesh_cuboid(box))
        assert [o.v_out.shape for o in outs] == [(8, 3), (26, 3), (98, 3)]
        for o in outs:
            assert np.isfinite(o.v_out.value).all()

    def test_vertex_counts_independent_of_proportions(self):
        net = DeformationNetwork(small_config())
        for extents in ((0.5, 0.5, 0.5), (0.1, 0.4, 2.0)):
            meshes = network_forward(net, mesh_cuboid(ObbNode(np.zeros(3), np.eye(3), extents)))
            assert [m.n_vertices for m in meshes] == [8, 26, 98]

    def test_accepts_different_topologies_without_reconfiguration(self):
        net = DeformationNetwork(small_config())
        single = network_forward(net, unit_cube_mesh())
        double = network_forward(net, unit_cube_mesh(1))
        assert [m.n_vertices for m in single] == [8, 26, 98]
        assert [m.n_vertices for m in double] == [26, 98, 386]

    def test_residual_connections_affect_output(self):
        cfg_with = small_config(seed=2, layers_per_block=5)
        cfg_without = small_config(seed=2, layers_per_block=5, residual_every=99)
        cube = unit_cube_mesh()

        def final_vertices(cfg):
            net = DeformationNetwork(cfg)
            for name, p in net.parameters().items():
                if "coord" in name:
                    p[...] = np.random.default_rng(0).normal(size=p.shape)
            return net.forward(Tape(), cube)[-1].v_out.value

        assert not np.allclose(final_vertices(cfg_with), final_vertices(cfg_without))

    def test_block_gradient_matches_finite_differences(self):
        from stdnet import gradcheck
        cfg = small_config(channels=4, layers_per_block=2, blocks=1, seed=3)
        net = DeformationNetwork(cfg)
        mesh = triangle_mesh()
        state = net.state()
        names = [n for n in state if "W1" in n][:2]

        def loss(ts):
            tape = ts[0].tape
            bound = {n: tape.leaf(a) for n, a in state.items()}
            for n, tensor in zip(names, ts):
                bound[n] = tensor
            out = net.forward(tape, mesh, bound=bound)
            return out[0].v_out.square().sum()

        report = gradcheck(loss, {n: state[n] for n in names}, tol=1e-5)
        assert report.passed, str(report)


def reference_init(cfg):
    """The Glorot draw written out: per block, per layer, per hop, from one generator."""
    rng = np.random.default_rng(cfg.seed)
    out = {}
    for b in range(1, cfg.blocks + 1):
        for l in range(1, cfg.layers_per_block + 1):
            n_in = cfg.in_channels if b == l == 1 else cfg.channels
            s = np.sqrt(6.0 / ((cfg.hops + 1) * (n_in + cfg.channels)))
            for k in range(cfg.hops + 1):
                out[f"block{b}.layer{l:02d}.W{k}"] = rng.uniform(-s, s, (n_in, cfg.channels))
            if cfg.use_bias:
                out[f"block{b}.layer{l:02d}.bias"] = np.zeros((1, cfg.channels))
        for k in range(cfg.hops + 1):
            out[f"block{b}.coord.W{k}"] = np.zeros((cfg.channels, 3))
        if cfg.use_bias:
            out[f"block{b}.coord.bias"] = np.zeros((1, 3))
    return out


class TestParameterArena:
    @pytest.mark.parametrize("overrides", [
        {"seed": 7, "hops": 0, "in_channels": 4},
        {"seed": 9, "use_bias": False, "channels": 5, "layers_per_block": 2, "blocks": 2}])
    def test_init_matches_reference_draw(self, overrides):
        cfg = small_config(**overrides)
        params = DeformationNetwork(cfg).parameters()
        expected = reference_init(cfg)
        assert list(params) == list(expected)
        for name, arr in params.items():
            assert arr.shape == expected[name].shape, name
            assert arr.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("overrides", [{}, {"hops": 0}, {"use_bias": False}])
    def test_parameters_are_views_of_one_buffer_in_order(self, overrides):
        net = DeformationNetwork(small_config(**overrides))
        arena = net.arena
        assert arena.ndim == 1 and arena.flags.c_contiguous and arena.dtype == np.float64
        offset = 0
        for name, arr in net.parameters().items():
            assert arr.flags.c_contiguous, name
            assert arr.ctypes.data == arena.ctypes.data + 8 * offset, name
            offset += arr.size
        assert offset == arena.size
        arena[-1] = 123.0
        assert list(net.parameters().values())[-1].reshape(-1)[-1] == 123.0


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = small_config(seed=11)
        net = DeformationNetwork(cfg)
        rng = np.random.default_rng(12)
        for p in net.parameters().values():
            p[...] = rng.normal(size=p.shape)
        path = tmp_path / "model.stdn"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for name, p in net.parameters().items():
            assert loaded.parameters()[name].tobytes() == p.tobytes()
        cube = unit_cube_mesh()
        a = network_forward(net, cube)
        b = network_forward(loaded, cube)
        for ma, mb in zip(a, b):
            assert ma.vertices.tobytes() == mb.vertices.tobytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.stdn"
        save_checkpoint(path, DeformationNetwork(small_config()))
        assert path.read_bytes()[:8] == b"STDN0001"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.stdn"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("overrides", [
        {}, {"hops": 0}, {"use_bias": False}, {"blocks": 1, "layers_per_block": 1},
        {"in_channels": 5, "channels": 7, "hops": 3}])
    def test_parameter_count_matches_network(self, overrides):
        cfg = small_config(**overrides)
        sizes = [p.size for p in DeformationNetwork(cfg).parameters().values()]
        assert cfg.parameter_count() == sum(sizes)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.stdn"
        net = DeformationNetwork(small_config())
        save_checkpoint(path, net)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = DeformationNetwork(small_config(seed=4))
        path = tmp_path / "model.stdn"
        save_checkpoint(path, net)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        for name, arr in net.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes()

    def test_non_finite_middle_parameter_is_named(self, tmp_path):
        net = DeformationNetwork(small_config())
        net.parameters()["block2.layer01.W1"][1, 2] = np.nan
        path = tmp_path / "model.stdn"
        save_checkpoint(path, net)
        with pytest.raises(DataFormatError, match=r"block2\.layer01\.W1"):
            load_checkpoint(path)

    def test_state_round_trip(self):
        net = DeformationNetwork(small_config(seed=5))
        arena = net.arena.copy()
        state = net.state()
        net.arena[...] = 0.0
        assert any(a.any() for a in state.values())  # a copy, not the live parameters
        for name, p in net.parameters().items():
            p[...] = state[name]
        assert net.arena.tobytes() == arena.tobytes()
