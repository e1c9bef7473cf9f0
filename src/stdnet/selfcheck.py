"""Built-in gradient checks comparing the tape against central differences."""

from __future__ import annotations

import numpy as np

from .autodiff import GradCheckReport, gradcheck, tagcn
from .boxes import ObbNode, mesh_cuboid
from .losses import chamfer_loss, edge_loss, laplacian_loss, sample_surface, total_loss
from .mesh import build_adjacency
from .network import BlockOutput, DeformationNetwork, NetworkConfig, TagcnLayer


def _box_mesh():
    box = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.4, 0.3))
    return mesh_cuboid(box, 0)  # 8 vertices, 12 faces, 18 edges


def gradcheck_suite(seed: int = 0, h: float = 1e-5,
                    tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """Run every built-in gradient check; each entry is (name, report).

    All cases use seeded random inputs on meshes of at most 12 vertices and
    avoid exact nearest-neighbor ties, where the chamfer subgradient is
    one-sided.
    """
    rng = np.random.default_rng(seed)
    mesh = _box_mesh()
    adj = build_adjacency(mesh, hops=2)
    checks = []

    x = rng.normal(size=(3, 1))
    checks.append(("sum_of_squares", gradcheck(
        lambda ts: ts[0].square().sum(), [x], h=h, tol=1e-9)))

    layer = TagcnLayer(3, 5, hops=2, rng=rng, name="check")
    feats = rng.normal(size=(mesh.n_vertices, 3))
    weights = {name: arr for name, arr in layer.parameters()}

    def layer_loss(ts):
        tape = ts[0].tape
        bound = dict(zip(weights, ts))
        x_in = tape.leaf(feats)
        return layer.apply(x_in, adj, bound).square().sum()

    checks.append(("tagcn_layer_weights", gradcheck(layer_loss, weights, h=h, tol=tol)))

    def layer_input_loss(ts):
        bound = layer.bind(ts[0].tape)
        return layer.apply(ts[0], adj, bound).square().sum()

    checks.append(("tagcn_layer_features", gradcheck(
        layer_input_loss, [feats], h=h, tol=tol)))

    # Row normalization is not symmetric, so this case fails if the layer's
    # input gradient applies A where it needs A^T.
    row_adj = build_adjacency(mesh, hops=2, mode="row")
    checks.append(("tagcn_row_layer_features", gradcheck(
        lambda ts: layer.apply(ts[0], row_adj, layer.bind(ts[0].tape)).square().sum(),
        [feats], h=h, tol=tol)))

    # The whole fused layer on the same operator: relu mask and shortcut.
    fused = {"x": feats, **{f"W{k}": rng.normal(size=(3, 4)) for k in range(3)},
             "bias": rng.normal(size=(1, 4)), "skip": rng.normal(size=(mesh.n_vertices, 4))}
    checks.append(("tagcn_relu_skip_row", gradcheck(
        lambda ts: tagcn(ts[0], ts[1:4], ts[4], row_adj.csr, row_adj.csr_t,
                         relu=True, skip=ts[5]).square().sum(),
        fused, h=h, tol=tol)))

    pa = rng.normal(size=(5, 3))
    pb = rng.normal(size=(5, 3))
    checks.append(("chamfer_points", gradcheck(
        lambda ts: chamfer_loss(ts[0], ts[1]), [pa, pb], h=h, tol=tol)))

    before = np.array(mesh.vertices)
    after = before + 0.1 * rng.normal(size=before.shape)
    checks.append(("laplacian_deformation", gradcheck(
        lambda ts: laplacian_loss(ts[0], ts[1], mesh.edges),
        [before, after], h=h, tol=tol)))

    checks.append(("edge_lengths", gradcheck(
        lambda ts: edge_loss(ts[0], mesh.edges), [after], h=h, tol=tol)))

    # Full hybrid loss on a small deformed mesh, fixed draws, vertices free.
    target = sample_surface(before + 0.2, mesh.faces, 24,
                            np.random.default_rng([seed, 8]))

    def hybrid(ts):
        block = BlockOutput(mesh.faces, mesh.edges, ts[0].tape.leaf(before), ts[0])
        loss, _ = total_loss([block], target, 24, np.random.default_rng([seed, 9]),
                             lambda_lap=0.3, lambda_edge=0.1)
        return loss

    checks.append(("hybrid_loss_vertices", gradcheck(hybrid, [after], h=h, tol=tol)))

    # One tiny end-to-end network: loss of the summed block outputs.
    cfg = NetworkConfig(hops=2, channels=6, layers_per_block=3, blocks=2,
                        residual_every=2, seed=seed)
    net = DeformationNetwork(cfg)
    names = list(net.parameters())
    probe = [names[1], names[4], names[-2]]
    base_state = net.state()

    def net_loss(ts):
        tape = ts[0].tape
        bound = {name: tape.leaf(arr) for name, arr in base_state.items()}
        for name, t in zip(probe, ts):
            bound[name] = t
        outs = net.forward(tape, mesh, bound=bound)
        return sum((o.v_out.square().sum() for o in outs[1:]), outs[0].v_out.square().sum())

    checks.append(("network_weights", gradcheck(
        net_loss, {name: base_state[name] for name in probe}, h=h, tol=tol)))
    return checks
