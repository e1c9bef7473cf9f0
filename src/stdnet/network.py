"""Topology-adaptive graph convolutions and the three-block deformation network.

Each layer computes f(sum_k A^k X W_k + b) with A^0 = I, so its weights are
shared across vertices and the layer runs unchanged on any graph size. Blocks
stack these layers with identity shortcuts, and a final coordinate layer turns
the last activations into per-vertex displacements. Between blocks the mesh is
unpooled: one new vertex per edge midpoint, each face split into four.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tape, Tensor, concat_rows, gather_rows, tagcn
from .errors import DataFormatError, DimensionError, EmptyInputError
from .mesh import (AdjacencyOperator, NORMALIZATION_MODES, TriangleMesh, join_indices,
                   midpoint_subdivide, subdivide_topology, unique_edges)

CHECKPOINT_MAGIC = b"STDN0001"


@dataclass
class NetworkConfig:
    hops: int = 2
    channels: int = 192
    layers_per_block: int = 14
    blocks: int = 3
    normalization: str = "sym"
    residual_every: int = 2
    use_bias: bool = True
    seed: int = 0
    in_channels: int = 3

    def validate(self) -> None:
        if self.hops < 0:
            raise ValueError("hops must be >= 0")
        if self.channels < 1 or self.layers_per_block < 1 or self.blocks < 1:
            raise ValueError("channels, layers_per_block and blocks must be >= 1")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.residual_every < 1:
            raise ValueError("residual_every must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        cfg = cls(**data)
        cfg.validate()
        return cfg


class TagcnLayer:
    """One graph-convolution layer: f(sum_{k=0..K} A^k X W_k + bias).

    W_k have shape (in_channels, out_channels); the k = 0 term uses X
    directly. ``zero_init`` starts all weights (and bias) at zero, used for
    coordinate branches so a fresh network predicts zero displacement.
    """

    def __init__(self, in_channels: int, out_channels: int, hops: int = 2,
                 use_bias: bool = True, activation: str = "relu",
                 rng: np.random.Generator | None = None,
                 zero_init: bool = False, name: str = "layer"):
        if activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.hops = hops
        self.activation = activation
        self.name = name
        if zero_init:
            self.weights = [np.zeros((in_channels, out_channels)) for _ in range(hops + 1)]
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            # Glorot-style bound with the hop branches counted in the fans:
            # the layer output sums hops+1 projections, so the plain
            # sqrt(6/(in+out)) bound compounds to exploding activations over
            # a 14-layer stack.
            s = np.sqrt(6.0 / ((hops + 1) * (in_channels + out_channels)))
            self.weights = [rng.uniform(-s, s, (in_channels, out_channels))
                            for _ in range(hops + 1)]
        self.bias = np.zeros((1, out_channels)) if use_bias else None

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = [(f"{self.name}.W{k}", w) for k, w in enumerate(self.weights)]
        if self.bias is not None:
            out.append((f"{self.name}.bias", self.bias))
        return out

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        return {name: tape.leaf(arr, requires_grad=True) for name, arr in self.parameters()}

    def apply(self, x: Tensor, adj: AdjacencyOperator | None,
              bound: dict[str, Tensor]) -> Tensor:
        if x.shape[1] != self.in_channels:
            raise DimensionError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got feature shape {x.shape}")
        weights = [bound[f"{self.name}.W{k}"] for k in range(self.hops + 1)]
        bias = bound[f"{self.name}.bias"] if self.bias is not None else None
        operators = () if adj is None else (adj.csr, adj.csr_t)
        out = tagcn(x, weights, bias, *operators)
        return out.relu() if self.activation == "relu" else out


def tagcn_forward(layer: TagcnLayer, adj: AdjacencyOperator | None, x: Tensor) -> Tensor:
    """Run a single layer, binding its weights onto the tensor's tape."""
    return layer.apply(x, adj, layer.bind(x.tape))


class DeformationBlock:
    """A stack of graph-convolution layers plus a displacement branch.

    Every ``residual_every``-th layer (starting at layer residual_every + 1)
    adds the activation from ``residual_every`` layers earlier. The coordinate
    branch applies one extra layer (identity activation, zero-initialized) to
    the final activations and adds the result to the current vertex positions.
    """

    def __init__(self, index: int, in_channels: int, cfg: NetworkConfig,
                 rng: np.random.Generator):
        self.index = index
        self.residual_every = cfg.residual_every
        self.layers = []
        for l in range(cfg.layers_per_block):
            self.layers.append(TagcnLayer(
                in_channels if l == 0 else cfg.channels, cfg.channels,
                hops=cfg.hops, use_bias=cfg.use_bias, activation="relu",
                rng=rng, name=f"block{index}.layer{l + 1:02d}"))
        self.coord = TagcnLayer(
            cfg.channels, 3, hops=cfg.hops, use_bias=cfg.use_bias,
            activation="identity", zero_init=True, name=f"block{index}.coord")

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        out.extend(self.coord.parameters())
        return out

    def apply(self, vertices: Tensor, features: Tensor,
              adj: AdjacencyOperator | None,
              bound: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
        acts = [features]
        for i, layer in enumerate(self.layers, start=1):
            out = layer.apply(acts[-1], adj, bound)
            if i > self.residual_every and (i - 1) % self.residual_every == 0:
                out = out + acts[i - self.residual_every]
            acts.append(out)
        displacement = self.coord.apply(acts[-1], adj, bound)
        return vertices + displacement, acts[-1]


@dataclass
class StageTopology:
    """Fixed connectivity of one block's mesh."""

    n_vertices: int
    faces: np.ndarray
    edges: np.ndarray
    adj: AdjacencyOperator | None


@dataclass
class ForwardPlan:
    """Per-block topologies precomputed for one input mesh."""

    stages: list[StageTopology]


@dataclass
class BlockOutput:
    """One block's result: positions before/after, plus its topology."""

    faces: np.ndarray
    edges: np.ndarray
    v_in: Tensor
    v_out: Tensor
    features: Tensor | None = None

    @property
    def n_vertices(self) -> int:
        return self.v_out.shape[0]

    def mesh(self) -> TriangleMesh:
        return TriangleMesh(self.v_out.value.copy(), self.faces)


class DeformationNetwork:
    """Deformation blocks joined by graph unpooling, sharing one weight set.

    The network is topology-adaptive: weights never depend on the vertex
    count, so the same instance deforms meshes of any connectivity.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self.config.validate()
        rng = np.random.default_rng(self.config.seed)
        self.blocks = []
        for b in range(self.config.blocks):
            in_ch = self.config.in_channels if b == 0 else self.config.channels
            self.blocks.append(DeformationBlock(b + 1, in_ch, self.config, rng))

    def parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for block in self.blocks:
            for name, arr in block.parameters():
                out[name] = arr
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(state) != set(params):
            raise ValueError("state parameter names do not match the architecture")
        for name, arr in params.items():
            if state[name].shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}")
            arr[...] = state[name]

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        return {name: tape.leaf(arr, requires_grad=True)
                for name, arr in self.parameters().items()}

    def plan(self, mesh: TriangleMesh) -> ForwardPlan:
        stages = []
        n, faces, edges = mesh.n_vertices, mesh.faces, mesh.edges
        for b in range(self.config.blocks):
            adj = None
            if self.config.hops >= 1:
                adj = AdjacencyOperator.from_edges(
                    n, edges, hops=self.config.hops, mode=self.config.normalization)
            stages.append(StageTopology(n, faces, edges, adj))
            if b + 1 < self.config.blocks:
                faces = subdivide_topology(faces, edges, n)
                n = n + len(edges)
                edges = unique_edges(faces, n)
        return ForwardPlan(stages)

    def forward(self, tape: Tape, mesh: TriangleMesh,
                plan: ForwardPlan | None = None,
                bound: dict[str, Tensor] | None = None) -> list[BlockOutput]:
        if plan is None:
            plan = self.plan(mesh)
        if bound is None:
            bound = self.bind(tape)
        vertices = tape.leaf(mesh.vertices)
        features = vertices
        outputs = []
        for b, block in enumerate(self.blocks):
            stage = plan.stages[b]
            if vertices.shape[0] != stage.n_vertices:
                raise DimensionError(
                    f"stage {b}: plan expects {stage.n_vertices} vertices, "
                    f"got {vertices.shape[0]}")
            pred, feats = block.apply(vertices, features, stage.adj, bound)
            outputs.append(BlockOutput(stage.faces, stage.edges, vertices, pred, feats))
            if b + 1 < len(self.blocks):
                vertices = _unpool_rows(pred, stage.edges)
                features = _unpool_rows(feats, stage.edges)
        return outputs

    def forward_parts(self, tape: Tape, meshes: list[TriangleMesh],
                      plans: list[ForwardPlan] | None = None,
                      bound: dict[str, Tensor] | None = None) -> list[BlockOutput]:
        """Run every part mesh and join each block's outputs into one disjoint mesh.

        Parts share one weight binding and are joined in input order, so the
        vertices of part p follow those of parts 0..p-1. A single part's
        outputs are returned as they are.
        """
        if not meshes:
            raise EmptyInputError("forward_parts needs at least one mesh")
        if plans is None:
            plans = [self.plan(mesh) for mesh in meshes]
        if bound is None:
            bound = self.bind(tape)
        per_part = [self.forward(tape, mesh, plan=plan, bound=bound)
                    for mesh, plan in zip(meshes, plans)]
        if len(per_part) == 1:
            return per_part[0]
        joined = []
        for outs in zip(*per_part):
            counts = [o.n_vertices for o in outs]
            joined.append(BlockOutput(
                join_indices(counts, [o.faces for o in outs]),
                join_indices(counts, [o.edges for o in outs]),
                concat_rows([o.v_in for o in outs]),
                concat_rows([o.v_out for o in outs])))
        return joined


def _unpool_rows(values: Tensor, edges: np.ndarray) -> Tensor:
    mid = 0.5 * (gather_rows(values, edges[:, 0]) + gather_rows(values, edges[:, 1]))
    return concat_rows([values, mid])


def graph_unpool(mesh: TriangleMesh, features):
    """Insert one vertex per edge midpoint and split each face into four.

    New-vertex features are the mean of the edge endpoint features; existing
    vertices and features stay in place. ``features`` may be a Tensor (rows
    tracked on its tape) or a plain array.
    """
    if isinstance(features, Tensor):
        if features.shape[0] != mesh.n_vertices:
            raise DimensionError(
                f"features rows {features.shape[0]} != vertex count {mesh.n_vertices}")
        new_features = _unpool_rows(features, mesh.edges)
    else:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != mesh.n_vertices:
            raise DimensionError(
                f"features rows {features.shape[0]} != vertex count {mesh.n_vertices}")
        mid = (features[mesh.edges[:, 0]] + features[mesh.edges[:, 1]]) * 0.5
        new_features = np.concatenate([features, mid], axis=0)
    return midpoint_subdivide(mesh), new_features


def network_forward(net: DeformationNetwork, *meshes: TriangleMesh,
                    plans: list[ForwardPlan] | None = None) -> list[TriangleMesh]:
    """Predicted mesh of every block, for one mesh or several parts joined in order.

    The read-only entry point: the tape is private to the call, so nothing
    of the forward pass outlives it.
    """
    return [out.mesh() for out in net.forward_parts(Tape(), list(meshes), plans=plans)]


def save_checkpoint(path, net: DeformationNetwork) -> None:
    """Binary checkpoint: magic, length-prefixed JSON header, raw parameters.

    The header lists parameter names and shapes in order; the payload is the
    concatenation of the arrays as little-endian float64, giving a bit-exact
    round trip.
    """
    params = net.parameters()
    header = {
        "config": net.config.to_dict(),
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params.items()],
    }
    blob = json.dumps(header).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> DeformationNetwork:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises DataFormatError unless the file is exactly magic, header and the
    parameters the header lists: a header length past the end of the file,
    a truncated parameter and trailing bytes are all rejected.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"bad checkpoint magic {magic!r}")
        header_len = int.from_bytes(fh.read(8), "little")
        if header_len > size - fh.tell():
            raise DataFormatError(
                f"checkpoint header length {header_len} exceeds the {size}-byte file")
        try:
            header = json.loads(fh.read(header_len).decode("ascii"))
            config = NetworkConfig.from_dict(header["config"])
            entries = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"bad checkpoint header: {exc}") from exc
        net = DeformationNetwork(config)
        params = net.parameters()
        if [n for n, _ in entries] != list(params):
            raise DataFormatError("checkpoint parameters do not match the architecture")
        for name, shape in entries:
            if params[name].shape != shape:
                raise DataFormatError(f"checkpoint shape mismatch for {name}")
            count = int(np.prod(shape))
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise DataFormatError(f"checkpoint truncated at {name}")
            params[name][...] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if fh.read(1):
            raise DataFormatError("checkpoint has trailing bytes after the last parameter")
    return net
