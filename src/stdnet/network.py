"""Topology-adaptive graph convolutions and the three-block deformation network.

Each layer computes f(sum_k A^k X W_k + b) with A^0 = I, so its weights are
shared across vertices and the layer runs unchanged on any graph size. Blocks
stack these layers with identity shortcuts, and a final coordinate layer turns
the last activations into per-vertex displacements. Between blocks the mesh is
unpooled: one new vertex per edge midpoint, each face split into four.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy.sparse as sp

from .autodiff import Tape, Tensor, concat_rows, sparse_matmul, tagcn
from .errors import DataFormatError, DimensionError, EmptyInputError, NumericalError
from .mesh import (AdjacencyOperator, NORMALIZATION_MODES, TriangleMesh, join_indices,
                   midpoint_operator, subdivide_topology, unique_edges)

CHECKPOINT_MAGIC = b"STDN0001"
# The JSON values a config field of each annotated type accepts.
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}
# glibc's <malloc.h> parameter numbers, and the values set_allocator_policy gives them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 2 ** 31 - 1  # the largest value mallopt takes: never trim the heap
_MMAP_THRESHOLD = 32 << 20  # the largest glibc allows on 64-bit


def _glibc_mallopt():
    """glibc's ``mallopt``, or None under any other C library."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def set_allocator_policy() -> bool:
    """Keep freed heap memory in the process, so buffers freed on every
    training step or forward pass are reused without page faults; returns
    whether the policy is now set.

    Sets glibc's ``M_TRIM_THRESHOLD`` so that the heap is never trimmed, and
    fixes ``M_MMAP_THRESHOLD`` at 32 MiB, which also stops glibc from moving
    either threshold on its own (mallopt(3)). Only blocks above 32 MiB, such
    as the parameter arena, are mapped apart and returned when freed. The
    policy is process-wide, so off the main thread nothing is done, and
    nothing is done without glibc. Setting it again changes nothing.
    """
    mallopt = _glibc_mallopt() if threading.current_thread() is threading.main_thread() else None
    if mallopt is None:
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
                and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD))


def config_from_dict(cls, data):
    """Build and validate the config dataclass ``cls`` from a parsed JSON object.

    Unknown keys, values that are not of their field's JSON type (an int
    field takes integers only, not floats or bools), numbers beyond the
    float64 range (NaN, infinities) and values that fail ``validate()``
    raise DataFormatError.
    """
    if not isinstance(data, dict):
        raise DataFormatError("config JSON must be an object")
    types = {f.name: f.type for f in fields(cls)}
    if set(data) - set(types):
        raise DataFormatError(f"unknown config keys: {sorted(set(data) - set(types))}")
    for name, value in data.items():
        if (isinstance(value, bool) != (types[name] == "bool")
                or not isinstance(value, _JSON_TYPES[types[name]])):
            raise DataFormatError(f"config key {name!r} must be a JSON {types[name]}, "
                                  f"got {value!r}")
        if types[name] == "float" and not abs(value) <= sys.float_info.max:
            raise DataFormatError(f"config key {name!r} must be a finite number, got {value!r}")
    cfg = cls(**data)
    try:
        cfg.validate()
    except ValueError as exc:
        raise DataFormatError(f"bad config: {exc}") from exc
    return cfg


@dataclass
class ArchitectureConfig:
    """The fields that shape the layer stack, shared by NetworkConfig and TrainConfig."""

    hops: int = 2
    channels: int = 192
    layers_per_block: int = 14
    blocks: int = 3
    normalization: str = "sym"
    residual_every: int = 2
    use_bias: bool = True
    seed: int = 0


@dataclass
class NetworkConfig(ArchitectureConfig):
    in_channels: int = 3

    def validate(self) -> None:
        if self.hops < 0:
            raise ValueError("hops must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if min(self.channels, self.layers_per_block, self.blocks, self.in_channels) < 1:
            raise ValueError("channels, layers_per_block, blocks and in_channels must be >= 1")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.residual_every < 1:
            raise ValueError("residual_every must be >= 1")
        if 8 * self.parameter_count() > np.iinfo(np.intp).max:
            raise ValueError(f"{self.parameter_count()} float64 parameters exceed "
                             "the largest array this platform can address")

    def parameter_count(self) -> int:
        """Number of float64 parameters a network of this config holds, by arithmetic."""
        def layer(n_in: int, n_out: int) -> int:
            return (self.hops + 1) * n_in * n_out + (n_out if self.use_bias else 0)
        c = self.channels
        tail = (self.layers_per_block - 1) * layer(c, c) + layer(c, 3)
        return (layer(self.in_channels, c) + (self.blocks - 1) * layer(c, c)
                + self.blocks * tail)


class TagcnLayer:
    """One graph-convolution layer: f(sum_{k=0..K} A^k X W_k + bias), f relu or identity.

    W_k have shape (in_channels, out_channels); the k = 0 term uses X
    directly. ``rng`` draws a Glorot-uniform init of the weights (the bias
    starts at zero); without one the weights stay zero too, as in coordinate
    branches, so a fresh network predicts zero displacement. ``alloc(shape)``
    returns zeroed storage for each parameter, called in ``parameters()``
    order; a network passes views of its arena.
    """

    def __init__(self, in_channels: int, out_channels: int, hops: int = 2,
                 use_bias: bool = True, relu: bool = True,
                 rng: np.random.Generator | None = None,
                 name: str = "layer", alloc=np.zeros):
        self.hops = hops
        self.relu = relu
        self.name = name
        self.weights = [alloc((in_channels, out_channels)) for _ in range(hops + 1)]
        self.bias = alloc((1, out_channels)) if use_bias else None
        if rng is not None:
            # Glorot-style bound with the hop branches counted in the fans:
            # the layer output sums hops+1 projections, so the plain
            # sqrt(6/(in+out)) bound compounds to exploding activations over
            # a 14-layer stack.
            s = np.sqrt(6.0 / ((hops + 1) * (in_channels + out_channels)))
            for w in self.weights:
                w[...] = rng.uniform(-s, s, w.shape)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = [(f"{self.name}.W{k}", w) for k, w in enumerate(self.weights)]
        if self.bias is not None:
            out.append((f"{self.name}.bias", self.bias))
        return out

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        return {name: tape.leaf(arr, requires_grad=True) for name, arr in self.parameters()}

    def apply(self, x: Tensor, adj: AdjacencyOperator | None,
              bound: dict[str, Tensor], skip: Tensor | None = None) -> Tensor:
        """The layer's output, plus ``skip`` (a shortcut) when one is given."""
        weights = [bound[f"{self.name}.W{k}"] for k in range(self.hops + 1)]
        bias = bound[f"{self.name}.bias"] if self.bias is not None else None
        operators = (None, None) if adj is None else (adj.csr, adj.csr_t)
        return tagcn(x, weights, bias, *operators, relu=self.relu, skip=skip)


class DeformationBlock:
    """A stack of graph-convolution layers plus a displacement branch.

    Every ``residual_every``-th layer (starting at layer residual_every + 1)
    adds the activation from ``residual_every`` layers earlier. The coordinate
    branch applies one extra layer (identity activation, zero-initialized) to
    the final activations and adds the result to the current vertex positions.
    """

    def __init__(self, index: int, in_channels: int, cfg: NetworkConfig,
                 rng: np.random.Generator | None, alloc=np.zeros):
        """``rng`` draws the Glorot init of the relu layers; with None every
        parameter keeps the zeros ``alloc`` returns."""
        self.index = index
        self.residual_every = cfg.residual_every
        self.layers = []
        for l in range(cfg.layers_per_block):
            self.layers.append(TagcnLayer(
                in_channels if l == 0 else cfg.channels, cfg.channels,
                hops=cfg.hops, use_bias=cfg.use_bias,
                rng=rng, name=f"block{index}.layer{l + 1:02d}", alloc=alloc))
        self.coord = TagcnLayer(
            cfg.channels, 3, hops=cfg.hops, use_bias=cfg.use_bias,
            relu=False, name=f"block{index}.coord", alloc=alloc)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        out.extend(self.coord.parameters())
        return out

    def apply(self, vertices: Tensor, features: Tensor,
              adj: AdjacencyOperator | None,
              bound: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
        # Layer i > every with (i - 1) % every == 0 adds the output of layer
        # i - every, the latest such layer, so only that activation is kept.
        every = self.residual_every
        x, shortcut = features, None
        for i, layer in enumerate(self.layers, start=1):
            adds_shortcut = i > every and (i - 1) % every == 0
            x = layer.apply(x, adj, bound, shortcut if adds_shortcut else None)
            if (i - 1) % every == 0:
                shortcut = x
        return self.coord.apply(x, adj, bound, vertices), x


@dataclass
class StageTopology:
    """Fixed connectivity of one block's mesh, and the unpooling map to the next."""

    n_vertices: int
    faces: np.ndarray
    edges: np.ndarray
    adj: AdjacencyOperator | None
    unpool: sp.csr_array | None  # midpoint_operator(n_vertices, edges); None on the last stage


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

    @property
    def n_vertices(self) -> int:
        return self.v_out.shape[0]

    def mesh(self) -> TriangleMesh:
        return TriangleMesh(self.v_out.value, self.faces)


class DeformationNetwork:
    """Deformation blocks joined by graph unpooling, sharing one weight set.

    The network is topology-adaptive: weights never depend on the vertex
    count, so the same instance deforms meshes of any connectivity.

    Every parameter is a view into ``arena``, one contiguous little-endian
    float64 buffer laid out in ``parameters()`` order, which is also the
    checkpoint payload's order.
    """

    def __init__(self, config: NetworkConfig | None = None):
        config = config or NetworkConfig()
        config.validate()
        self._allocate(config, np.random.default_rng(config.seed))

    @classmethod
    def _uninitialized(cls, config: NetworkConfig) -> "DeformationNetwork":
        """A network of all-zero parameters that draws no random numbers."""
        net = cls.__new__(cls)
        net._allocate(config, None)
        return net

    def _allocate(self, config: NetworkConfig, rng: np.random.Generator | None) -> None:
        self.config = config
        # Zeroed through calloc: a buffer this size is a fresh mapping, so the
        # zeros cost nothing until a page is written.
        self.arena = np.zeros(config.parameter_count(), dtype="<f8")
        offset = 0

        def take(shape):
            nonlocal offset
            size = math.prod(shape)
            view = self.arena[offset:offset + size].reshape(shape)
            offset += size
            return view

        self.blocks = []
        for b in range(config.blocks):
            in_ch = config.in_channels if b == 0 else config.channels
            self.blocks.append(DeformationBlock(b + 1, in_ch, config, rng, take))

    def parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for block in self.blocks:
            for name, arr in block.parameters():
                out[name] = arr
        return out

    def state(self) -> dict[str, np.ndarray]:
        """A copy of every parameter by name, apart from the arena."""
        return {name: arr.copy() for name, arr in self.parameters().items()}

    def bind(self, tape: Tape, requires_grad: bool = True) -> dict[str, Tensor]:
        """Every parameter as a leaf on ``tape``; constants when not ``requires_grad``,
        so a forward over them records no graph."""
        return {name: tape.leaf(arr, requires_grad=requires_grad)
                for name, arr in self.parameters().items()}

    def plan(self, mesh: TriangleMesh) -> ForwardPlan:
        stages = []
        n, faces, edges = mesh.n_vertices, mesh.faces, mesh.edges
        for b in range(self.config.blocks):
            adj = None
            if self.config.hops >= 1:
                adj = AdjacencyOperator.from_edges(
                    n, edges, hops=self.config.hops, mode=self.config.normalization)
            unpool = midpoint_operator(n, edges) if b + 1 < self.config.blocks else None
            stages.append(StageTopology(n, faces, edges, adj, unpool))
            if unpool is not None:
                faces = subdivide_topology(faces, edges, n)
                n = unpool.shape[0]
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
            # The check below raises in place of numpy's warnings; errstate is thread-local.
            with np.errstate(over="ignore", invalid="ignore"):
                pred, feats = block.apply(vertices, features, stage.adj, bound)
            if not np.isfinite(pred.value).all():
                raise NumericalError(f"block {b + 1} predicted non-finite vertices")
            outputs.append(BlockOutput(stage.faces, stage.edges, vertices, pred))
            if stage.unpool is not None:
                vertices = sparse_matmul(stage.unpool, pred)
                features = sparse_matmul(stage.unpool, feats)
        return outputs

    def forward_parts(self, tape: Tape, meshes: list[TriangleMesh],
                      plans: list[ForwardPlan] | None = None,
                      bound: dict[str, Tensor] | None = None) -> list[BlockOutput]:
        """Run every part mesh and join each block's outputs into one disjoint mesh.

        Parts share one weight binding and are joined in input order, so the
        vertices of part p follow those of parts 0..p-1.
        """
        if not meshes:
            raise EmptyInputError("forward_parts needs at least one mesh")
        if plans is None:
            plans = [self.plan(mesh) for mesh in meshes]
        if bound is None:
            bound = self.bind(tape)
        per_part = [self.forward(tape, mesh, plan=plan, bound=bound)
                    for mesh, plan in zip(meshes, plans)]
        joined = []
        for outs in zip(*per_part):
            counts = [o.n_vertices for o in outs]
            joined.append(BlockOutput(
                join_indices(counts, [o.faces for o in outs]),
                join_indices(counts, [o.edges for o in outs]),
                concat_rows([o.v_in for o in outs]),
                concat_rows([o.v_out for o in outs])))
        return joined


def network_forward(net: DeformationNetwork, *meshes: TriangleMesh) -> list[TriangleMesh]:
    """Predicted mesh of every block, for one mesh or several parts joined in order.

    The read-only entry point. The parameters are bound as constants, so the
    pass records no graph and keeps only the activations a shortcut still
    needs. It first calls ``set_allocator_policy()``, which is process-wide,
    so the freed activations are reused by the next call without page faults.
    """
    set_allocator_policy()
    tape = Tape()
    blocks = net.forward_parts(tape, list(meshes), bound=net.bind(tape, requires_grad=False))
    return [out.mesh() for out in blocks]


def save_checkpoint(path, net: DeformationNetwork) -> None:
    """Binary checkpoint: magic, length-prefixed JSON header, raw parameters.

    The header lists parameter names and shapes in order; the payload is the
    network's arena, the concatenation of the arrays as little-endian float64,
    giving a bit-exact round trip.
    """
    header = {
        "config": asdict(net.config),
        "params": [{"name": n, "shape": list(a.shape)} for n, a in net.parameters().items()],
    }
    blob = json.dumps(header).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(net.arena)


def load_checkpoint(path) -> DeformationNetwork:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises DataFormatError unless the file is exactly magic, header and the
    parameters the header lists. A header length past the end of the file is
    rejected, and so is a payload of any size but the one the header's config
    needs (truncated, trailing bytes, or an architecture too large to hold),
    before the network is built. So is a NaN or infinite parameter. The
    payload is read straight into the network's arena, with no initial draw.
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
            config = config_from_dict(NetworkConfig, header["config"])
            entries = [(e["name"], tuple(e["shape"])) for e in header["params"]]
            expected = 8 * config.parameter_count()
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataFormatError(f"bad checkpoint header: {exc}") from exc
        payload = size - fh.tell()
        if payload != expected:
            raise DataFormatError(
                f"checkpoint holds {payload} parameter bytes; its config needs {expected}")
        net = DeformationNetwork._uninitialized(config)
        params = net.parameters()
        if [n for n, _ in entries] != list(params):
            raise DataFormatError("checkpoint parameters do not match the architecture")
        for name, shape in entries:
            arr = params[name]
            if arr.shape != shape:
                raise DataFormatError(f"checkpoint shape mismatch for {name}")
            if fh.readinto(arr) != arr.nbytes:
                raise DataFormatError(f"checkpoint ends inside parameter {name}")
            if not np.isfinite(arr).all():
                raise DataFormatError(f"checkpoint parameter {name} holds NaN or infinite values")
    return net
