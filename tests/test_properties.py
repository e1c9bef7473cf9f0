"""Property-based tests of the file parsers, the config size rule, the
OBJ, box-tree and checkpoint round trips, and the gradients of the graph ops.

Each property runs a fixed, derandomized set of examples, so a failure
reproduces on every run; no example database is written.
"""

import sys

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stdnet.autodiff import Tape, gradcheck, sparse_matmul, tagcn
from stdnet.boxes import (ObbNode, load_structure, mesh_cuboid, save_structure,
                          structure_from_dict)
from stdnet.errors import DataFormatError, StdnetError
from stdnet.mesh import (NORMALIZATION_MODES, AdjacencyOperator, TriangleMesh, format_obj,
                         parse_obj)
from stdnet.network import (DeformationNetwork, NetworkConfig, load_checkpoint,
                            save_checkpoint)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Any JSON number, including NaN, the infinities, the largest finite floats
# and integers beyond the float64 range.
NUMBERS = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([1e308, -1e308, sys.float_info.max, -sys.float_info.max, 10 ** 400]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)
ROTATIONS = [
    [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    [0.6, -0.8, 0.0, 0.8, 0.6, 0.0, 0.0, 0.0, 1.0],
]


def triples(elements):
    return st.lists(elements, min_size=3, max_size=3)


BOX_NODES = st.fixed_dictionaries({
    "center": triples(NUMBERS | st.floats(-10.0, 10.0)),
    "axes": st.sampled_from(ROTATIONS) | st.lists(NUMBERS, min_size=9, max_size=9),
    "extents": triples(NUMBERS | st.floats(1e-3, 10.0)),
})
BOX_TREES = st.recursive(
    BOX_NODES,
    lambda kids: st.builds(lambda node, children: {**node, "children": children},
                           BOX_NODES, st.lists(kids, max_size=2)),
    max_leaves=4)

# OBJ-like text: directives with numeric or junk tokens (face indices up to
# 2**70, past int64), mixed with arbitrary lines.
TOKENS = st.one_of(st.floats().map(repr), st.integers(-3, 2 ** 70).map(str),
                   st.sampled_from(["1/2", "3//4", "-0", "1e999", "nan", "x"]),
                   st.text(max_size=4))
OBJ_LINES = st.one_of(
    st.text(max_size=12),
    st.builds(lambda d, ts: " ".join([d, *ts]), st.sampled_from(["v", "f", "vn", "#"]),
              st.lists(TOKENS, max_size=5)),
    st.builds(lambda ts: " ".join(["f", *ts]),
              triples(st.integers(-1, 2 ** 70).map(str))),
)


@PROPERTY
@given(st.lists(OBJ_LINES, max_size=12).map("\n".join))
def test_parse_obj_raises_only_library_errors(text):
    try:
        mesh = parse_obj(text)
    except StdnetError:
        return
    assert np.isfinite(mesh.vertices).all()


@PROPERTY
@given(JSON_VALUES | BOX_TREES)
def test_structure_from_dict_rejects_or_meshes_finite(data):
    try:
        tree = structure_from_dict(data)
    except DataFormatError:
        return
    for leaf in tree.leaves():
        assert np.isfinite(mesh_cuboid(leaf, 1).vertices).all()


@st.composite
def meshes(draw):
    n = draw(st.integers(3, 8))
    vertices = draw(st.lists(triples(st.floats(allow_nan=False, allow_infinity=False)),
                             min_size=n, max_size=n))
    faces = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]), max_size=6))
    return TriangleMesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))


@PROPERTY
@given(meshes())
def test_obj_round_trip_keeps_faces_and_nine_digits(mesh):
    back = parse_obj(format_obj(mesh))
    assert np.array_equal(back.faces, mesh.faces)
    nine_digits = [[float(f"{x:.9g}") for x in row] for row in mesh.vertices]
    assert np.array_equal(back.vertices, nine_digits)
    assert np.allclose(back.vertices, mesh.vertices, rtol=5e-9, atol=0.0)


SIZE_FIELDS = ("hops", "channels", "layers_per_block", "blocks", "in_channels")


@PROPERTY
@given(st.dictionaries(st.sampled_from(SIZE_FIELDS), st.integers(-2, 10 ** 30)))
def test_network_config_sizes_fit_an_array_or_are_rejected(sizes):
    try:
        config = NetworkConfig.from_dict(sizes)
    except DataFormatError:
        return
    assert 0 < 8 * config.parameter_count() <= np.iinfo(np.intp).max


def rotation(q):
    """The rotation matrix of the quaternion ``q`` (normalized here)."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1)


def valid_boxes(children=st.just([])):
    return st.builds(lambda center, q, extents, kids: ObbNode(center, rotation(q), extents, kids),
                     triples(st.floats(-1e6, 1e6)), QUATERNIONS,
                     triples(st.floats(1e-6, 1e6)), children)


VALID_TREES = st.recursive(
    valid_boxes(), lambda kids: valid_boxes(st.lists(kids, min_size=1, max_size=3)),
    max_leaves=6)


def assert_same_tree(a, b):
    for name in ("center", "axes", "extents"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert len(a.children) == len(b.children)
    for x, y in zip(a.children, b.children):
        assert_same_tree(x, y)


@PROPERTY
@given(VALID_TREES)
def test_box_tree_round_trip_is_bit_identical(tmp_path_factory, tree):
    path = tmp_path_factory.mktemp("boxes") / "tree.box.json"
    save_structure(tree, path)
    assert_same_tree(load_structure(path), tree)


SMALL_CONFIGS = st.builds(
    NetworkConfig, hops=st.integers(0, 3), channels=st.integers(1, 6),
    layers_per_block=st.integers(1, 3), blocks=st.integers(1, 3),
    normalization=st.sampled_from(NORMALIZATION_MODES), residual_every=st.integers(1, 3),
    use_bias=st.booleans(), seed=st.integers(0, 2 ** 32), in_channels=st.integers(1, 4))


@settings(PROPERTY, max_examples=40)
@given(SMALL_CONFIGS, st.integers(0, 2 ** 32))
def test_checkpoint_round_trip_is_bit_identical(tmp_path_factory, config, seed):
    net = DeformationNetwork(config)
    # Every parameter random, the zero-initialized biases and coordinate layers too.
    net.arena[...] = np.random.default_rng(seed).standard_normal(net.arena.size)
    path = tmp_path_factory.mktemp("ckpt") / "net.stdn"
    save_checkpoint(path, net)
    back = load_checkpoint(path)
    assert back.config == config
    assert back.arena.tobytes() == net.arena.tobytes()


@settings(PROPERTY, max_examples=40)
@given(valid_boxes(), st.integers(0, 1), st.sampled_from(["sym", "row"]), st.integers(0, 3),
       st.integers(1, 3), st.integers(1, 3), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32))
def test_tagcn_gradients_match_central_differences(box, subdivisions, mode, hops, c_in,
                                                    c_out, relu, use_bias, use_skip, seed):
    mesh = mesh_cuboid(box, subdivisions)
    adj = AdjacencyOperator.from_edges(mesh.n_vertices, mesh.edges, mode=mode)
    rng = np.random.default_rng(seed)
    params = {"x": rng.normal(size=(mesh.n_vertices, c_in)),
              **{f"W{k}": rng.normal(size=(c_in, c_out)) for k in range(hops + 1)}}
    if use_bias:
        params["bias"] = rng.normal(size=(1, c_out))
    if use_skip:
        params["skip"] = rng.normal(size=(mesh.n_vertices, c_out))

    def loss(ts):
        named = dict(zip(params, ts))
        return tagcn(named["x"], ts[1:hops + 2], named.get("bias"), adj.csr, adj.csr_t,
                     relu=relu, skip=named.get("skip")).square().sum()

    report = gradcheck(loss, params, tol=1e-6)
    assert report.passed, report


@settings(PROPERTY, max_examples=60)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32))
def test_sparse_matmul_matches_dense_product_and_gradient(rows, cols, width, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    m = sp.csr_array(dense)
    x = rng.normal(size=(cols, width))
    assert np.allclose(sparse_matmul(m, Tape().leaf(x)).value, dense @ x, rtol=1e-12, atol=1e-12)
    report = gradcheck(lambda ts: sparse_matmul(m, ts[0]).square().sum(), [x], tol=1e-6)
    assert report.passed, report
