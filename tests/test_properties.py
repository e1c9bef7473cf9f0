"""Property-based tests of the file parsers, the config size rule, the
OBJ, box-tree and checkpoint round trips, the gradients of the graph ops,
the in-place relu, layer permutation equivariance, the CLI on corrupted
input files, and the subdivision counting law.

Each property runs a fixed, derandomized set of examples, so a failure
reproduces on every run; no example database is written.
"""

import contextlib
import io
import sys

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stdnet.autodiff import Tape, gradcheck, relu_inplace, sparse_matmul, tagcn
from stdnet.boxes import (ObbNode, load_structure, mesh_cuboid, save_structure,
                          structure_from_dict)
from stdnet.cli import main
from stdnet.errors import DataFormatError, StdnetError
from stdnet.fixtures import icosphere
from stdnet.mesh import (NORMALIZATION_MODES, AdjacencyOperator, TriangleMesh, format_obj,
                         midpoint_subdivide, parse_obj, write_obj)
from stdnet.network import (DeformationNetwork, NetworkConfig, TagcnLayer, config_from_dict,
                            load_checkpoint, save_checkpoint)

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
        config = config_from_dict(NetworkConfig, sizes)
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
@given(valid_boxes(), st.integers(0, 1), st.sampled_from(NORMALIZATION_MODES),
       st.integers(0, 3), st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32))
def test_layer_commutes_with_vertex_permutation(box, subdivisions, mode, hops, c_in, c_out,
                                                relu, use_bias, use_skip, seed):
    # apply(P x, P A P^T) = P apply(x, A), to 1e-12 relative to the output's
    # scale, not bit for bit: OpenBLAS rounds a row by its position.
    mesh = mesh_cuboid(box, subdivisions)
    rng = np.random.default_rng(seed)
    layer = TagcnLayer(c_in, c_out, hops=hops, use_bias=use_bias, relu=relu, rng=rng)
    if use_bias:
        layer.bias[...] = rng.normal(size=layer.bias.shape)  # zero-initialized otherwise
    x = rng.normal(size=(mesh.n_vertices, c_in))
    skip = rng.normal(size=(mesh.n_vertices, c_out)) if use_skip else None
    perm = rng.permutation(mesh.n_vertices)
    relabelled = TriangleMesh(mesh.vertices[perm], np.argsort(perm)[mesh.faces])

    def apply(m, x, skip):
        adj = (AdjacencyOperator.from_edges(m.n_vertices, m.edges, hops=hops, mode=mode)
               if hops else None)
        tape = Tape()
        return layer.apply(tape.leaf(x), adj, layer.bind(tape),
                           None if skip is None else tape.leaf(skip)).value

    out = apply(mesh, x, skip)
    moved = apply(relabelled, x[perm], None if skip is None else skip[perm])
    assert np.abs(moved - out[perm]).max() <= 1e-12 * max(1.0, np.abs(out).max())


# NaN of either sign, the infinities, both zeros, subnormals of either sign
# and the smallest normal.
RELU_EDGES = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                              2.2e-308, -2.2e-308, 2.2250738585072014e-308])


@PROPERTY
@given(st.lists(st.floats() | RELU_EDGES, min_size=1, max_size=70), st.integers(1, 3))
def test_relu_inplace_matches_where_byte_for_byte(values, columns):
    x = np.resize(np.array(values), (-(-len(values) // columns), columns))
    out = x.copy()
    relu_inplace(out)
    assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()


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


# One corruption of a file's bytes: ("truncate", offset), ("flip", offset,
# xor mask) or ("append", tail); offsets wrap around the file's length.
CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("flip"), st.integers(0, 2 ** 16), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=32)))


def corrupt(blob: bytes, corruption) -> bytes:
    kind, *args = corruption
    if kind == "append":
        return blob + args[0]
    at = args[0] % len(blob)
    if kind == "truncate":
        return blob[:at]
    return blob[:at] + bytes([blob[at] ^ args[1]]) + blob[at + 1:]


def assert_clean_exit(argv, out):
    """``main(argv)`` exits 0 with finite OBJs under ``out``, or 2 or 3 with one
    stderr line and no OBJ."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    objs = sorted(out.glob("*.obj"))
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and objs == []
    for path in objs:
        coords = [float(t) for line in path.read_text().splitlines()
                  if line.startswith("v ") for t in line.split()[1:]]
        assert np.isfinite(coords).all()


# Every parameter in +-[0.5, 1), so mask 0x40 on the high byte of any of them
# gives a finite +-1e308 or so, which the example makes the first parameter.
SMALL_NET = DeformationNetwork(NetworkConfig(channels=4, layers_per_block=1))
_rng = np.random.default_rng(0)
SMALL_NET.arena[...] = (_rng.uniform(0.5, 1.0, SMALL_NET.arena.size)
                        * _rng.choice([-1.0, 1.0], SMALL_NET.arena.size))
ONE_BOX = ObbNode(np.zeros(3), np.eye(3), (0.5, 0.25, 0.75))


@PROPERTY
@given(CORRUPTIONS)
@example(corruption=("flip", -8 * SMALL_NET.arena.size + 7, 0x40))
def test_deform_on_a_corrupted_checkpoint_fails_cleanly(tmp_path_factory, corruption):
    tmp = tmp_path_factory.mktemp("deform")
    checkpoint, box = tmp / "net.stdn", tmp / "box.json"
    save_checkpoint(checkpoint, SMALL_NET)
    checkpoint.write_bytes(corrupt(checkpoint.read_bytes(), corruption))
    save_structure(ONE_BOX, box)
    assert_clean_exit(["deform", str(checkpoint), str(box), "--out", str(tmp / "o"),
                       "--quiet"], tmp / "o")


@PROPERTY
@given(CORRUPTIONS)
def test_meshbox_on_a_corrupted_box_tree_fails_cleanly(tmp_path_factory, corruption):
    tmp = tmp_path_factory.mktemp("meshbox")
    box = tmp / "box.json"
    save_structure(ObbNode((0.1, -0.2, 0.3), rotation((0.9, 0.1, -0.3, 0.2)), (0.5, 0.25, 0.75)),
                   box)
    box.write_bytes(corrupt(box.read_bytes(), corruption))
    assert_clean_exit(["meshbox", str(box), "--out", str(tmp / "o"), "--quiet"], tmp / "o")


@PROPERTY
@given(CORRUPTIONS)
def test_subdivide_on_a_corrupted_obj_fails_cleanly(tmp_path_factory, corruption):
    tmp = tmp_path_factory.mktemp("subdivide")
    obj = tmp / "box.obj"
    write_obj(mesh_cuboid(ONE_BOX, 1), obj)
    obj.write_bytes(corrupt(obj.read_bytes(), corruption))
    assert_clean_exit(["subdivide", str(obj), "--out", str(tmp / "o"), "--quiet"], tmp / "o")


def torus(m: int, n: int) -> TriangleMesh:
    """A torus triangulated on an m x n grid of (major, minor) angles, two faces a cell."""
    i, j = np.divmod(np.arange(m * n), n)
    u, v = 2 * np.pi * i / m, 2 * np.pi * j / n
    vertices = np.column_stack([(2 + np.cos(v)) * np.cos(u), (2 + np.cos(v)) * np.sin(u),
                                np.sin(v)])
    a, b = i * n + j, (i + 1) % m * n + j
    c, d = (i + 1) % m * n + (j + 1) % n, i * n + (j + 1) % n
    return TriangleMesh(vertices, np.concatenate([np.column_stack([a, b, c]),
                                                  np.column_stack([a, c, d])]))


CLOSED_MESHES = st.one_of(  # (mesh, genus)
    st.integers(0, 2).map(lambda s: (icosphere(s), 0)),
    st.tuples(st.integers(3, 12), st.integers(3, 12)).map(lambda mn: (torus(*mn), 1)))


@PROPERTY
@given(CLOSED_MESHES, st.integers(0, 2 ** 32))
def test_counting_law_on_closed_meshes_of_genus_0_and_1(mesh_and_genus, seed):
    mesh, genus = mesh_and_genus
    order = np.random.default_rng(seed).permutation(mesh.n_vertices)  # relabel the vertices
    mesh = TriangleMesh(mesh.vertices[order], np.argsort(order)[mesh.faces])
    v, e, f = mesh.n_vertices, mesh.n_edges, mesh.n_faces
    assert mesh.is_closed() and v - e + f == 2 - 2 * genus
    fine = midpoint_subdivide(mesh)
    assert (fine.n_vertices, fine.n_faces, fine.n_edges) == (v + e, 4 * f, 2 * e + 3 * f)
    assert fine.is_closed() and fine.n_vertices - fine.n_edges + fine.n_faces == 2 - 2 * genus
