import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from stdnet import DimensionError, Tape, gradcheck
from stdnet.autodiff import concat_rows, sparse_matmul, tagcn


def selection(rows, n_cols):
    """Sparse 0/1 matrix whose row r picks column rows[r]; a repeated column picks twice."""
    return sp.csr_array((np.ones(len(rows)), rows, np.arange(len(rows) + 1)),
                        shape=(len(rows), n_cols))


class TestForward:
    def test_add_identity(self):
        t = Tape()
        x = t.leaf(np.arange(6.0).reshape(2, 3), requires_grad=True)
        z = t.leaf(np.zeros((2, 3)))
        out = x + z
        assert np.array_equal(out.value, x.value)
        out.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_shape_mismatch_reports_both_shapes(self):
        t = Tape()
        a = t.leaf(np.zeros((2, 3)))
        b = t.leaf(np.zeros((3, 2)))
        with pytest.raises(DimensionError) as err:
            a + b
        assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
        with pytest.raises(DimensionError) as err:
            concat_rows([a, b])
        assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)

    def test_scalar_only_broadcast(self):
        t = Tape()
        a = t.leaf(np.ones((2, 2)))
        assert np.array_equal((2.5 * a).value, np.full((2, 2), 2.5))
        with pytest.raises(TypeError):
            a * a  # elementwise tensor products are not part of the suite

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionError):
            Tape().leaf(np.arange(3.0))

    def test_gather_concat_transpose(self):
        t = Tape()
        a = t.leaf(np.arange(12.0).reshape(4, 3))
        b = t.leaf(np.arange(9.0).reshape(3, 3))
        c = concat_rows([b, a])
        assert c.shape == (7, 3)
        assert np.array_equal(c.value, np.concatenate([b.value, a.value]))


class TestBackward:
    def test_sum_of_squares(self):
        t = Tape()
        x = t.leaf(np.array([[1.0], [-2.0], [3.0]]), requires_grad=True)
        x.square().sum().backward()
        assert np.array_equal(x.grad, [[2.0], [-4.0], [6.0]])

    def test_gradients_accumulate_on_reuse(self):
        t = Tape()
        x = t.leaf(np.ones((3, 1)), requires_grad=True)
        (x.sum() + x.sum()).backward()
        assert np.array_equal(x.grad, np.full((3, 1), 2.0))

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            x.backward()

    def test_unreached_leaf_gets_zero_gradient(self):
        t = Tape()
        x = t.leaf(np.ones((2, 1)), requires_grad=True)
        y = t.leaf(np.ones((2, 1)), requires_grad=True)
        x.square().sum().backward()
        assert np.array_equal(y.grad, np.zeros((2, 1)))

    def test_custom_op_through_record(self):
        # Tape.record is the one entry point every op, inside the package or not, goes through
        t = Tape()
        x = t.leaf(np.array([[1.0, -2.0]]), requires_grad=True)
        cube = t.record(x.value ** 3, (x,), lambda g: (3.0 * x.value ** 2 * g,), "cube")
        assert cube.op == "cube" and cube.requires_grad and len(t) == 2
        cube.sum().backward()
        assert np.array_equal(x.grad, [[3.0, 12.0]])

    def test_gather_scatter_adds_duplicates(self):
        t = Tape()
        a = t.leaf(np.arange(6.0).reshape(3, 2), requires_grad=True)
        picked = sparse_matmul(selection([1, 1, 2], 3), a)
        assert np.array_equal(picked.value, a.value[[1, 1, 2]])
        picked.sum().backward()
        assert np.array_equal(a.grad, [[0, 0], [2, 2], [1, 1]])


class TestGraphFreeing:
    def test_only_leaves_keep_gradients(self):
        t = Tape()
        x = t.leaf(np.array([[1.0, -2.0]]), requires_grad=True)
        y = x.square()
        loss = y.sum()
        loss.backward()
        assert np.array_equal(x.grad, [[2.0, -4.0]])
        assert y.grad is None and loss.grad is None
        assert np.array_equal(y.value, [[1.0, 4.0]])  # values outlive the sweep

    def test_node_owned_only_by_its_consumer_gets_swept(self):
        # y's only strong owner is z's input tuple, which the sweep drops
        # before it reaches y: y must still pass its gradient on to x
        t = Tape()
        x = t.leaf(np.array([[2.0]]), requires_grad=True)
        y = t.record(3.0 * x.value, (x,), lambda g: (3.0 * g,), "triple")
        yv = y.value
        z = t.record(yv * yv, (y,), lambda g: (2.0 * yv * g,), "square")
        y_ref = weakref.ref(y)
        del y
        z.sum().backward()
        assert np.array_equal(x.grad, [[36.0]])
        assert y_ref() is None and t.node(1) is None

    def test_second_backward_of_one_loss_raises(self):
        t = Tape()
        x = t.leaf(np.ones((2, 1)), requires_grad=True)
        loss = x.square().sum()
        loss.backward()
        first = x.grad
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        assert x.grad is first

    def test_loss_on_a_swept_subgraph_raises(self):
        t = Tape()
        x = t.leaf(np.array([[1.0], [3.0]]), requires_grad=True)
        y = x.square()
        y.sum().backward()
        first = x.grad
        with pytest.raises(RuntimeError, match="'square' node 1"):
            (2.0 * y).sum().backward()
        assert x.grad is first and np.array_equal(first, [[2.0], [6.0]])
        x.sum().backward()  # leaves are never swept, so a fresh graph on them works
        assert np.array_equal(x.grad, np.ones((2, 1)))


def consumer_graph(consumers):
    """A loss on three leaves: ``a`` is read by two ops, ``b`` by none and
    ``c`` by one. ``consumers`` maps leaf names to gradient consumers. The
    product's vjp reads both leaf values when it runs, so a leaf value
    overwritten before the sweep has passed it shows in the other's gradient."""
    t = Tape()
    leaves = {name: t.leaf(value, requires_grad=True) for name, value in
              (("a", [[1.0, -2.0]]), ("b", [[3.0, 4.0]]), ("c", [[0.5, 2.0]]))}
    for name, consume in consumers.items():
        leaves[name].grad_consumer = consume
    a, c = leaves["a"], leaves["c"]
    product = t.record(a.value * c.value, (a, c),
                       lambda g: (g * c.value, g * a.value), "product")
    return product.square().sum() + a.square().sum(), leaves


class TestGradConsumers:
    def reference_grads(self):
        loss, leaves = consumer_graph({})
        loss.backward()
        return {name: leaf.grad for name, leaf in leaves.items()}

    def test_each_consumer_called_once_with_the_plain_gradient(self):
        calls = []
        loss, leaves = consumer_graph(
            {name: lambda g, name=name: calls.append((name, g.tobytes())) for name in "abc"})
        loss.backward()
        reference = self.reference_grads()
        assert np.array_equal(reference["b"], np.zeros((1, 2)))
        # a and c go once the sweep passes their first reader; unreached b at its own node
        assert calls == [(name, reference[name].tobytes()) for name in "acb"]
        assert all(leaf.grad is None for leaf in leaves.values())

    def test_consumer_fires_after_the_last_reader(self):
        seen = []

        def poison(g):
            seen.append(g.copy())
            leaves["a"].value[...] = np.nan

        loss, leaves = consumer_graph({"a": poison})
        loss.backward()
        reference = self.reference_grads()
        assert len(seen) == 1 and seen[0].tobytes() == reference["a"].tobytes()
        assert np.isnan(leaves["a"].value).all()
        for name in "bc":
            assert leaves[name].grad.tobytes() == reference[name].tobytes()

    def test_leaves_without_a_consumer_keep_grad(self):
        loss, leaves = consumer_graph({"c": lambda g: None})
        loss.backward()
        reference = self.reference_grads()
        assert leaves["c"].grad is None
        for name in "ab":
            assert np.array_equal(leaves[name].grad, reference[name])

    def test_leaf_read_twice_by_one_node_is_consumed_once(self):
        t = Tape()
        x = t.leaf(np.ones((2, 1)), requires_grad=True)
        calls = []
        x.grad_consumer = calls.append
        (x + x).sum().backward()
        assert len(calls) == 1 and np.array_equal(calls[0], np.full((2, 1), 2.0))


class TestGradcheck:
    def test_quadratic_is_machine_exact(self):
        report = gradcheck(lambda ts: ts[0].square().sum(),
                           [np.array([[1.0], [2.0]])], tol=1e-9)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_report_names_worst_coordinate(self):
        report = gradcheck(lambda ts: ts[0].square().sum(),
                           {"weights": np.array([[1.0, 2.0]])})
        assert report.worst_param == "weights"
        assert report.worst_coord in {(0, 0), (0, 1)}

    def test_detects_wrong_gradient(self):
        # sabotage: forward computes x^2 but a detached scalar hides half of it
        def bad(ts):
            x = ts[0]
            flat = x.tape.leaf(x.value.copy())  # constant; no gradient path
            return (x + flat).square().sum()

        report = gradcheck(bad, [np.array([[1.0]])], tol=1e-4)
        assert not report.passed


class TestProperties:
    def test_gradient_linearity(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        a, b = 0.7, -1.3

        def grad_of(scale_f, scale_g):
            t = Tape()
            tx = t.leaf(x, requires_grad=True)
            f = tx.square().sum()
            g = sparse_matmul(selection([0, 2, 2], 4), tx).sum()
            (scale_f * f + scale_g * g).backward()
            return tx.grad

        combined = grad_of(a, b)
        parts = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
        assert np.abs(combined - parts).max() < 1e-10

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(9)
            t = Tape()
            x = t.leaf(rng.normal(size=(5, 3)), requires_grad=True)
            w = t.leaf(rng.normal(size=(3, 3)), requires_grad=True)
            tagcn(x, [w], relu=True).square().sum().backward()
            return x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_tape_grows_monotonically(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        before = len(t)
        y = x + x
        z = y.sum()
        assert len(t) == before + 2
        assert z.node_id > y.node_id > x.node_id

    def test_mixed_tapes_rejected(self):
        a = Tape().leaf(np.ones((2, 2)))
        b = Tape().leaf(np.ones((2, 2)))
        with pytest.raises(ValueError):
            a + b
