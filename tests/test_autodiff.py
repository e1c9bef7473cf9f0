import numpy as np
import pytest

from stdnet import DimensionError, Tape, gradcheck
from stdnet.autodiff import concat_rows, gather_rows, relu, transpose


def finite_difference(fn, arrays, h=1e-5):
    """Central-difference gradients of a scalar function of plain arrays."""
    grads = [np.zeros_like(a) for a in arrays]
    for p, base in enumerate(arrays):
        for coord in np.ndindex(base.shape):
            orig = base[coord]
            base[coord] = orig + h
            f_plus = fn(arrays)
            base[coord] = orig - h
            f_minus = fn(arrays)
            base[coord] = orig
            grads[p][coord] = (f_plus - f_minus) / (2 * h)
    return grads


class TestForward:
    def test_add_identity(self):
        t = Tape()
        x = t.leaf(np.arange(6.0).reshape(2, 3), requires_grad=True)
        z = t.leaf(np.zeros((2, 3)))
        out = x + z
        assert np.array_equal(out.value, x.value)
        out.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_relu_values_and_gradient(self):
        t = Tape()
        x = t.leaf(np.array([[-1.0, 2.0]]), requires_grad=True)
        y = relu(x)
        assert np.array_equal(y.value, [[0.0, 2.0]])
        y.sum().backward()
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        t = Tape()
        a = t.leaf(np.zeros((2, 3)))
        b = t.leaf(np.zeros((3, 2)))
        with pytest.raises(DimensionError) as err:
            a + b
        assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
        with pytest.raises(DimensionError) as err:
            t.leaf(np.zeros((2, 3))) @ t.leaf(np.zeros((2, 3)))
        assert "(2, 3)" in str(err.value)

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
        g = gather_rows(a, [2, 0, 2])
        assert np.array_equal(g.value, a.value[[2, 0, 2]])
        c = concat_rows([g, a])
        assert c.shape == (7, 3)
        assert np.array_equal(transpose(c).value, c.value.T)

    def test_sqrt_rejects_negative(self):
        t = Tape()
        with pytest.raises(ValueError):
            t.leaf(np.array([[-1.0]])).sqrt()


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

    def test_matmul_sum_matches_ones_bt(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        t = Tape()
        ta = t.leaf(a, requires_grad=True)
        tb = t.leaf(b, requires_grad=True)
        (ta @ tb).sum().backward()
        assert np.allclose(ta.grad, np.ones((3, 2)) @ b.T)
        assert np.allclose(tb.grad, a.T @ np.ones((3, 2)))

        def fn(arrays):
            tape = Tape()
            return (tape.leaf(arrays[0]) @ tape.leaf(arrays[1])).sum().item()

        fd = finite_difference(fn, [a, b])
        assert np.abs(ta.grad - fd[0]).max() < 1e-6
        assert np.abs(tb.grad - fd[1]).max() < 1e-6

    def test_gather_scatter_adds_duplicates(self):
        t = Tape()
        a = t.leaf(np.arange(6.0).reshape(3, 2), requires_grad=True)
        gather_rows(a, [1, 1, 2]).sum().backward()
        assert np.array_equal(a.grad, [[0, 0], [2, 2], [1, 1]])

    def test_sqrt_gradient(self):
        t = Tape()
        x = t.leaf(np.array([[4.0, 9.0]]), requires_grad=True)
        x.sqrt().sum().backward()
        assert np.allclose(x.grad, [[0.25, 1.0 / 6.0]])

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
            g = gather_rows(tx, [0, 2]).sum()
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
            ((x @ w).relu().square().sum()).backward()
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
