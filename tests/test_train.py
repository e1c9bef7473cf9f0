import sys

import numpy as np
import pytest

from stdnet import (Adam, DeformationNetwork, EmptyInputError, NumericalError,
                    TrainConfig, make_fixtures, midpoint_subdivide,
                    network_forward, train)
from stdnet.errors import DataFormatError
from stdnet.fixtures import FIXTURE_KINDS, icosphere
from stdnet.mesh import format_obj
from stdnet.train import CURVE_HEADER


def tiny_config(**overrides):
    base = dict(iterations=3, eval_every=1, samples=60, channels=6,
                layers_per_block=2, blocks=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = {"w": np.array([[1.0, -2.0]])}
        opt = Adam(p, lr=0.1, weight_decay=0.0)
        g = {"w": np.zeros((1, 2))}
        opt.step(g)
        opt.step(g)
        assert np.array_equal(p["w"], [[1.0, -2.0]])
        assert np.abs(opt.m["w"]).max() == 0.0

    def test_moments_decay_toward_zero(self):
        p = {"w": np.array([[1.0]])}
        opt = Adam(p, lr=0.0, weight_decay=0.0)
        opt.step({"w": np.array([[4.0]])})
        m1 = opt.m["w"].copy()
        opt.step({"w": np.array([[0.0]])})
        assert abs(opt.m["w"][0, 0]) < abs(m1[0, 0])

    def test_first_step_is_signed_learning_rate(self):
        # with fresh moments the bias-corrected update is
        # -lr * g / (|g| + eps') which is about -lr * sign(g)
        lr = 0.01
        p = {"w": np.array([[1.0, 1.0, 1.0]])}
        opt = Adam(p, lr=lr, weight_decay=0.0)
        opt.step({"w": np.array([[3.0, -0.5, 7.0]])})
        expected = 1.0 - lr * np.array([1.0, -1.0, 1.0])
        assert np.allclose(p["w"], expected, atol=1e-6)

    def test_deterministic_over_100_steps(self):
        def run():
            rng = np.random.default_rng(4)
            p = {"w": np.ones((3, 3))}
            opt = Adam(p, lr=1e-3, weight_decay=5e-4)
            for _ in range(100):
                opt.step({"w": rng.normal(size=(3, 3))})
            return p["w"].tobytes()

        assert run() == run()

    def test_non_finite_gradient_names_parameter(self):
        p = {"bad_param": np.ones((2, 2))}
        opt = Adam(p)
        with pytest.raises(NumericalError, match="bad_param"):
            opt.step({"bad_param": np.full((2, 2), np.nan)})

    def test_missing_gradient_steps_as_zero(self):
        def run(grads):
            p = {"w": np.array([[10.0, -3.0]]), "b": np.array([[1.0]])}
            opt = Adam(p, lr=0.1, weight_decay=1e-2)
            for _ in range(3):
                opt.step(grads)
            return p["w"].tobytes(), p["b"].tobytes(), opt.m["w"].tobytes()

        missing = run({"b": np.array([[0.5]])})
        assert missing == run({"w": np.zeros((1, 2)), "b": np.array([[0.5]])})

    def test_weight_decay_shrinks_without_gradient(self):
        p = {"w": np.array([[10.0]])}
        opt = Adam(p, lr=0.1, weight_decay=1e-2)
        opt.step({"w": np.zeros((1, 1))})
        assert p["w"][0, 0] < 10.0


class TestTrainConfig:
    def test_json_round_trip_exact_keys(self):
        cfg = TrainConfig()
        text = cfg.to_json()
        assert TrainConfig.from_json(text) == cfg
        import json
        keys = set(json.loads(text))
        assert keys == {"lr", "beta1", "beta2", "eps", "weight_decay",
                        "iterations", "eval_every", "lambda_lap", "lambda_edge",
                        "samples", "seed", "hops", "channels", "layers_per_block",
                        "blocks", "normalization", "residual_every", "use_bias"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataFormatError):
            TrainConfig.from_json('{"learning_rate": 0.1}')

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(iterations=-1).validate()
        TrainConfig(iterations=0).validate()  # explicit no-op is allowed


class TestFixtures:
    def test_all_kinds_produce_valid_pairs(self):
        for kind in FIXTURE_KINDS:
            for pair in make_fixtures(kind, seed=3):
                assert pair.target.n_faces > 0
                assert pair.target.is_closed()
                for mesh in pair.source_meshes():
                    assert mesh.is_closed()

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(ValueError) as err:
            make_fixtures("nonsense")
        for kind in FIXTURE_KINDS:
            assert kind in str(err.value)

    def test_cube_to_sphere_canonical(self):
        (pair,) = make_fixtures("cube-to-sphere")
        assert pair.target.n_vertices == 642  # icosahedron subdivided 3 times
        assert np.allclose(np.linalg.norm(pair.target.vertices, axis=1), 1.0)
        (mesh,) = pair.source_meshes()
        assert mesh.n_vertices == 8
        assert np.abs(mesh.vertices).max() == 0.5

    def test_two_box_chair_structure(self):
        (pair,) = make_fixtures("two-box-chair", seed=1)
        assert len(pair.source.leaves()) == 2
        assert pair.target.is_closed()
        assert len(pair.source_meshes()) == 2

    def test_same_seed_bit_identical_obj(self):
        a = make_fixtures("random-box-smooth", seed=9)
        b = make_fixtures("random-box-smooth", seed=9)
        for pa, pb in zip(a, b):
            assert format_obj(pa.target) == format_obj(pb.target)

    def test_different_seeds_differ(self):
        a = make_fixtures("box-to-ellipsoid", seed=1)[0]
        b = make_fixtures("box-to-ellipsoid", seed=2)[0]
        assert not np.array_equal(a.target.vertices, b.target.vertices)

    def test_icosphere_subdivision_counts(self):
        assert icosphere(0).n_vertices == 12
        assert icosphere(1).n_vertices == 42
        assert icosphere(2).n_vertices == 162
        assert icosphere(3).n_vertices == 642
        assert icosphere(3).is_closed()


class TestTrain:
    def test_zero_iterations_outputs_subdivided_box(self):
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=0)
        net = DeformationNetwork(cfg.network_config())
        train(net, [pair], cfg)
        (source,) = pair.source_meshes()
        meshes = network_forward(net, source)
        expected = source
        for mesh in meshes:
            assert np.array_equal(mesh.vertices, expected.vertices)
            expected = midpoint_subdivide(expected)

    def test_empty_dataset_rejected(self):
        cfg = tiny_config()
        with pytest.raises(EmptyInputError):
            train(DeformationNetwork(cfg.network_config()), [], cfg)

    def test_deterministic_given_seed(self):
        def run():
            (pair,) = make_fixtures("cube-to-sphere")
            cfg = tiny_config(iterations=4)
            net = DeformationNetwork(cfg.network_config())
            result = train(net, [pair], cfg)
            blob = b"".join(p.tobytes() for p in net.parameters().values())
            return blob, result.rows

        a, b = run(), run()
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_curve_rows_and_csv(self, tmp_path):
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=3, eval_every=2)
        net = DeformationNetwork(cfg.network_config())
        result = train(net, [pair], cfg, out_dir=tmp_path)
        assert len(result.rows) == 4  # row 0 plus one per iteration
        text = (tmp_path / "curve.csv").read_text().splitlines()
        assert text[0] == CURVE_HEADER
        first = text[1].split(",")
        assert first[0] == "0" and first[1] == "" and first[5] != ""
        # val_cd present on eval iterations and the final iteration
        assert text[3].split(",")[5] != ""
        assert (tmp_path / "checkpoint.stdn").exists()

    def test_best_checkpoint_round_trip(self, tmp_path):
        from stdnet import load_checkpoint
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=4, eval_every=2)
        net = DeformationNetwork(cfg.network_config())
        train(net, [pair], cfg, out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint.stdn")
        (source,) = pair.source_meshes()
        for ma, mb in zip(network_forward(net, source), network_forward(loaded, source)):
            assert ma.vertices.tobytes() == mb.vertices.tobytes()

    def test_multi_part_chair_trains(self):
        (pair,) = make_fixtures("two-box-chair", seed=0)
        cfg = tiny_config(iterations=2, samples=40)
        net = DeformationNetwork(cfg.network_config())
        result = train(net, [pair], cfg)
        assert np.isfinite(result.best_val_chamfer)

    def test_supervision_switch_changes_block1_gradients(self):
        from stdnet.autodiff import Tape
        from stdnet.losses import sample_surface, total_loss

        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=1, samples=50, seed=2)
        net = DeformationNetwork(cfg.network_config())
        rng = np.random.default_rng(0)
        for name, p in net.parameters().items():
            p[...] = rng.normal(size=p.shape) * 0.05
        parts = pair.source_meshes()

        def block1_grads(supervise):
            tape = Tape()
            bound = net.bind(tape)
            blocks = net.forward_parts(tape, parts, bound=bound)
            target = sample_surface(pair.target.vertices, pair.target.faces, 50,
                                    np.random.default_rng(5))
            loss, _ = total_loss(blocks, target, 50, np.random.default_rng(6),
                                 supervise_blocks=supervise)
            loss.backward()
            return {n: t.grad.copy() for n, t in bound.items() if n.startswith("block1.")}

        full = block1_grads(None)
        last_only = block1_grads([2])
        diffs = [np.abs(full[n] - last_only[n]).max() for n in full]
        assert max(diffs) > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_checkpoint(self, tmp_path):
        # an absurd learning rate overflows the parameters after one step;
        # the run must abort and keep the last good checkpoint
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=5, eval_every=1, lr=1e200)
        net = DeformationNetwork(cfg.network_config())
        with pytest.raises(NumericalError):
            train(net, [pair], cfg, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.stdn").exists()
        assert (tmp_path / "curve.csv").exists()

    def test_non_finite_validation_aborts_with_checkpoint(self, tmp_path, monkeypatch):
        # a NaN validation chamfer never compares below the best one, so it
        # must abort the run instead of letting training go on unchecked
        train_module = sys.modules["stdnet.train"]
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=4, eval_every=2)
        net = DeformationNetwork(cfg.network_config())
        initial = net.state()
        values = iter([1.0, np.nan])
        monkeypatch.setattr(train_module, "_validation_chamfer",
                            lambda *args: next(values))
        with pytest.raises(NumericalError, match="validation"):
            train(net, [pair], cfg, out_dir=tmp_path)
        # the best snapshot is the untrained one, restored and written out
        assert all(np.array_equal(net.parameters()[n], a) for n, a in initial.items())
        assert (tmp_path / "checkpoint.stdn").exists()
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert len(curve) == 3  # header, row 0 and iteration 1

    def test_non_finite_initial_validation_rejected(self, monkeypatch):
        train_module = sys.modules["stdnet.train"]
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config()
        monkeypatch.setattr(train_module, "_validation_chamfer", lambda *args: np.inf)
        with pytest.raises(NumericalError, match="validation"):
            train(DeformationNetwork(cfg.network_config()), [pair], cfg)

    def test_validation_improves_on_every_fixture_kind(self):
        # reduced-scale stand-in for the long-run claim: on each kind the
        # best validation chamfer drops below the untrained value
        for kind in FIXTURE_KINDS:
            pairs = make_fixtures(kind, seed=1)
            cfg = tiny_config(iterations=60, eval_every=20, samples=120,
                              channels=12, layers_per_block=3, seed=1)
            net = DeformationNetwork(cfg.network_config())
            result = train(net, pairs, cfg)
            assert result.best_val_chamfer < result.initial_val_chamfer, kind

    def test_higher_edge_weight_shrinks_edges(self):
        # paired seeded runs: multiplying the edge-length weight by 10 must
        # strictly reduce the mean edge length of the final prediction
        def mean_edge_length(lambda_edge):
            (pair,) = make_fixtures("cube-to-sphere")
            cfg = tiny_config(iterations=150, eval_every=50, samples=150,
                              channels=12, layers_per_block=3,
                              lambda_edge=lambda_edge, seed=4)
            net = DeformationNetwork(cfg.network_config())
            train(net, [pair], cfg)
            (source,) = pair.source_meshes()
            final = network_forward(net, source)[-1]
            d = final.vertices[final.edges[:, 0]] - final.vertices[final.edges[:, 1]]
            return np.linalg.norm(d, axis=1).mean()

        assert mean_edge_length(1.0) < mean_edge_length(0.1)
