import functools
import json
import os
import sys
import threading
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from stdnet import (Adam, DeformationNetwork, EmptyInputError, NumericalError, Tape,
                    TrainConfig, evaluate, make_fixtures, midpoint_subdivide,
                    network_forward, train)
from stdnet.errors import DataFormatError
from stdnet.fixtures import FIXTURE_KINDS, DatasetPair, icosphere
from stdnet.losses import sample_surface, total_loss
from stdnet.mesh import TriangleMesh, format_obj
from stdnet.network import load_checkpoint, set_allocator_policy
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

    def test_weight_decay_shrinks_without_gradient(self):
        p = {"w": np.array([[10.0]])}
        opt = Adam(p, lr=0.1, weight_decay=1e-2)
        opt.step({"w": np.zeros((1, 1))})
        assert p["w"][0, 0] < 10.0

    def test_non_finite_gradient_changes_nothing(self):
        rng = np.random.default_rng(5)
        p = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4)),
             "last": rng.normal(size=(4, 2))}
        opt = Adam(p, lr=0.1, weight_decay=1e-2)
        grads = {name: rng.normal(size=a.shape) for name, a in p.items()}
        opt.step(grads)

        def snapshot():
            return ([a.tobytes() for a in p.values()], [a.tobytes() for a in opt.m.values()],
                    [a.tobytes() for a in opt.v.values()], opt.t)

        before = snapshot()
        grads["last"][2, 1] = np.nan
        with pytest.raises(NumericalError, match="last"):
            opt.step(grads)
        assert snapshot() == before

    def test_missing_gradient_raises_and_changes_nothing(self):
        p = {"w": np.array([[10.0, -3.0]]), "b": np.array([[1.0]])}
        opt = Adam(p, lr=0.1, weight_decay=1e-2)
        opt.step({"w": np.array([[0.5, 2.0]]), "b": np.array([[0.5]])})

        def snapshot():
            return ([a.tobytes() for a in p.values()], [a.tobytes() for a in opt.m.values()],
                    [a.tobytes() for a in opt.v.values()], opt.t)

        before = snapshot()
        with pytest.raises(ValueError, match="'w'"):
            opt.step({"b": np.array([[0.5]])})
        assert snapshot() == before

    def test_unknown_or_repeated_gradient_raises_and_changes_nothing(self):
        rng = np.random.default_rng(6)
        p = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}
        opt = Adam(p, lr=0.1, weight_decay=1e-2)
        grads = {name: rng.normal(size=a.shape) for name, a in p.items()}
        opt.update("w", grads["w"])

        def snapshot():
            return ([a.tobytes() for a in p.values()], [a.tobytes() for a in opt.m.values()],
                    [a.tobytes() for a in opt.v.values()], opt.t)

        before = snapshot()
        with pytest.raises(ValueError, match="'extra', which is not a parameter"):
            opt.step({"b": grads["b"], "extra": np.zeros((1, 1))})
        with pytest.raises(ValueError, match="'extra', which is not a parameter"):
            opt.update("extra", np.zeros((1, 1)))
        with pytest.raises(ValueError, match="'w' was already updated"):
            opt.update("w", grads["w"])
        with pytest.raises(ValueError, match="'w' was already updated"):
            opt.step(grads)
        assert snapshot() == before
        opt.step({"b": grads["b"]})  # the step the update opened closes once
        assert opt.t == 1

    def test_step_closes_only_when_every_parameter_is_updated(self):
        p = {"w": np.ones((2, 2)), "b": np.ones((1, 2))}
        opt = Adam(p, lr=0.1)
        opt.update("w", np.ones((2, 2)))
        with pytest.raises(ValueError, match="no gradient for parameter 'b'"):
            opt.step({})
        opt.update("b", np.ones((1, 2)))
        opt.step({})
        assert opt.t == 1
        opt.update("b", np.ones((1, 2)))  # a new step opens
        assert opt.t == 2

    def test_updates_then_close_equal_one_step(self):
        rng = np.random.default_rng(12)
        shapes = {"w": (4, 3), "b": (1, 3), "s": (1, 1)}
        p = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        q = {name: a.copy() for name, a in p.items()}
        by_dict = Adam(p, lr=1e-2, weight_decay=5e-3)
        by_update = Adam(q, lr=1e-2, weight_decay=5e-3)
        for _ in range(5):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            by_dict.step(grads)
            for name in reversed(shapes):
                by_update.update(name, grads[name])
            by_update.step({})
        for name in shapes:
            assert p[name].tobytes() == q[name].tobytes()
            assert by_dict.m[name].tobytes() == by_update.m[name].tobytes()
            assert by_dict.v[name].tobytes() == by_update.v[name].tobytes()

    def test_bit_identical_to_per_array_reference(self):
        shapes = {"w0": (4, 6), "b0": (1, 6), "w1": (6, 3), "b1": (1, 3), "s": (1, 1)}
        rng = np.random.default_rng(11)
        p = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        ref_p = {name: a.copy() for name, a in p.items()}
        ref_m = {name: np.zeros(a.size) for name, a in p.items()}
        ref_v = {name: np.zeros(a.size) for name, a in p.items()}
        lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 5e-3
        opt = Adam(p, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        for t in range(1, 21):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2)
                     for name, shape in shapes.items()}
            opt.step(grads)
            bc2, s1 = 1.0 - b2 ** t, lr / (1.0 - b1 ** t)
            for name, a in ref_p.items():
                reference_adam_update(a.reshape(-1), grads[name].reshape(-1),
                                      ref_m[name], ref_v[name],
                                      wd, b1, b2, eps, bc2, s1)
            for name in shapes:
                assert p[name].tobytes() == ref_p[name].tobytes(), (t, name)
                assert opt.m[name].tobytes() == ref_m[name].tobytes(), (t, name)
                assert opt.v[name].tobytes() == ref_v[name].tobytes(), (t, name)


def reference_adam_update(p, g, m, v, wd, b1, b2, eps, bc2, s1):
    """One Adam update of flat arrays, one temporary per operation: the reference."""
    gi = g + wd * p
    m *= b1
    m += (1.0 - b1) * gi
    v *= b2
    v += (1.0 - b2) * (gi * gi)
    p -= (m / (np.sqrt(v / bc2) + eps)) * s1


class TestTrainConfig:
    def test_json_round_trip_exact_keys(self):
        cfg = TrainConfig()
        text = json.dumps(asdict(cfg))
        assert TrainConfig.from_json(text) == cfg
        keys = set(json.loads(text))
        assert keys == {"lr", "beta1", "beta2", "eps", "weight_decay",
                        "iterations", "eval_every", "lambda_lap", "lambda_edge",
                        "samples", "seed", "hops", "channels", "layers_per_block",
                        "blocks", "normalization", "residual_every", "use_bias"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataFormatError):
            TrainConfig.from_json('{"learning_rate": 0.1}')

    @pytest.mark.parametrize("text", ['{"lambda_lap": NaN}', '{"lr": Infinity}',
                                      '{"eps": -Infinity}', '{"weight_decay": 1e400}',
                                      '{"lr": 1' + '0' * 400 + '}'],
                             ids=["nan", "inf", "-inf", "1e400", "int-10**400"])
    def test_non_finite_value_rejected(self, text):
        with pytest.raises(DataFormatError, match="must be a finite number"):
            TrainConfig.from_json(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(iterations=-1).validate()
        TrainConfig(iterations=0).validate()  # explicit no-op is allowed
        TrainConfig(weight_decay=0.0, lambda_lap=0.0, lambda_edge=0.0).validate()

    @pytest.mark.parametrize("changes, message", [
        ({"eps": 0.0, "weight_decay": 0.0}, "eps must be > 0"),
        ({"eps": -1e-8}, "eps must be > 0"),
        ({"weight_decay": -1e-4}, "weight_decay must be >= 0"),
        ({"lambda_lap": -0.3}, "lambda_lap must be >= 0"),
        ({"lambda_edge": -0.1}, "lambda_edge must be >= 0")])
    def test_adam_and_loss_weights_past_their_bound_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**changes).validate()


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

    def test_pair_with_an_empty_target_rejected(self):
        (pair,) = make_fixtures("cube-to-sphere")
        empty = TriangleMesh(pair.target.vertices, np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(EmptyInputError, match="pair 'hollow' has an empty target"):
            DatasetPair("hollow", pair.source, empty)

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

    @pytest.mark.parametrize("kind", ["cube-to-sphere", "two-box-chair", "box-to-ellipsoid"])
    def test_updates_in_the_sweep_equal_a_step_after_it(self, kind, monkeypatch):
        # one part, two parts and two pairs: the weights updated during
        # backward must give the rows and bytes of a backward that leaves
        # every gradient on its leaf followed by one Adam.step(dict)
        train_module = sys.modules["stdnet.train"]
        pairs = make_fixtures(kind, seed=0)
        cfg = tiny_config(iterations=4, eval_every=2)

        def run():
            net = DeformationNetwork(cfg.network_config())
            return train(net, pairs, cfg).rows, net.arena.tobytes()

        fused = run()
        monkeypatch.setattr(train_module, "_step", reference_step)
        assert run() == fused

    def test_non_finite_gradient_mid_sweep_aborts_with_checkpoint(self, tmp_path, monkeypatch):
        # a NaN reaching Adam in the middle of iteration 2's sweep, after
        # part of the network is already updated: the best snapshot must
        # replace those writes in the arena and in the checkpoint
        train_module = sys.modules["stdnet.train"]
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=4, eval_every=1)
        net = DeformationNetwork(cfg.network_config())
        names = list(net.parameters())
        poisoned = names[len(names) // 2]
        validated, written = [], []
        validation = train_module._validation_chamfer

        def recording_validation(*args):
            value = validation(*args)
            validated.append((value, net.arena.copy()))
            return value

        class PoisonedAdam(Adam):
            def update(self, name, g):
                if self.t == 2 and name == poisoned:
                    g[0, 0] = np.nan
                super().update(name, g)
                written.append((self.t, name))

        monkeypatch.setattr(train_module, "_validation_chamfer", recording_validation)
        monkeypatch.setattr(train_module, "Adam", PoisonedAdam)
        with pytest.raises(NumericalError, match=poisoned):
            train(net, [pair], cfg, out_dir=tmp_path)
        assert 0 < sum(t == 2 for t, _ in written) < len(names)
        best_val, best = validated[0]
        for value, arena in validated[1:]:
            if value < best_val:
                best_val, best = value, arena
        assert len(validated) == 2 and net.arena.tobytes() == best.tobytes()
        assert load_checkpoint(tmp_path / "checkpoint.stdn").arena.tobytes() == best.tobytes()
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert len(curve) == 3  # header, row 0 and iteration 1

    def test_finished_step_is_freed_before_validation(self, monkeypatch):
        # the loss graph and weight leaves of the step just taken must be
        # unreachable while validation runs
        train_module = sys.modules["stdnet.train"]
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=4, eval_every=2)
        net = DeformationNetwork(cfg.network_config())
        bind, loss_fn = net.bind, train_module.total_loss
        validation = train_module._validation_chamfer
        refs, seen = [], []

        def recording_bind(tape, requires_grad=True):
            bound = bind(tape, requires_grad)
            refs.extend(weakref.ref(t) for t in bound.values())
            return bound

        def recording_loss(*args, **kwargs):
            loss, report = loss_fn(*args, **kwargs)
            refs.append(weakref.ref(loss))
            return loss, report

        def checking_validation(*args):
            seen.append([r() is None for r in refs])
            return validation(*args)

        monkeypatch.setattr(net, "bind", recording_bind)
        monkeypatch.setattr(train_module, "total_loss", recording_loss)
        monkeypatch.setattr(train_module, "_validation_chamfer", checking_validation)
        train(net, [pair], cfg)
        assert len(seen) == 3 and seen[0] == []  # before training, then iterations 2 and 4
        assert all(seen[1]) and all(seen[2]) and len(seen[2]) > len(seen[1])

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


def reference_step(net, prepared, optimizer, config, it):
    """``train._step`` with a plain backward: every weight leaf keeps its
    ``.grad`` until one ``Adam.step(dict)`` after the sweep."""
    rng = np.random.default_rng([config.seed, 1, it])
    tape = Tape()
    bound = net.bind(tape)
    loss = None
    cd = lap = edge = 0.0
    for prep in prepared:
        blocks = net.forward_parts(tape, prep.parts, plans=prep.plans, bound=bound)
        target = sample_surface(prep.target.vertices, prep.target.faces, config.samples, rng)
        pair_loss, report = total_loss(
            blocks, target, config.samples, rng,
            lambda_lap=config.lambda_lap, lambda_edge=config.lambda_edge)
        loss = pair_loss if loss is None else loss + pair_loss
        cd += report.l_cd
        lap += report.l_lap
        edge += report.l_edge
    total = loss.item()
    loss.backward()
    optimizer.step({name: t.grad for name, t in bound.items()})
    return cd, lap, edge, total


def step_loss(tape: Tape, source_subdivisions: int = 2, channels: int = 32):
    """One training step's loss on cube-to-sphere, built as train() builds it;
    only the loss and the weight leaves outlive the call. At source
    subdivisions 2 the stages have 98/386/1538 vertices, at 0 8/26/98."""
    (pair,) = make_fixtures("cube-to-sphere")
    pair = replace(pair, source_subdivisions=source_subdivisions)
    cfg = tiny_config(channels=channels, layers_per_block=4, samples=200)
    net = DeformationNetwork(cfg.network_config())
    bound = net.bind(tape)
    rng = np.random.default_rng(0)
    blocks = net.forward_parts(tape, pair.source_meshes(), bound=bound)
    target = sample_surface(pair.target.vertices, pair.target.faces, cfg.samples, rng)
    loss, _ = total_loss(blocks, target, cfg.samples, rng)
    return loss, bound


class TestBackwardFreesTheGraph:
    def test_backward_returns_more_memory_than_it_takes(self):
        # the sweep frees each layer's saved input and mask as it passes, so
        # it ends below where it started and peaks at little more than the
        # weight gradients it leaves behind
        tracemalloc.start()
        try:
            loss, bound = step_loss(Tape())
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weight_grads = sum(t.grad.nbytes for t in bound.values())
        layer = 1538 * 32 * 8  # one float64 signal of the last stage
        assert after < before
        assert peak - before <= weight_grads + 4 * layer

    def test_only_the_loss_and_the_leaves_survive(self):
        tape = Tape()
        loss, bound = step_loss(tape)
        loss.backward()
        alive = [tape.node(i) for i in range(len(tape))]
        kept = {id(loss)} | {id(t) for t in bound.values()}
        assert {id(n) for n in alive if n is not None} == kept
        assert loss.grad is None
        assert all(t.grad is not None and t.grad.shape == t.shape for t in bound.values())

    def test_weight_gradients_handed_to_adam_are_never_all_held(self):
        # at the fixture's stage sizes the weights outweigh the activations,
        # so a sweep that keeps every .grad climbs toward the weight bytes;
        # one that hands each gradient to Adam.update holds a layer's at most
        def backward_peak(consume):
            tracemalloc.start()
            try:
                loss, bound = step_loss(Tape(), source_subdivisions=0, channels=96)
                optimizer = Adam({name: t.value for name, t in bound.items()})
                if consume:
                    for name, t in bound.items():
                        t.grad_consumer = functools.partial(optimizer.update, name)
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                loss.backward()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if consume:
                optimizer.step({})  # closes only if every weight was updated
                assert optimizer.t == 1 and all(t.grad is None for t in bound.values())
            return peak - before, sum(t.value.nbytes for t in bound.values())

        consumed, weight_grads = backward_peak(True)
        kept, _ = backward_peak(False)
        assert consumed < weight_grads / 4 < weight_grads / 2 < kept


class TestAllocatorPolicy:
    def test_does_nothing_off_the_main_thread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sys.modules["stdnet.network"], "_glibc_mallopt",
                            lambda: lambda *args: calls.append(args) or 1)
        results = []
        worker = threading.Thread(target=lambda: results.append(set_allocator_policy()))
        worker.start()
        worker.join()
        assert results == [False] and calls == []
        assert set_allocator_policy() is True and len(calls) == 2

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(sys.modules["stdnet.network"], "_glibc_mallopt", lambda: None)
        assert set_allocator_policy() is False

    def test_a_refused_setting_is_reported(self, monkeypatch):
        monkeypatch.setattr(sys.modules["stdnet.network"], "_glibc_mallopt",
                            lambda: lambda *args: 0)
        assert set_allocator_policy() is False

    @staticmethod
    def thread_recording_mallopt(monkeypatch):
        """A fake glibc whose lookups and ``mallopt`` calls note their thread."""
        lookups, calls = [], []

        def lookup():
            lookups.append(threading.current_thread())
            return lambda *args: calls.append(threading.current_thread()) or 1

        monkeypatch.setattr(sys.modules["stdnet.network"], "_glibc_mallopt", lookup)
        return lookups, calls

    def test_network_forward_sets_it(self, monkeypatch):
        lookups, calls = self.thread_recording_mallopt(monkeypatch)
        (pair,) = make_fixtures("cube-to-sphere")
        network_forward(DeformationNetwork(tiny_config().network_config()),
                        *pair.source_meshes())
        assert lookups == [threading.main_thread()]
        assert calls == [threading.main_thread()] * 2

    def test_evaluate_sets_it_from_the_main_thread_only(self, monkeypatch):
        # each pool worker runs network_forward, which must leave the
        # process-wide setting to the thread that called evaluate
        lookups, calls = self.thread_recording_mallopt(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pairs = make_fixtures("box-to-ellipsoid")
        assert len(pairs) >= 2
        evaluate(DeformationNetwork(tiny_config().network_config()), pairs, resolution=8)
        assert lookups and calls
        assert set(lookups) | set(calls) == {threading.main_thread()}

    def test_setting_twice_is_harmless(self):
        expected = sys.modules["stdnet.network"]._glibc_mallopt() is not None
        assert set_allocator_policy() is expected
        assert set_allocator_policy() is expected
        (pair,) = make_fixtures("cube-to-sphere")
        cfg = tiny_config(iterations=2)
        result = train(DeformationNetwork(cfg.network_config()), [pair], cfg)
        assert len(result.rows) == 3
