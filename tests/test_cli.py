import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import stdnet
from stdnet import cli
from stdnet.boxes import mesh_cuboid, save_structure
from stdnet.cli import main
from stdnet.errors import DataFormatError
from stdnet.fixtures import make_fixtures
from stdnet.mesh import TriangleMesh, format_obj, read_obj, write_obj
from stdnet.metrics import MAX_RESOLUTION
from stdnet.network import (CHECKPOINT_MAGIC, DeformationNetwork, network_forward,
                            save_checkpoint)
from stdnet.train import CURVE_HEADER, TrainConfig


@pytest.fixture
def unit_cube_json(tmp_path):
    path = tmp_path / "cube.json"
    from stdnet.boxes import ObbNode
    save_structure(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)), path)
    return path


@pytest.fixture
def small_checkpoint(tmp_path):
    path = tmp_path / "small.stdn"
    save_checkpoint(path, DeformationNetwork(
        TrainConfig(channels=6, layers_per_block=2).network_config()))
    return path


def run_stdnet(*args, code="from stdnet.cli import entry; entry()", env=()):
    """Run ``code`` with ``args`` in a fresh interpreter, ``env`` added to its
    environment; (exit code, stderr)."""
    src = str(Path(stdnet.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **dict(env)}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=300)
    return out.returncode, out.stderr


# Lowers the address-space limit of its own process, after the imports, so a
# request for petabytes fails at the allocation call without touching memory.
UNDER_3_GIB = """import resource, sys
from stdnet.cli import main
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))"""


def small_train_config(tmp_path, **overrides):
    cfg = dict(iterations=2, eval_every=1, samples=40, channels=6,
               layers_per_block=2, seed=0)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(TrainConfig(**cfg)), indent=2))
    return path


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_rejected(self, unit_cube_json, tmp_path):
        assert main(["meshbox", str(unit_cube_json), "--out", str(tmp_path),
                     "--bogus"]) == 1

    def test_unknown_subcommand_rejected(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_fixture_kind_rejected(self, tmp_path):
        assert main(["fixtures", "nope", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, flag, value, message", [
        ("fixtures", "--seed", "-1", "must be >= 0"),
        ("meshbox", "--subdivisions", "-1", "must be >= 0"),
        ("eval", "--resolution", "4", "must be >= 8"),
        ("eval", "--resolution", "10000000", f"must be <= {MAX_RESOLUTION}"),
        ("eval", "--threshold", "0", "must be > 0"),
    ])
    def test_out_of_range_argument_is_usage_error(self, command, flag, value, message,
                                                  tmp_path, unit_cube_json, small_checkpoint,
                                                  capsys):
        inputs = {"fixtures": ["cube-to-sphere"], "meshbox": [str(unit_cube_json)],
                  "eval": [str(small_checkpoint), "cube-to-sphere"]}[command]
        assert main([command, *inputs, flag, value, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_under_an_existing_file_is_data_error(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("not a directory\n")
        assert main(["fixtures", "cube-to-sphere", "--out", str(tmp_path / out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stdnet: error:") and err.count("\n") == 1

    def test_over_long_out_is_data_error(self, tmp_path, capsys):
        out = tmp_path / ("a" * 300)  # past NAME_MAX: OSError ENAMETOOLONG
        assert main(["fixtures", "cube-to-sphere", "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stdnet: error:") and err.count("\n") == 1

    def test_out_of_memory_is_data_error(self, tmp_path, small_checkpoint):
        cfg = tmp_path / "samples.json"
        cfg.write_text(json.dumps({"samples": 10**15, "iterations": 1}))
        for args in (["train", "cube-to-sphere", "--config", str(cfg)],
                     ["eval", str(small_checkpoint), "cube-to-sphere",
                      "--resolution", "100000"]):
            code, err = run_stdnet(*args, "--out", str(tmp_path / "o"), "--quiet",
                                   code=UNDER_3_GIB)
            assert code == 2, err
            assert err.startswith("stdnet: error:") and err.count("\n") == 1

    def test_value_error_in_a_handler_is_not_a_data_error(self, tmp_path, monkeypatch):
        obj = tmp_path / "cube.obj"
        write_obj(mesh_cuboid(make_fixtures("cube-to-sphere")[0].source), obj)

        def broken(mesh):
            raise ValueError("a bug, not bad data")

        monkeypatch.setattr(cli, "midpoint_subdivide", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["subdivide", str(obj), "--out", str(tmp_path / "o"), "--quiet"])


class TestMeshbox:
    def test_unit_cube_counts(self, unit_cube_json, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["meshbox", str(unit_cube_json), "--out", str(out),
                     "--subdivisions", "0", "--quiet"]) == 0
        lines = (out / "cube.obj").read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 8
        assert sum(1 for l in lines if l.startswith("f ")) == 12

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["meshbox", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path), "--quiet"]) == 2

    def test_malformed_json_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["meshbox", str(bad), "--out", str(tmp_path), "--quiet"]) == 2


    @pytest.mark.parametrize("field, index, value", [
        ("center", 0, float("nan")), ("axes", 4, float("nan")),
        ("extents", 2, float("inf"))])
    def test_non_finite_box_is_data_error(self, tmp_path, small_checkpoint, capsys,
                                          field, index, value):
        box = {"center": [0.0, 0.0, 0.0], "axes": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0],
               "extents": [0.5, 0.5, 0.5]}
        box[field][index] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(box))
        assert main(["meshbox", str(path), "--out", str(tmp_path / "m"), "--quiet"]) == 2
        assert main(["deform", str(small_checkpoint), str(path),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2
        assert capsys.readouterr().err.count("must be finite") == 2
        assert not (tmp_path / "m").exists() and not (tmp_path / "d").exists()

    @pytest.mark.parametrize("extents", [[1e308, 1.0, 1.0], [1.0, 1.7e308, 1.0]])
    def test_overflowing_box_is_data_error(self, tmp_path, small_checkpoint, capsys,
                                           recwarn, extents):
        # the corners center +- extents leave the float64 range
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"center": [1e308, 1e308, 0.0],
                                    "axes": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0],
                                    "extents": extents}))
        assert main(["meshbox", str(path), "--out", str(tmp_path / "m"), "--quiet"]) == 2
        assert main(["deform", str(small_checkpoint), str(path),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2
        assert capsys.readouterr().err.count("corners overflow") == 2
        assert not (tmp_path / "m").exists() and not (tmp_path / "d").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestSubdivide:
    def test_counts_after_subdivision(self, unit_cube_json, tmp_path):
        out = tmp_path / "out"
        main(["meshbox", str(unit_cube_json), "--out", str(out), "--quiet"])
        assert main(["subdivide", str(out / "cube.obj"), "--out", str(out),
                     "--quiet"]) == 0
        mesh = read_obj(out / "cube.subdivided.obj")
        assert (mesh.n_vertices, mesh.n_faces) == (26, 48)

    def test_byte_identical_across_runs(self, unit_cube_json, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["meshbox", str(unit_cube_json), "--out", str(out_a), "--quiet"])
        main(["subdivide", str(out_a / "cube.obj"), "--out", str(out_a), "--quiet"])
        main(["meshbox", str(unit_cube_json), "--out", str(out_b), "--quiet"])
        main(["subdivide", str(out_b / "cube.obj"), "--out", str(out_b), "--quiet"])
        assert ((out_a / "cube.subdivided.obj").read_bytes()
                == (out_b / "cube.subdivided.obj").read_bytes())


class TestFixtures:
    def test_emits_box_json_and_target_obj(self, tmp_path):
        out = tmp_path / "fx"
        assert main(["fixtures", "cube-to-sphere", "--out", str(out),
                     "--seed", "3", "--quiet"]) == 0
        assert (out / "cube_to_sphere.box.json").exists()
        assert (out / "cube_to_sphere.target.obj").exists()
        data = json.loads((out / "cube_to_sphere.box.json").read_text())
        assert set(data) == {"center", "axes", "extents", "children"}

    def test_seeded_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            main(["fixtures", "two-box-chair", "--out", str(out),
                  "--seed", "7", "--quiet"])
            outs.append((out / "two_box_chair.target.obj").read_bytes())
        assert outs[0] == outs[1]


def rewrite_header_config(checkpoint, **changes):
    """Overwrite keys of a checkpoint header's network config in place."""
    blob = checkpoint.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + header_len])
    header["config"].update(changes)
    new_header = json.dumps(header).encode("ascii")
    checkpoint.write_bytes(blob[:8] + len(new_header).to_bytes(8, "little")
                           + new_header + blob[16 + header_len:])


def deep_box_json(depth):
    """Box-tree JSON text with ``depth`` nested levels of one child each."""
    box = '"center": [0, 0, 0], "axes": [1, 0, 0, 0, 1, 0, 0, 0, 1], "extents": [1, 1, 1]'
    return ('{' + box + ', "children": [') * depth + '{' + box + '}' + ']}' * depth


def nested_json(depth):
    """``depth`` nested JSON arrays, built by repetition: no recursion at any depth."""
    return "[" * depth + "]" * depth


class TestTrainDeformEval:
    def test_full_pipeline(self, tmp_path, unit_cube_json):
        fx = tmp_path / "fx"
        assert main(["fixtures", "cube-to-sphere", "--out", str(fx), "--quiet"]) == 0
        cfg = small_train_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", str(fx), "--out", str(run), "--config", str(cfg),
                     "--quiet"]) == 0
        checkpoint = run / "checkpoint.stdn"
        assert checkpoint.exists()
        curve = (run / "curve.csv").read_text().splitlines()
        assert curve[0] == "iteration,l_cd,l_lap,l_edge,L_all,val_cd"
        assert len(curve) == 4  # header + row 0 + 2 iterations

        out = tmp_path / "deformed"
        assert main(["deform", str(checkpoint), str(unit_cube_json),
                     "--out", str(out), "--quiet"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["cube.block1.obj", "cube.block2.obj", "cube.block3.obj"]
        assert [read_obj(out / n).n_vertices for n in names] == [8, 26, 98]

        ev = tmp_path / "eval"
        assert main(["eval", str(checkpoint), str(fx), "--out", str(ev),
                     "--seed", "0", "--resolution", "16", "--quiet"]) == 0
        lines = (ev / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        assert "aggregate" in json.loads(lines[1])

    def test_train_with_builtin_kind(self, tmp_path):
        cfg = small_train_config(tmp_path, iterations=1)
        run = tmp_path / "run"
        assert main(["train", "cube-to-sphere", "--out", str(run),
                     "--config", str(cfg), "--quiet"]) == 0
        assert (run / "checkpoint.stdn").exists()

    def test_train_bad_dataset_is_data_error(self, tmp_path):
        cfg = small_train_config(tmp_path)
        assert main(["train", str(tmp_path / "nowhere"), "--out",
                     str(tmp_path / "run"), "--config", str(cfg), "--quiet"]) == 2

    def test_train_non_finite_is_numerical_error(self, tmp_path):
        fx = tmp_path / "fx"
        main(["fixtures", "cube-to-sphere", "--out", str(fx), "--quiet"])
        cfg = small_train_config(tmp_path, lr=1e200, iterations=3)
        assert main(["train", str(fx), "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 3

    def test_deform_obj_source(self, tmp_path):
        mesh = make_fixtures("cube-to-sphere")[0].source_meshes()[0]
        src = tmp_path / "input.obj"
        write_obj(mesh, src)
        cfg = TrainConfig(channels=6, layers_per_block=2, seed=0)
        net = DeformationNetwork(cfg.network_config())
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, net)
        out = tmp_path / "d"
        assert main(["deform", str(checkpoint), str(src), "--out", str(out),
                     "--quiet"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "input.block1.obj", "input.block2.obj", "input.block3.obj"]

    def test_deform_non_finite_obj_is_data_error(self, tmp_path):
        src = tmp_path / "input.obj"
        src.write_text("v 0 0 0\nv 1 0 0\nv 0 nan 0\nv 0 0 1\n"
                       "f 1 3 2\nf 1 2 4\nf 2 3 4\nf 3 1 4\n")
        cfg = TrainConfig(channels=6, layers_per_block=2, seed=0)
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, DeformationNetwork(cfg.network_config()))
        assert main(["deform", str(checkpoint), str(src), "--out", str(tmp_path / "d"),
                     "--quiet"]) == 2

    def test_deform_chair_writes_parts_joined_in_order(self, tmp_path):
        (pair,) = make_fixtures("two-box-chair", seed=0)
        box = tmp_path / "chair.box.json"
        save_structure(pair.source, box)
        net = DeformationNetwork(TrainConfig(channels=6, layers_per_block=2,
                                             seed=0).network_config())
        rng = np.random.default_rng(1)
        for block in net.blocks:  # non-zero displacements, so vertices move
            for w in block.coord.weights:
                w[...] = rng.normal(0.0, 1e-2, w.shape)
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, net)
        out = tmp_path / "d"
        assert main(["deform", str(checkpoint), str(box), "--subdivisions", "1",
                     "--out", str(out), "--quiet"]) == 0
        parts = [mesh_cuboid(leaf, 1) for leaf in pair.source.leaves()]
        assert len(parts) == 2
        per_part = [network_forward(net, part) for part in parts]
        for b, meshes in enumerate(zip(*per_part), start=1):
            faces, offset = [], 0
            for mesh in meshes:
                faces.append(mesh.faces + offset)
                offset += mesh.n_vertices
            joined = TriangleMesh(np.concatenate([m.vertices for m in meshes]),
                                  np.concatenate(faces))
            assert (out / f"chair.block{b}.obj").read_text() == format_obj(joined)
        assert not np.array_equal(per_part[0][-1].vertices[:8], parts[0].vertices)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_deform_non_finite_checkpoint_is_data_error(self, tmp_path, unit_cube_json,
                                                        capsys, value):
        net = DeformationNetwork(TrainConfig(channels=6, layers_per_block=2).network_config())
        net.blocks[0].coord.weights[0][0, 0] = value
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, net)
        assert main(["deform", str(checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["deform", "eval"])
    def test_huge_weights_are_numerical_error_before_any_write(
            self, tmp_path, unit_cube_json, capsys, command):
        net = DeformationNetwork(TrainConfig(channels=6, layers_per_block=2).network_config())
        net.arena[...] = 1e200  # finite, but the forward overflows
        checkpoint = tmp_path / "huge.stdn"
        save_checkpoint(checkpoint, net)
        source = str(unit_cube_json) if command == "deform" else "cube-to-sphere"
        args = [command, str(checkpoint), source, "--out", str(tmp_path / "o"), "--quiet"]
        assert main(args) == 3
        code, err = run_stdnet(*args)
        assert code == 3
        for text in (capsys.readouterr().err, err):  # no numpy RuntimeWarning either
            assert text.count("\n") == 1 and "block 1 predicted non-finite vertices" in text
        assert not (tmp_path / "o").exists()

    def test_deform_oversized_header_length_is_data_error(self, tmp_path, unit_cube_json):
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, DeformationNetwork(
            TrainConfig(channels=6, layers_per_block=2).network_config()))
        blob = bytearray(checkpoint.read_bytes())
        blob[8:16] = (2 ** 62).to_bytes(8, "little")
        checkpoint.write_bytes(bytes(blob))
        assert main(["deform", str(checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2

    def test_deform_trailing_checkpoint_bytes_is_data_error(self, tmp_path, unit_cube_json):
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, DeformationNetwork(
            TrainConfig(channels=6, layers_per_block=2).network_config()))
        with open(checkpoint, "ab") as fh:
            fh.write(b"\0" * 8)
        assert main(["deform", str(checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2

    def test_deform_oversized_architecture_is_data_error(self, tmp_path, unit_cube_json):
        # A million channels would need terabytes; the payload size gives it away
        # before anything is allocated.
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, DeformationNetwork(
            TrainConfig(channels=6, layers_per_block=2).network_config()))
        rewrite_header_config(checkpoint, channels=1000000)
        assert main(["deform", str(checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2

    @pytest.mark.parametrize("changes", [{"channels": 6.0}, {"hops": 2.0},
                                         {"seed": True}, {"use_bias": 1}])
    def test_deform_mistyped_header_config_is_data_error(self, tmp_path, unit_cube_json,
                                                          changes):
        # 6.0 channels passes the payload-size check; only the type gives it away.
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, DeformationNetwork(
            TrainConfig(channels=6, layers_per_block=2).network_config()))
        rewrite_header_config(checkpoint, **changes)
        assert main(["deform", str(checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2

    @pytest.mark.parametrize("changes", [{"iterations": 2.5}, {"channels": 4.0},
                                         {"samples": True}, {"use_bias": "yes"},
                                         {"lr": "fast"}])
    def test_train_mistyped_config_is_data_error(self, tmp_path, changes):
        cfg = small_train_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **changes}))
        assert main(["train", "cube-to-sphere", "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("changes", [{"lambda_lap": float("nan")}, {"lr": float("inf")},
                                         {"beta1": float("-inf")}])
    def test_train_non_finite_config_is_data_error(self, tmp_path, capsys, changes):
        # json.dumps writes the NaN / Infinity literals that Python's json accepts
        cfg = small_train_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **changes}))
        assert main(["train", "cube-to-sphere", "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_out_of_range_config_is_data_error(self, tmp_path, capsys):
        cfg = small_train_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "lr": -1}))
        assert main(["train", "cube-to-sphere", "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 2
        assert "lr must be > 0" in capsys.readouterr().err
        with pytest.raises(DataFormatError):
            TrainConfig.from_json(cfg.read_text())

    def test_train_unaddressable_config_is_data_error(self, tmp_path, capsys):
        # 10^12 channels need more bytes than an array can address; the config
        # check rejects it before the network is allocated.
        cfg = small_train_config(tmp_path, channels=10**12)
        count = TrainConfig(channels=10**12, layers_per_block=2).network_config().parameter_count()
        assert main(["train", "cube-to-sphere", "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 2
        assert f"{count} float64 parameters" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"seed": -1}, "seed must be >= 0"),
        ({"samples": 10**20}, f"{10**20} samples of 3 float64 coordinates exceed"),
        # eps = 0 with no weight decay used to turn the parameters NaN on a
        # zero gradient element and exit 3 one step later
        ({"eps": 0.0, "weight_decay": 0.0}, "eps must be > 0"),
        ({"weight_decay": -1e-4}, "weight_decay must be >= 0"),
        ({"lambda_lap": -0.3}, "lambda_lap must be >= 0"),
        ({"lambda_edge": -0.1}, "lambda_edge must be >= 0")])
    def test_train_config_past_its_bound_is_data_error(self, tmp_path, capsys, changes,
                                                       message):
        cfg = small_train_config(tmp_path, **changes)
        assert main(["train", "cube-to-sphere", "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stdnet: error:") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "run").exists()

    def test_deform_negative_header_seed_is_data_error(self, tmp_path, unit_cube_json,
                                                       small_checkpoint, capsys):
        rewrite_header_config(small_checkpoint, seed=-1)
        assert main(["deform", str(small_checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be >= 0" in err
        assert not (tmp_path / "d").exists()

    def test_deform_unaddressable_header_config_is_data_error(self, tmp_path, unit_cube_json,
                                                              small_checkpoint, capsys):
        rewrite_header_config(small_checkpoint, channels=10**12)
        assert main(["deform", str(small_checkpoint), str(unit_cube_json),
                     "--out", str(tmp_path / "d"), "--quiet"]) == 2
        assert "float64 parameters exceed" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_deeply_nested_box_tree_is_data_error(self, tmp_path, capsys):
        fx = tmp_path / "fx"
        main(["fixtures", "cube-to-sphere", "--out", str(fx), "--quiet"])
        (fx / "cube_to_sphere.box.json").write_text(deep_box_json(500))
        assert main(["meshbox", str(fx / "cube_to_sphere.box.json"),
                     "--out", str(tmp_path / "m"), "--quiet"]) == 2
        assert main(["train", str(fx), "--out", str(tmp_path / "run"),
                     "--config", str(small_train_config(tmp_path)), "--quiet"]) == 2
        checkpoint = tmp_path / "net.stdn"
        save_checkpoint(checkpoint, DeformationNetwork(
            TrainConfig(channels=6, layers_per_block=2).network_config()))
        assert main(["eval", str(checkpoint), str(fx), "--out", str(tmp_path / "e"),
                     "--quiet"]) == 2
        assert capsys.readouterr().err.count("box tree nested too deeply") == 3

    def test_deeply_nested_train_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"lr": ' + nested_json(200_000) + "}")
        assert main(["train", "cube-to-sphere", "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stdnet: error: invalid config JSON") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["deform", "eval"])
    def test_deeply_nested_header_config_is_data_error(self, tmp_path, unit_cube_json, capsys,
                                                       command):
        header = ('{"config": ' + nested_json(200_000) + ', "params": []}').encode("ascii")
        checkpoint = tmp_path / "net.stdn"
        checkpoint.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
        source = str(unit_cube_json) if command == "deform" else "cube-to-sphere"
        assert main([command, str(checkpoint), source, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stdnet: error: bad checkpoint header") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_eval_bad_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.stdn"
        bad.write_bytes(b"NOTMAGIC")
        fx = tmp_path / "fx"
        main(["fixtures", "cube-to-sphere", "--out", str(fx), "--quiet"])
        assert main(["eval", str(bad), str(fx), "--out", str(tmp_path / "m"),
                     "--quiet"]) == 2


def numpy_blas_name() -> str:
    """The BLAS numpy was built against; '' where numpy cannot say (before 1.25)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or "openblas" not in numpy_blas_name().lower(),
                    reason="OPENBLAS_CORETYPE selects OpenBLAS kernels on x86-64 only")
def test_training_curve_agrees_across_blas_kernels(tmp_path, monkeypatch):
    # A seed fixes the bytes for one BLAS kernel only: another kernel rounds
    # the products differently. The drift must stay below a relative 1e-9,
    # which the benchmark's reference tolerances assume. Nehalem is the
    # oldest x86-64 kernel OpenBLAS ships, so every x86-64 CPU can run it.
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"iterations": 3, "eval_every": 3}))
    curves = []
    for i, kernel in enumerate(({}, {"OPENBLAS_CORETYPE": "Nehalem"})):
        out = tmp_path / f"run{i}"
        code, err = run_stdnet("train", "cube-to-sphere", "--seed", "3", "--config", str(cfg),
                               "--out", str(out), "--quiet", env=kernel)
        assert code == 0, err
        curves.append((out / "curve.csv").read_text().splitlines())
    default, nehalem = curves
    assert len(default) == len(nehalem) == 5 and default[0] == nehalem[0] == CURVE_HEADER
    for row, other in zip(default[1:], nehalem[1:]):
        for a, b in zip(row.split(","), other.split(","), strict=True):
            assert (a == b == "") or float(a) == pytest.approx(float(b), rel=1e-9, abs=0)


class TestGradcheckCommand:
    def test_seed_7_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7"]) == 0
        err = capsys.readouterr().err
        assert "worst max rel error" in err

    def test_quiet_suppresses_report(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--quiet"]) == 0
        assert capsys.readouterr().err == ""
