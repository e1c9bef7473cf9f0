import json

import numpy as np
import pytest

from stdnet.boxes import mesh_cuboid, save_structure
from stdnet.cli import main
from stdnet.fixtures import make_fixtures
from stdnet.mesh import TriangleMesh, format_obj, read_obj, write_obj
from stdnet.network import DeformationNetwork, network_forward, save_checkpoint
from stdnet.train import TrainConfig


@pytest.fixture
def unit_cube_json(tmp_path):
    path = tmp_path / "cube.json"
    from stdnet.boxes import ObbNode
    save_structure(ObbNode(np.zeros(3), np.eye(3), (0.5, 0.5, 0.5)), path)
    return path


def small_train_config(tmp_path, **overrides):
    cfg = dict(iterations=2, eval_every=1, samples=40, channels=6,
               layers_per_block=2, seed=0)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(TrainConfig(**cfg).to_json())
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    def test_eval_bad_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.stdn"
        bad.write_bytes(b"NOTMAGIC")
        fx = tmp_path / "fx"
        main(["fixtures", "cube-to-sphere", "--out", str(fx), "--quiet"])
        assert main(["eval", str(bad), str(fx), "--out", str(tmp_path / "m"),
                     "--quiet"]) == 2


class TestGradcheckCommand:
    def test_seed_7_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7"]) == 0
        err = capsys.readouterr().err
        assert "worst max rel error" in err

    def test_quiet_suppresses_report(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--quiet"]) == 0
        assert capsys.readouterr().err == ""
