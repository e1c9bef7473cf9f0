"""Command-line pipeline: fixtures, meshing, training, deformation, evaluation.

Exit codes: 0 success, 1 usage error, 2 data or format error (any library
error, operating-system error on a path, or running out of memory), 3
numerical failure (non-finite loss or block prediction, failed gradient
check). Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import load_structure, mesh_cuboid, save_structure
from .errors import DataFormatError, NumericalError, StdnetError
from .fixtures import FIXTURE_KINDS, DatasetPair, make_fixtures
from .mesh import TriangleMesh, join_indices, midpoint_subdivide, read_obj, write_obj
from .metrics import MAX_RESOLUTION, evaluate, write_metrics
from .network import DeformationNetwork, load_checkpoint, network_forward
from .selfcheck import gradcheck_suite
from .train import TrainConfig, train

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bounded(kind, low, strict: bool = False, high=None):
    """argparse type: a ``kind`` value >= low (> low when ``strict``), and <= ``high``."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="stdnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stdnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="emit a procedural dataset as OBJ + JSON")
    p.add_argument("kind", choices=FIXTURE_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("meshbox", help="mesh a bounding-box JSON file into an OBJ")
    p.add_argument("box_json")
    p.add_argument("--out", required=True)
    p.add_argument("--subdivisions", type=_bounded(int, 0), default=0)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("train", help="train on a fixtures directory or builtin kind")
    p.add_argument("dataset", help="fixtures directory or one of: " + ", ".join(FIXTURE_KINDS))
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=_bounded(int, 0))
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("deform", help="run a checkpoint on a box JSON or OBJ mesh")
    p.add_argument("checkpoint")
    p.add_argument("source", help="bounding-box JSON or OBJ mesh")
    p.add_argument("--out", required=True)
    p.add_argument("--subdivisions", type=_bounded(int, 0), default=0)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--resolution", type=_bounded(int, 8, high=MAX_RESOLUTION),
                   default=32)
    p.add_argument("--threshold", type=_bounded(float, 0.0, strict=True), default=1e-4)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("gradcheck", help="compare tape gradients to finite differences")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("subdivide", help="one midpoint-subdivision round of an OBJ")
    p.add_argument("obj")
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _load_dataset(path_or_kind: str, seed: int) -> list[DatasetPair]:
    if path_or_kind in FIXTURE_KINDS:
        return make_fixtures(path_or_kind, seed)
    root = Path(path_or_kind)
    if not root.is_dir():
        raise DataFormatError(f"{path_or_kind!r} is neither a directory nor a fixture kind")
    pairs = []
    for box_path in sorted(root.glob("*.box.json")):
        identifier = box_path.name[: -len(".box.json")]
        target_path = root / f"{identifier}.target.obj"
        if not target_path.exists():
            raise DataFormatError(f"missing target mesh {target_path}")
        pairs.append(DatasetPair(identifier, load_structure(box_path),
                                 read_obj(target_path)))
    if not pairs:
        raise DataFormatError(f"no '<id>.box.json' files in {path_or_kind!r}")
    return pairs


def _load_source_meshes(path: str, subdivisions: int) -> list[TriangleMesh]:
    if path.endswith(".json"):
        tree = load_structure(path)
        return [mesh_cuboid(leaf, subdivisions) for leaf in tree.leaves()]
    return [read_obj(path)]


def _cmd_fixtures(args) -> int:
    pairs = make_fixtures(args.kind, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for pair in pairs:
        box_path = os.path.join(args.out, f"{pair.identifier}.box.json")
        save_structure(pair.source, box_path)
        write_obj(pair.target, os.path.join(args.out, f"{pair.identifier}.target.obj"))
        _say(args, f"wrote {pair.identifier}.box.json / .target.obj")
    return 0


def _cmd_meshbox(args) -> int:
    meshes = _load_source_meshes(args.box_json, args.subdivisions)
    merged = TriangleMesh(np.concatenate([m.vertices for m in meshes]),
                          join_indices([m.n_vertices for m in meshes],
                                       [m.faces for m in meshes]))
    out_path = os.path.join(args.out, Path(args.box_json).stem.split(".")[0] + ".obj")
    os.makedirs(args.out, exist_ok=True)
    write_obj(merged, out_path)
    _say(args, f"wrote {out_path} ({merged.n_vertices} vertices, {merged.n_faces} faces)")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig()
    if args.config:
        with open(args.config, "r", encoding="ascii", errors="replace") as fh:
            config = TrainConfig.from_json(fh.read())
    if args.seed is not None:
        config.seed = args.seed
    dataset = _load_dataset(args.dataset, config.seed)
    net = DeformationNetwork(config.network_config())
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    result = train(net, dataset, config, out_dir=args.out, log=log)
    _say(args, f"checkpoint: {result.checkpoint_path}  curve: {result.curve_path}")
    return 0


def _cmd_deform(args) -> int:
    net = load_checkpoint(args.checkpoint)
    meshes = _load_source_meshes(args.source, args.subdivisions)
    blocks = network_forward(net, *meshes)
    stem = Path(args.source).stem.split(".")[0]
    os.makedirs(args.out, exist_ok=True)
    for b, mesh in enumerate(blocks, start=1):
        out_path = os.path.join(args.out, f"{stem}.block{b}.obj")
        write_obj(mesh, out_path)
        _say(args, f"wrote {out_path} ({mesh.n_vertices} vertices)")
    return 0


def _cmd_eval(args) -> int:
    net = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(args.dataset, args.seed)
    reports, aggregate = evaluate(net, dataset, seed=args.seed,
                                  threshold=args.threshold,
                                  resolution=args.resolution)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "metrics.jsonl")
    write_metrics(out_path, reports, aggregate)
    _say(args, f"wrote {out_path}")
    _say(args, f"mean chamfer {aggregate['mean_chamfer']:.6g}  "
               f"mean F1 {aggregate['mean_f1']:.2f}  mean IoU {aggregate['mean_iou']:.2f}")
    return 0


def _cmd_gradcheck(args) -> int:
    failed = False
    worst = 0.0
    for name, report in gradcheck_suite(args.seed):
        _say(args, f"{name:24s} {report}")
        worst = max(worst, report.max_rel_error)
        failed |= not report.passed
    _say(args, f"worst max rel error: {worst:.3e}")
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


def _cmd_subdivide(args) -> int:
    mesh = midpoint_subdivide(read_obj(args.obj))
    stem = Path(args.obj).stem.split(".")[0]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{stem}.subdivided.obj")
    write_obj(mesh, out_path)
    _say(args, f"wrote {out_path} ({mesh.n_vertices} vertices, {mesh.n_faces} faces)")
    return 0


_HANDLERS = {
    "fixtures": _cmd_fixtures,
    "meshbox": _cmd_meshbox,
    "train": _cmd_train,
    "deform": _cmd_deform,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "subdivide": _cmd_subdivide,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except NumericalError as exc:
        print(f"stdnet: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (StdnetError, OSError, MemoryError) as exc:
        print(f"stdnet: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
