"""stdnet: deform meshed bounding boxes onto target surfaces.

A small numpy-based engine built around topology-adaptive graph convolutions:
box hierarchies are meshed, refined by graph unpooling, and optimized against
sampled target surfaces with a chamfer + Laplacian + edge-length loss through
a built-in reverse-mode differentiation tape.
"""

__version__ = "0.1.0"

from .autodiff import (GradCheckReport, Tape, Tensor, concat_rows, gather_rows,
                       gradcheck)
from .boxes import (ObbNode, fit_obb, load_structure, mesh_cuboid,
                    save_structure, structure_from_dict, structure_to_dict)
from .errors import (DataFormatError, DegenerateMeshError, DimensionError,
                     EmptyInputError, NumericalError, StdnetError)
from .fixtures import (FIXTURE_KINDS, DatasetPair, icosphere, laplacian_smooth,
                       make_fixtures)
from .losses import (LossReport, SampleBatch, chamfer_loss, edge_loss,
                     laplacian_loss, sample_surface, total_loss)
from .mesh import (AdjacencyOperator, TriangleMesh, build_adjacency,
                   midpoint_subdivide, read_obj, write_obj)
from .metrics import MetricReport, evaluate, f1_score, voxel_iou, write_metrics
from .network import (BlockOutput, DeformationBlock, DeformationNetwork,
                      NetworkConfig, TagcnLayer, graph_unpool, load_checkpoint,
                      network_forward, save_checkpoint, tagcn_forward)
from .selfcheck import gradcheck_suite
from .train import Adam, TrainConfig, TrainResult, train

__all__ = [
    "Adam", "AdjacencyOperator", "BlockOutput", "DataFormatError",
    "DatasetPair", "DeformationBlock", "DeformationNetwork",
    "DegenerateMeshError", "DimensionError", "EmptyInputError",
    "FIXTURE_KINDS", "GradCheckReport", "LossReport", "MetricReport",
    "NetworkConfig", "NumericalError", "ObbNode", "SampleBatch", "StdnetError",
    "TagcnLayer", "Tape", "Tensor", "TrainConfig", "TrainResult",
    "TriangleMesh", "build_adjacency", "chamfer_loss",
    "concat_rows", "edge_loss", "evaluate", "f1_score", "fit_obb",
    "gather_rows", "gradcheck", "gradcheck_suite", "graph_unpool", "icosphere",
    "laplacian_loss", "laplacian_smooth", "load_checkpoint", "load_structure",
    "make_fixtures", "mesh_cuboid", "midpoint_subdivide",
    "network_forward", "read_obj", "sample_surface", "save_checkpoint",
    "save_structure", "structure_from_dict", "structure_to_dict",
    "tagcn_forward", "total_loss", "train", "voxel_iou", "write_metrics",
    "write_obj",
]
