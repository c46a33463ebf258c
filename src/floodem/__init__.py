"""Semi-supervised flood-scene classification with unstructured and structured EM."""

from .errors import (
    CapError,
    DataError,
    DegenerateError,
    DimError,
    EmptyError,
    FloodemError,
    FormatError,
    InitError,
    IoError,
    SpecError,
)
from .gaussian import GaussianParams, log_pdf, regularize, weighted_mle
from .grid import (
    LabelSet,
    RasterScene,
    SceneSpec,
    generate_scene,
    load_labels,
    load_scene,
    sample_labels,
    save_labels,
    save_scene,
)
from .hmt import EmTrace, FlowTree, GmmModel, HmtModel, TreePosteriors, build_flow_tree, map_decode
from .metrics import ClassReport, RocCurve, class_report, gamma_index, roc_auc, salt_pepper_count

__version__ = "0.1.0"

__all__ = [
    "CapError",
    "ClassReport",
    "DataError",
    "DegenerateError",
    "DimError",
    "EmTrace",
    "EmptyError",
    "FloodemError",
    "FlowTree",
    "FormatError",
    "GaussianParams",
    "GmmModel",
    "HmtModel",
    "InitError",
    "IoError",
    "LabelSet",
    "RasterScene",
    "RocCurve",
    "SceneSpec",
    "SpecError",
    "TreePosteriors",
    "build_flow_tree",
    "class_report",
    "gamma_index",
    "generate_scene",
    "load_labels",
    "load_scene",
    "log_pdf",
    "map_decode",
    "regularize",
    "roc_auc",
    "salt_pepper_count",
    "sample_labels",
    "save_labels",
    "save_scene",
    "weighted_mle",
]
