"""Color recognition under varying illumination.

Pipeline: locate the dominant object (blur + threshold/edges + row-run
component labelling + bounding box), cut a 3x3 grid of 32x32 color cubes
from it, classify each cube with a small from-scratch CNN, and
majority-vote the results.  A fixed-range HSV classifier serves as the
comparison baseline, and a deterministic synthetic generator provides data.
"""

from .baseline import CalibrationError, HsvRange, calibrate_ranges, classify_hsv
from .cubes import CubeGrid, aggregate_votes, extract_color_cubes
from .image import (
    GrayImage,
    HsvPixel,
    Image,
    PpmError,
    read_ppm,
    rgb_to_gray,
    rgb_to_hsv,
    write_ppm,
)
from .net import (
    CheckpointError,
    ConvLayerParams,
    FcLayerParams,
    NetworkParams,
    PoolSpec,
    ShapeError,
    gradient_check,
    init_params,
    load_checkpoint,
    network_backward,
    network_forward,
    save_checkpoint,
    sgd_step,
)
from .segment import (
    BinaryMask,
    BoundRect,
    NoObjectError,
    detect_bounding_box,
)
from .synth import (
    COLOR_CLASSES,
    ColorClass,
    IlluminationSpec,
    SampleManifest,
    generate_dataset,
)
from .harness import EpochMetrics, EvalReport, compare_robustness, detect, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "BinaryMask",
    "BoundRect",
    "COLOR_CLASSES",
    "CalibrationError",
    "CheckpointError",
    "ColorClass",
    "ConvLayerParams",
    "CubeGrid",
    "EpochMetrics",
    "EvalReport",
    "FcLayerParams",
    "GrayImage",
    "HsvPixel",
    "HsvRange",
    "IlluminationSpec",
    "Image",
    "NetworkParams",
    "NoObjectError",
    "PoolSpec",
    "PpmError",
    "SampleManifest",
    "ShapeError",
    "aggregate_votes",
    "calibrate_ranges",
    "classify_hsv",
    "compare_robustness",
    "detect",
    "detect_bounding_box",
    "evaluate",
    "extract_color_cubes",
    "generate_dataset",
    "gradient_check",
    "init_params",
    "load_checkpoint",
    "network_backward",
    "network_forward",
    "read_ppm",
    "rgb_to_gray",
    "rgb_to_hsv",
    "save_checkpoint",
    "sgd_step",
    "train",
    "write_ppm",
]
