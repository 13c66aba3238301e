"""Gaussian bounding boxes, Hellinger-based overlap metrics, and losses.

Object regions are encoded as 2D Gaussians (GaussBox).  The package
provides conversions to and from boxes, polygons, and ellipses; the
Bhattacharyya/Hellinger similarity stack with analytic gradients; IoU
ground-truth oracles; a toy gradient-descent fitting harness; and the
`gbbkit` CLI for batch experiments.
"""

from .annotations import AnnotationRecord, IngestResult, generate_synthetic, ingest_annotations
from .batch import iou_ellipse_pairs
from .convert import (
    DEFAULT_LEVEL_SET_RADIUS,
    constrained_to_cov,
    cov_from_angles,
    ellipse_to_gbb,
    gbb_to_angle_cov,
    gbb_to_ellipse,
    gbb_to_hbb,
    gbb_to_obb,
    hbb_to_gbb,
    mask_to_gbb,
    mask_to_hbb,
    mask_to_obb,
    obb_to_gbb,
    r_from_tau,
    shape_to_gbb,
    tau_from_r,
    to_crisp,
    to_hbb,
    to_obb,
    to_polygon,
)
from .gradients import HbbGradient, grad_general, grad_l1_hbb, grad_l2_hbb
from .metrics import (
    BhattacharyyaTerms,
    SimilarityReport,
    bhattacharyya_terms,
    loss_l2_axis_aligned,
    mask_bc,
    mask_probiou,
    similarity,
)
from .raster import (
    RasterGrid,
    iou_between,
    iou_convex,
    iou_hbb,
    iou_raster,
)
from .regress import (
    FitStep,
    FitTrajectory,
    GradientProbe,
    LossSchedule,
    OptimizerConfig,
    fit_gbb,
    gradient_probe,
    schedule_loss,
)
from .types import (
    POSITIVE_DEFINITE_EPS,
    AngleCov,
    ConstrainedCovParams,
    Ellipse,
    GaussBox,
    Hbb,
    Obb,
    PolygonMask,
    validate_gbb,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # types
    "GaussBox", "AngleCov", "Hbb", "Obb", "Ellipse", "PolygonMask",
    "ConstrainedCovParams", "validate_gbb", "POSITIVE_DEFINITE_EPS",
    # conversions
    "hbb_to_gbb", "obb_to_gbb", "cov_from_angles", "gbb_to_angle_cov",
    "gbb_to_obb", "mask_to_gbb", "mask_to_hbb", "mask_to_obb",
    "gbb_to_ellipse", "ellipse_to_gbb", "gbb_to_hbb", "shape_to_gbb", "to_crisp",
    "to_hbb", "to_obb", "to_polygon",
    "r_from_tau", "tau_from_r", "constrained_to_cov", "DEFAULT_LEVEL_SET_RADIUS",
    # metrics
    "BhattacharyyaTerms", "SimilarityReport", "bhattacharyya_terms",
    "similarity", "loss_l2_axis_aligned", "mask_bc", "mask_probiou",
    # gradients
    "HbbGradient", "grad_l2_hbb", "grad_l1_hbb", "grad_general",
    # raster
    "RasterGrid", "iou_raster", "iou_hbb", "iou_convex", "iou_between",
    # batch kernels
    "iou_ellipse_pairs",
    # regression harness
    "LossSchedule", "OptimizerConfig", "FitStep", "FitTrajectory",
    "GradientProbe", "schedule_loss", "fit_gbb", "gradient_probe",
    # annotations
    "AnnotationRecord", "IngestResult", "ingest_annotations", "generate_synthetic",
]
