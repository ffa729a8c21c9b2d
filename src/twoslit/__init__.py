"""Geometry of two-slit (crossed-slit) and pushbroom cameras.

Cameras here collect, for each space point, the unique line that meets
two fixed skew slits and the point. The package covers the projective
line algebra, quadratic and linear forms of the projection, the 2x2x2x2
epipolar tensor with its linear estimator and camera recovery, metric
decompositions of special configurations, and self-calibration from
many cameras, plus synthetic-data experiment harnesses.
"""

from .errors import DegeneracyError, TwoSlitError, ValidationError
from .projective import (
    RetinalFrame,
    cosine_distance,
    dual_matrix,
    join_line_point,
    join_points,
    line_in_plane,
    line_star,
    line_to_image_map,
    lines_meet,
    meet_line_plane,
    plane_meet_plane,
    plucker_pairing,
    point_on_line,
    primal_matrix,
    proj_equal,
    quadric_residual,
    validate_line,
)
from .congruence import (
    GeneralCongruence,
    QuadraticCamera,
    TwoSlitCongruence,
    essential_map_general,
    inverse_project,
    quadratic_project,
    transversal_homography,
    two_slit_essential,
)
from .cameras import (
    ParallelDecomposition,
    PushbroomDecomposition,
    TwoSlitCamera,
    apply_space_transform,
    base_line,
    camera_distance,
    cameras_equal,
    decompose_parallel,
    decompose_pushbroom,
    default_retinal_plane,
    inverse_ray,
    is_parallel,
    project,
    slits,
    to_quadratic,
)
from .epipolar import (
    EpipolarTensor,
    MinorMatrix,
    cameras_from_minor_matrix,
    epipolar_residual,
    essential_compose,
    essential_decompose,
    estimate_tensor_linear,
    multilinear_transform,
    normal_form_transform,
    recover_minor_matrices,
    tensor_from_cameras,
    tensors_equal,
    transpose_conjugate,
    two_configurations,
)
from .selfcal import (
    OMEGA_DUAL,
    DualAbsoluteQuadric,
    UpgradeResult,
    estimate_daq,
    extract_upgrade,
    similarity_defect,
)
from .synthetic import (
    SceneConfig,
    SyntheticScene,
    default_camera_pair,
    euclidean_transform,
    generate_scene,
    parallel_camera_pair,
    random_calibrated_cameras,
    random_rotation,
    reference_camera_pair,
    refine_triangulation,
    reprojection_rms,
    rotation_about_axis,
    triangulate_correspondence,
)
from .experiments import (
    SelfcalConfig,
    SelfcalReport,
    SfmReport,
    run_selfcal_experiment,
    run_sfm_experiment,
)
from . import golden

__version__ = "0.1.0"

__all__ = [
    "DegeneracyError", "TwoSlitError", "ValidationError",
    "RetinalFrame", "cosine_distance", "dual_matrix", "join_line_point",
    "join_points", "line_in_plane", "line_star", "line_to_image_map",
    "lines_meet", "meet_line_plane", "plane_meet_plane", "plucker_pairing",
    "point_on_line", "primal_matrix", "proj_equal", "quadric_residual",
    "validate_line",
    "GeneralCongruence", "QuadraticCamera", "TwoSlitCongruence",
    "essential_map_general", "inverse_project", "quadratic_project",
    "transversal_homography", "two_slit_essential",
    "ParallelDecomposition", "PushbroomDecomposition", "TwoSlitCamera",
    "apply_space_transform", "base_line", "camera_distance", "cameras_equal",
    "decompose_parallel", "decompose_pushbroom", "default_retinal_plane",
    "inverse_ray", "is_parallel", "project", "slits", "to_quadratic",
    "EpipolarTensor", "MinorMatrix", "cameras_from_minor_matrix",
    "epipolar_residual", "essential_compose", "essential_decompose",
    "estimate_tensor_linear", "multilinear_transform", "normal_form_transform",
    "recover_minor_matrices", "tensor_from_cameras", "tensors_equal",
    "transpose_conjugate", "two_configurations",
    "OMEGA_DUAL", "DualAbsoluteQuadric", "UpgradeResult", "estimate_daq",
    "extract_upgrade", "similarity_defect",
    "SceneConfig", "SyntheticScene", "default_camera_pair",
    "euclidean_transform", "generate_scene", "parallel_camera_pair",
    "random_calibrated_cameras", "random_rotation", "reference_camera_pair",
    "refine_triangulation", "reprojection_rms", "rotation_about_axis",
    "triangulate_correspondence",
    "SelfcalConfig", "SelfcalReport", "SfmReport", "run_selfcal_experiment",
    "run_sfm_experiment",
    "golden",
]
