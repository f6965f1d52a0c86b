"""Conversational group detection from annotated indoor scenes.

The pipeline regresses a grid heatmap of o-space likelihood from a
permutation-invariant encoding of the people present plus a room-layout
feature, then extracts group detections with non-maximal suppression and
assigns people to groups greedily.  Includes the tolerance-based
group-matching metric and a synthetic scene generator for end-to-end
verification.
"""

from .core import (
    DEFAULT_SPEC,
    OSpaceMap,
    Person,
    Point2,
    RoomSpec,
    Scene,
    canonical_partition,
    cell_center,
    non_singleton_blocks,
    point_to_cell,
)
from .dataset import (
    NormStats,
    SceneParseError,
    SplitRatios,
    augment,
    bucket_yaw,
    fit_norm_stats,
    flip_scene,
    load_scenes,
    parse_scenes,
    person_feature,
    save_scenes,
    scene_features,
    sequential_split,
)
from .encoder import EncoderConfig, EncoderWeights, encode, init_encoder
from .evaluation import (
    GroupMetrics,
    aggregate,
    group_matches,
    match_scene,
    snap_tolerance,
)
from .groundtruth import (
    DEFAULT_STRIDE_M,
    GaussianParams,
    OSpaceCenter,
    group_ospace,
    propose_center,
    render_heatmap,
    scene_centers,
    scene_target,
)
from .network import (
    HeadConfig,
    ModelWeights,
    TrainConfig,
    TrainingDivergedError,
    example_weight,
    forward,
    load_model,
    predict_heatmap,
    save_model,
    train,
    weighted_mse,
)
from .postprocess import AssignParams, Detection, assign_groups, nms, predict_scene
from .room import (
    LayoutMap,
    PcaModel,
    RoomFeature,
    extract_layout_features,
    load_precomputed,
    pca_fit,
    pca_project,
    room_feature_from_layout,
)
from .synthetic import SynthConfig, SynthesisError, generate
from .tuning import Grid, grid_search, grid_search_heatmaps

__version__ = "0.1.0"
