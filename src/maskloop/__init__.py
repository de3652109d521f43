"""maskloop: click-driven mask annotation as a small MDP.

The pieces, roughly bottom-up:

- :mod:`maskloop.raster`: masks, images, exact distance transforms, RLE,
  PGM/PPM io, overlay rendering.
- :mod:`maskloop.env`: tasks, actions, episode state and stepping.
- :mod:`maskloop.expert`: the deterministic next-click rule.
- :mod:`maskloop.segmenters`: oracle and region-growing segmenters plus a
  remote-backed one.
- :mod:`maskloop.policy`: the action text grammar, prompt rendering,
  expert-backed policies, and reward models.
- :mod:`maskloop.trajgen`: the episode driver every expert and policy
  episode runs on, trajectory recording, (de)serialization,
  training-sample rendering, synthetic task sets.
- :mod:`maskloop.improve`: rollouts, filtering / repair refinement,
  dataset manifests.
- :mod:`maskloop.search`: reward-model-guided greedy search.
- :mod:`maskloop.metrics`: cumulative IoU, clicks-to-threshold, score
  regression metrics.
- :mod:`maskloop.remote` / :mod:`maskloop.mock_server`: the HTTP protocol
  client and a faithful in-process stand-in.
- :mod:`maskloop.cli`: the ``maskloop`` command.
"""

from .env import (
    Action,
    EnvConfig,
    EpisodeState,
    InitSpec,
    StepOutcome,
    Task,
    load_tasks,
    reset,
    reward,
    step,
    write_task_dir,
)
from .errors import (
    ActionParseError,
    DegenerateInputError,
    DuplicateTaskIdError,
    EpisodeDoneError,
    HookError,
    JsonlError,
    MaskLoopError,
    PnmError,
    ProtocolError,
    RemoteError,
    ReplayMismatchError,
    RleError,
    TemplateError,
)
from .expert import next_click
from .improve import DatasetManifest, TrainHook, refine_star_plus_verbose, rollout, star_filter, star_iteration
from .metrics import ciou, filter_masks, noc, noc_histogram, regression_metrics
from .policy import (
    ExpertPolicy,
    NoiseConfig,
    NoisyExpertPolicy,
    NoisyPrm,
    OraclePrm,
    Policy,
    Prm,
    PromptConfig,
    RemotePolicy,
    RemotePrm,
    expert_propose,
    format_action,
    parse_action,
    parse_stated_miou,
    prm_score,
    render_prompt,
)
from .raster import (
    BitMask,
    GrayImage,
    NormBox,
    NormPoint,
    RgbImage,
    RleMask,
    bbox,
    box_to_mask,
    edt_sq,
    iou,
    pixel_center,
    point_to_pixel,
    read_pgm_image,
    read_pgm_mask,
    read_ppm,
    render_overlay,
    rle_decode,
    rle_encode,
    write_pgm,
    write_ppm,
)
from .remote import RemoteEndpoint
from .search import SearchConfig, SearchTrace, prm_greedy
from .segmenters import (
    OracleSegmenter,
    RegionGrowSegmenter,
    RemoteSegmenter,
    Segmenter,
)
from .trajgen import (
    SftSample,
    Trajectory,
    TrajectoryStep,
    generate_trajectory,
    read_jsonl,
    render_sft,
    run_episode,
    synth_tasks,
    write_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionParseError",
    "BitMask",
    "DatasetManifest",
    "DegenerateInputError",
    "DuplicateTaskIdError",
    "EnvConfig",
    "EpisodeDoneError",
    "EpisodeState",
    "ExpertPolicy",
    "GrayImage",
    "HookError",
    "InitSpec",
    "JsonlError",
    "MaskLoopError",
    "NoiseConfig",
    "NoisyExpertPolicy",
    "NoisyPrm",
    "NormBox",
    "NormPoint",
    "OraclePrm",
    "OracleSegmenter",
    "PnmError",
    "Policy",
    "Prm",
    "PromptConfig",
    "ProtocolError",
    "RegionGrowSegmenter",
    "RemoteEndpoint",
    "RemoteError",
    "RemotePolicy",
    "RemotePrm",
    "RemoteSegmenter",
    "ReplayMismatchError",
    "RgbImage",
    "RleError",
    "RleMask",
    "SearchConfig",
    "SearchTrace",
    "Segmenter",
    "SftSample",
    "StepOutcome",
    "Task",
    "TemplateError",
    "TrainHook",
    "Trajectory",
    "TrajectoryStep",
    "bbox",
    "box_to_mask",
    "ciou",
    "edt_sq",
    "expert_propose",
    "filter_masks",
    "format_action",
    "generate_trajectory",
    "iou",
    "load_tasks",
    "next_click",
    "noc",
    "noc_histogram",
    "parse_action",
    "parse_stated_miou",
    "pixel_center",
    "point_to_pixel",
    "prm_greedy",
    "prm_score",
    "read_jsonl",
    "read_pgm_image",
    "read_pgm_mask",
    "read_ppm",
    "refine_star_plus_verbose",
    "regression_metrics",
    "render_overlay",
    "render_prompt",
    "render_sft",
    "reset",
    "reward",
    "rle_decode",
    "rle_encode",
    "rollout",
    "run_episode",
    "star_filter",
    "star_iteration",
    "step",
    "synth_tasks",
    "write_jsonl",
    "write_pgm",
    "write_ppm",
    "write_task_dir",
]
