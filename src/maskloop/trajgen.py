"""Trajectory datasets: expert demonstrations, rendering, synthetic tasks.

A trajectory records an episode as (action, mask after, reward before,
reward after) steps. A random-click start also records its opening mask,
the segmenter's answer to the sampled clicks, so rendering finds every
mask in the record and runs no segmenter. Expert and policy episodes,
the expert's continuation of a repaired rollout and eval-noc all run on
run_episode, the one episode driver: env.step applies each action, and
run_episode alone decides when the episode ends. It records each step
as a TrajectoryStep, the mask RLE-encoded as the step is taken, so a
repair joins recorded and new steps as they are. Callers differ only in
how the next action is chosen and in the rule for keeping a step.
generate_trajectory runs the expert with two pruning rules: the episode
stops once reward reaches tau_stop, and a step whose reward gain falls
below tau_diff is dropped along with the rest of the episode (a
low-impact click means the remaining headroom is not worth imitating).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import env as envmod
from . import fields
from .env import (
    Action,
    EnvConfig,
    InitSpec,
    Task,
    action_from_dict,
    action_to_dict,
    init_from_dict,
    init_to_dict,
)
from .errors import FieldError, JsonlError
from .expert import click_for
from .policy import PromptConfig, format_action, miou_line, render_prompt
from .raster import (
    BitMask,
    GrayImage,
    RgbImage,
    RleMask,
    render_overlay,
    rle_decode,
    rle_encode,
)
from .segmenters import Segmenter


@dataclass(frozen=True)
class TrajectoryStep:
    action: Action
    mask_after: RleMask
    reward_before: float
    reward_after: float


@dataclass(frozen=True)
class Trajectory:
    task_id: str
    init: InitSpec
    steps: tuple[TrajectoryStep, ...]
    final_reward: float
    stop_reason: str
    # the mask a random-click init opens on; None for any other init
    opening_mask: RleMask | None = None

    def __post_init__(self):
        random = envmod.INIT_RANDOM
        if self.init.variant == random and self.opening_mask is None:
            raise FieldError("opening_mask", f"missing; a {random} init records its opening mask")
        if self.init.variant != random and self.opening_mask is not None:
            raise FieldError("opening_mask", f"recorded for init {self.init.variant}; only {random} has one")


class Episode(NamedTuple):
    steps: list[TrajectoryStep]
    reward: float
    stop_reason: str


def run_episode(
    task: Task,
    segmenter: Segmenter,
    config: EnvConfig,
    state: envmod.EpisodeState,
    choose: Callable[[envmod.EpisodeState], Action | None],
    keep: Callable[[float, float], bool] | None = None,
) -> Episode:
    """The one episode loop, and the one place an episode ends: from
    ``state``, before each step, once ``config.stop_reason`` names a limit
    (tau_stop, then max_steps), or once ``choose(state)`` has no action
    (converged). Each step goes through env.step and is scored with
    env.reward; one that ``keep(reward_after, reward_before)`` rejects is
    dropped and ends the episode as low-impact (no ``keep``: keep all).
    A kept step is recorded as taken, its mask RLE-encoded."""
    steps: list[TrajectoryStep] = []
    r = envmod.reward(state.mask, task.target)
    while True:
        reason = config.stop_reason(r, state.step)
        if reason is not None:
            return Episode(steps, r, reason)
        action = choose(state)
        if action is None:
            return Episode(steps, r, envmod.STOP_CONVERGED)
        after = envmod.step(state, action, task, segmenter)
        r_after = envmod.reward(after.mask, task.target)
        if keep is not None and not keep(r_after, r):
            return Episode(steps, r, envmod.STOP_LOW_IMPACT)
        steps.append(TrajectoryStep(action, rle_encode(after.mask), r, r_after))
        state, r = after, r_after


def expert_chooser(task: Task) -> Callable[[envmod.EpisodeState], Action | None]:
    return lambda state: click_for(task, state.mask)


def min_gain(margin: float) -> Callable[[float, float], bool]:
    """The generator's keep rule: a step must gain at least ``margin``."""
    return lambda after, before: after - before >= margin


def record_episode(
    task: Task,
    segmenter: Segmenter,
    config: EnvConfig,
    init: InitSpec,
    choose: Callable[[envmod.EpisodeState], Action | None],
    keep: Callable[[float, float], bool] | None = None,
) -> Trajectory:
    """Reset, then drive one episode; an opening mask that already reaches
    tau_stop records no step."""
    state = envmod.reset(task, init, segmenter)
    opening = rle_encode(state.mask) if init.variant == envmod.INIT_RANDOM else None
    ep = run_episode(task, segmenter, config, state, choose, keep)
    return Trajectory(task.id, init, tuple(ep.steps), ep.reward, ep.stop_reason, opening)


def generate_trajectory(
    task: Task,
    segmenter: Segmenter,
    config: EnvConfig = EnvConfig(),
    init: InitSpec = InitSpec.empty(),
) -> Trajectory:
    """Run the expert on one task and record the filtered episode."""
    return record_episode(
        task, segmenter, config, init, expert_chooser(task), min_gain(config.tau_diff)
    )


@dataclass(frozen=True)
class SftSample:
    """One training sample: overlay image, prompt, expected reply text."""

    step_index: int
    image: RgbImage
    prompt: str
    target: str


def render_sft(
    trajectory: Trajectory,
    task: Task,
    prompt_config: PromptConfig = PromptConfig(),
) -> list[SftSample]:
    """Render one sample per step: the pre-action overlay plus the action text.

    With miou_line enabled the reply text leads with the pre-action score,
    which is what a stepwise reward model trains on. Every mask comes from
    the record: a random-click init's opening mask, then each step's mask
    after; empty and box inits open as env.reset opens them, with no
    segmenter.
    """
    if trajectory.task_id != task.id:
        raise ValueError(f"trajectory for {trajectory.task_id!r} rendered on {task.id!r}")
    if trajectory.opening_mask is None:
        mask = envmod.reset(task, trajectory.init, None).mask
    else:  # render_overlay refuses a mask of another shape than the image's
        mask = rle_decode(trajectory.opening_mask)
    prompt = render_prompt(prompt_config.template_id, task.prompt)
    samples: list[SftSample] = []
    for t, st in enumerate(trajectory.steps):
        composite = render_overlay(task.image, mask, prompt_config.mask_color, prompt_config.alpha)
        text = format_action(st.action, prompt_config.coord_format)
        if prompt_config.miou_line:
            text = f"{miou_line(st.reward_before)}\n{text}"
        samples.append(SftSample(step_index=t, image=composite, prompt=prompt, target=text))
        mask = rle_decode(st.mask_after)
    return samples


# --- JSONL serialization ---------------------------------------------------


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    out: dict = {"task_id": trajectory.task_id, "init": init_to_dict(trajectory.init)}
    if trajectory.opening_mask is not None:
        out["opening_mask"] = trajectory.opening_mask.to_dict()
    return out | {
        "steps": [
            {
                "action": action_to_dict(st.action),
                "mask_after": st.mask_after.to_dict(),
                "reward_before": st.reward_before,
                "reward_after": st.reward_after,
            }
            for st in trajectory.steps
        ],
        "final_reward": trajectory.final_reward,
        "stop_reason": trajectory.stop_reason,
    }


def _step_from_dict(st: dict, where: str) -> TrajectoryStep:
    return TrajectoryStep(
        action=action_from_dict(fields.obj(st, "action", where), fields.path(where, "action")),
        mask_after=RleMask.from_dict(fields.obj(st, "mask_after", where), fields.path(where, "mask_after")),
        reward_before=fields.number(st, "reward_before", where),
        reward_after=fields.number(st, "reward_after", where),
    )


def trajectory_from_dict(obj: dict) -> Trajectory:
    init = init_from_dict(fields.obj(obj, "init"), "init")
    # read whenever present, so that Trajectory refuses it on another init
    has_opening = init.variant == envmod.INIT_RANDOM or "opening_mask" in obj
    steps = fields.array(obj, "steps")
    return Trajectory(
        task_id=fields.string(obj, "task_id"),
        init=init,
        steps=tuple(_step_from_dict(fields.obj(steps, i, "steps"), f"steps[{i}]") for i in range(len(steps))),
        final_reward=fields.number(obj, "final_reward"),
        stop_reason=fields.choice(obj, "stop_reason", envmod.STOP_REASONS),
        opening_mask=RleMask.from_dict(fields.obj(obj, "opening_mask"), "opening_mask") if has_opening else None,
    )


def write_jsonl(trajectories: Sequence[Trajectory], path: str) -> None:
    """One JSON object per line; stable field order for reproducible bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(json.dumps(trajectory_to_dict(traj)))
            fh.write("\n")


def read_jsonl(path: str) -> list[Trajectory]:
    """Inverse of write_jsonl; names the offending line on any failure."""
    out: list[Trajectory] = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
                raise JsonlError(path, i, f"invalid JSON: {e}")
            try:
                out.append(trajectory_from_dict(obj))
            except ValueError as e:  # a FieldError, or a value out of its range
                raise JsonlError(path, i, f"invalid trajectory record: {e}")
    return out


# --- synthetic tasks -------------------------------------------------------


def _disk_at(side: int, cx: int, cy: int, r: int) -> np.ndarray:
    """(x - cx)^2 + (y - cy)^2 <= r^2, evaluated on the disk's bounding box
    clipped to the raster."""
    mask = np.zeros((side, side), dtype=bool)
    x0, y0 = max(cx - r, 0), max(cy - r, 0)
    xs = np.arange(x0, min(cx + r + 1, side)) - cx
    ys = np.arange(y0, min(cy + r + 1, side)) - cy
    mask[y0 : y0 + ys.size, x0 : x0 + xs.size] = ys[:, None] ** 2 + xs**2 <= r * r
    return mask


def _build_disk(side: int, rng: np.random.Generator) -> np.ndarray:
    r = int(rng.integers(side // 8, side // 4 + 1))
    cx = int(rng.integers(r + 1, side - r - 1))
    cy = int(rng.integers(r + 1, side - r - 1))
    return _disk_at(side, cx, cy, r)


def _build_rectangle(side: int, rng: np.random.Generator) -> np.ndarray:
    w = int(rng.integers(side // 6, side // 2 + 1))
    h = int(rng.integers(side // 6, side // 2 + 1))
    x0 = int(rng.integers(1, side - w))
    y0 = int(rng.integers(1, side - h))
    mask = np.zeros((side, side), dtype=bool)
    mask[y0 : y0 + h, x0 : x0 + w] = True
    return mask


def _build_ring(side: int, rng: np.random.Generator) -> np.ndarray:
    r_out = int(rng.integers(max(5, side // 5), side // 3 + 1))
    width = int(rng.integers(2, max(3, r_out // 3) + 1))
    r_in = max(2, r_out - width)
    cx = int(rng.integers(r_out + 1, side - r_out - 1))
    cy = int(rng.integers(r_out + 1, side - r_out - 1))
    return _disk_at(side, cx, cy, r_out) & ~_disk_at(side, cx, cy, r_in)


def _build_bar(side: int, rng: np.random.Generator) -> np.ndarray:
    thickness = int(rng.integers(1, 3))
    length = int(rng.integers(side // 2, side - 4))
    mask = np.zeros((side, side), dtype=bool)
    # a horizontal bar, or a vertical one drawn through the transpose
    rows = mask if rng.random() < 0.5 else mask.T
    y0 = int(rng.integers(2, side - thickness - 2))
    x0 = int(rng.integers(2, side - length - 1))
    rows[y0 : y0 + thickness, x0 : x0 + length] = True
    return mask


def _build_scatter(side: int, rng: np.random.Generator) -> np.ndarray:
    k = int(rng.integers(2, 4))
    cell = side // 3
    cells = rng.choice(9, size=k, replace=False)
    mask = np.zeros((side, side), dtype=bool)
    for c in cells:
        gy, gx = divmod(int(c), 3)
        r = int(rng.integers(max(3, side // 16), max(4, side // 10) + 1))
        r = min(r, cell // 2 - 2)
        cx = gx * cell + int(rng.integers(r + 1, cell - r - 1))
        cy = gy * cell + int(rng.integers(r + 1, cell - r - 1))
        mask |= _disk_at(side, cx, cy, r)
    return mask


# family -> (prompt, builder), in the order synth_tasks cycles through them
FAMILIES: dict[str, tuple[str, Callable[[int, np.random.Generator], np.ndarray]]] = {
    "disk": ("the filled disk", _build_disk),
    "rectangle": ("the solid rectangle", _build_rectangle),
    "ring": ("the hollow ring", _build_ring),
    "bar": ("the thin bar", _build_bar),
    "scatter": ("the scattered blobs", _build_scatter),
}


def synth_tasks(n: int, side: int = 64, seed: int = 0) -> list[Task]:
    """Deterministic synthetic task set cycling through five shape families.

    Flat background and foreground intensities at least 64 levels apart,
    so intensity-based segmenters have something to hold on to. Each shape
    has its 4-connected component count by construction: a disk is one
    (column cx runs through every row), a rectangle or thin bar (<= 2 px
    wide) is one solid box, a hollow ring is one (its shape depends only on
    (r_out, r_in); the tests label every pair sides up to 1024 can draw),
    and a scatter is 2-3 disks in separate cells of a 3x3 grid, each clear
    of its cell's outer rows and columns, so no two touch."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if side < 16:
        raise ValueError(f"side must be >= 16, got {side}")
    rng = np.random.default_rng(seed)
    families = list(FAMILIES.values())
    tasks: list[Task] = []
    for i in range(n):
        prompt, build = families[i % len(families)]
        target = build(side, rng)
        lo = int(rng.integers(0, 256 - 64))
        hi = int(rng.integers(lo + 64, 256))
        if rng.random() < 0.5:
            bg, fg = lo, hi
        else:
            bg, fg = hi, lo
        img = np.full((side, side), bg, dtype=np.uint8)
        img[target] = fg
        tasks.append(
            Task(
                id=f"synth-{i:04d}",
                image=GrayImage(img),
                target=BitMask(target),
                prompt=prompt,
            )
        )
    return tasks
