"""The click-annotation decision process: its states and its transition.

An episode works on one task (image, target mask, object description).
The state is the current mask plus the full action history; a step hands
the whole history to a segmenter, which returns the next mask, and the
reward is the IoU of that mask against the target. There is no
discounting anywhere. ``step`` is the transition alone: it neither scores
the new mask nor ends the episode. The limits (tau_stop, max_steps) are
stated once, in ``EnvConfig.stop_reason``, and the one episode driver,
``trajgen.run_episode``, applies them.
"""

from __future__ import annotations

import base64
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import fields
from .errors import DuplicateTaskIdError, FieldError, MaskShapeError
from .raster import (
    BitMask,
    GrayImage,
    NormBox,
    NormPoint,
    bbox,
    box_to_mask,
    component_labels,
    encode_pgm,
    iou,
    read_pgm_image,
    read_pgm_mask,
    write_pgm,
)
from .util import write_json

POSITIVE_CLICK = "positive_click"
NEGATIVE_CLICK = "negative_click"
BOX = "box"

# why an episode ended, as trajgen.run_episode records it
STOP_TAU = "reached_tau_stop"
STOP_MAX = "max_steps"
STOP_LOW_IMPACT = "low_impact"
STOP_CONVERGED = "converged"
STOP_REASONS = (STOP_TAU, STOP_MAX, STOP_LOW_IMPACT, STOP_CONVERGED)


@dataclass(frozen=True)
class Action:
    """A signed click or a box prompt."""

    kind: str
    point: NormPoint | None = None
    box: NormBox | None = None

    def __post_init__(self):
        if self.kind in (POSITIVE_CLICK, NEGATIVE_CLICK):
            if self.point is None or self.box is not None:
                raise ValueError(f"{self.kind} takes exactly a point")
        elif self.kind == BOX:
            if self.box is None or self.point is not None:
                raise ValueError("box action takes exactly a box")
        else:
            raise ValueError(f"unknown action kind {self.kind!r}")

    @classmethod
    def positive(cls, x: float, y: float) -> "Action":
        return cls(POSITIVE_CLICK, point=NormPoint(x, y))

    @classmethod
    def negative(cls, x: float, y: float) -> "Action":
        return cls(NEGATIVE_CLICK, point=NormPoint(x, y))

    @classmethod
    def box_prompt(cls, box: NormBox) -> "Action":
        return cls(BOX, box=box)

    @property
    def is_click(self) -> bool:
        return self.kind in (POSITIVE_CLICK, NEGATIVE_CLICK)

    @property
    def sign(self) -> int:
        """+1 for positive clicks, -1 for negative clicks."""
        if not self.is_click:
            raise ValueError("box actions carry no sign")
        return 1 if self.kind == POSITIVE_CLICK else -1


def action_to_dict(action: Action) -> dict:
    if action.is_click:
        return {"kind": action.kind, "x": action.point.x, "y": action.point.y}
    b = action.box
    return {"kind": BOX, "x1": b.x1, "y1": b.y1, "x2": b.x2, "y2": b.y2}


def action_from_dict(obj: dict, where: str = "") -> Action:
    """Read an action from JSON; ``where`` is its path, for the errors."""
    kind = fields.choice(obj, "kind", (POSITIVE_CLICK, NEGATIVE_CLICK, BOX), where)
    if kind == BOX:
        return Action(BOX, box=NormBox(*(fields.number(obj, k, where) for k in ("x1", "y1", "x2", "y2"))))
    return Action(kind, point=NormPoint(fields.number(obj, "x", where), fields.number(obj, "y", where)))


@dataclass(frozen=True)
class Task:
    """One annotation problem: image, nonempty target mask, description."""

    id: str
    image: GrayImage
    target: BitMask
    prompt: str

    def __post_init__(self):
        if self.image.shape != self.target.shape:
            raise MaskShapeError(
                f"task {self.id}: image {self.image.shape} vs target {self.target.shape}"
            )
        if self.target.is_empty():
            raise ValueError(f"task {self.id}: empty target mask")

    @cached_property
    def target_labels(self) -> np.ndarray:
        """The target's 4-connected component labels, computed on first use."""
        return component_labels(self.target)

    @cached_property
    def image_pgm_b64(self) -> str:
        """The image's PGM bytes in base64, as the remote endpoints take
        them, encoded on first use."""
        return base64.b64encode(encode_pgm(self.image)).decode("ascii")


@dataclass(frozen=True)
class EnvConfig:
    """Episode limits: the step budget and tau_stop, which ``stop_reason``
    applies, and tau_diff, the generator's keep margin (trajgen.min_gain)."""

    max_steps: int = 7
    tau_stop: float = 0.95
    tau_diff: float = 0.01

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (0.0 <= self.tau_stop <= 1.0):
            raise ValueError(f"tau_stop out of [0, 1]: {self.tau_stop}")
        if not (0.0 <= self.tau_diff <= 1.0):
            raise ValueError(f"tau_diff out of [0, 1]: {self.tau_diff}")

    def stop_reason(self, reward: float, step: int) -> str | None:
        """Why an episode at ``reward`` after ``step`` steps ends (tau_stop
        first, then max_steps), or None if it goes on."""
        if reward >= self.tau_stop:
            return STOP_TAU
        return STOP_MAX if step >= self.max_steps else None


INIT_EMPTY = "empty"
INIT_BOX = "from_box"
INIT_RANDOM = "from_random_clicks"


@dataclass(frozen=True)
class InitSpec:
    """How an episode starts: blank, a filled box, or seeded random clicks."""

    variant: str = INIT_EMPTY
    box: NormBox | None = None
    n_pos: int = 0
    n_neg: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.variant == INIT_EMPTY:
            pass
        elif self.variant == INIT_BOX:
            if self.box is None:
                raise ValueError("from_box init needs a box")
        elif self.variant == INIT_RANDOM:
            if self.n_pos < 0 or self.n_neg < 0 or self.n_pos + self.n_neg < 1:
                raise ValueError("random init needs at least one click")
            if self.seed is None or self.seed < 0:  # numpy takes no negative seed
                raise ValueError(f"random init needs a seed of at least 0, got {self.seed}")
        else:
            raise ValueError(f"unknown init variant {self.variant!r}")

    @classmethod
    def empty(cls) -> "InitSpec":
        return cls(INIT_EMPTY)

    @classmethod
    def from_box(cls, box: NormBox) -> "InitSpec":
        return cls(INIT_BOX, box=box)

    @classmethod
    def from_random_clicks(cls, n_pos: int, n_neg: int, seed: int) -> "InitSpec":
        return cls(INIT_RANDOM, n_pos=n_pos, n_neg=n_neg, seed=seed)


def init_to_dict(init: InitSpec) -> dict:
    if init.variant == INIT_EMPTY:
        return {"variant": INIT_EMPTY}
    if init.variant == INIT_BOX:
        b = init.box
        return {"variant": INIT_BOX, "box": [b.x1, b.y1, b.x2, b.y2]}
    return {
        "variant": INIT_RANDOM,
        "n_pos": init.n_pos,
        "n_neg": init.n_neg,
        "seed": init.seed,
    }


def init_from_dict(obj: dict, where: str = "") -> InitSpec:
    """Read an episode start from JSON; ``where`` is its path, for the errors."""
    variant = fields.choice(obj, "variant", (INIT_EMPTY, INIT_BOX, INIT_RANDOM), where)
    if variant == INIT_EMPTY:
        return InitSpec.empty()
    if variant == INIT_BOX:
        b = fields.array(obj, "box", where)
        if len(b) != 4:
            raise FieldError(fields.path(where, "box"), f"expected [x1, y1, x2, y2], got {len(b)} values")
        return InitSpec.from_box(NormBox(*(fields.number(b, i, fields.path(where, "box")) for i in range(4))))
    n_pos, n_neg, seed = (fields.integer(obj, k, where) for k in ("n_pos", "n_neg", "seed"))
    return InitSpec.from_random_clicks(n_pos, n_neg, seed)


@dataclass(frozen=True)
class EpisodeState:
    """Immutable episode snapshot; step() returns a fresh one."""

    step: int
    mask: BitMask
    history: tuple[Action, ...] = field(default_factory=tuple)
    init_box: NormBox | None = None


def reward(mask: BitMask, target: BitMask) -> float:
    """Episode reward: IoU of the current mask against the target."""
    return iou(mask, target)


def reset(task: Task, init: InitSpec, segmenter) -> EpisodeState:
    """Start an episode.

    Empty and box inits never touch the segmenter; random-click inits run
    the segmenter once on the sampled clicks, which also become the
    opening history.
    """
    w, h = task.image.width, task.image.height
    if init.variant == INIT_EMPTY:
        return EpisodeState(step=0, mask=BitMask.zeros(w, h))
    if init.variant == INIT_BOX:
        return EpisodeState(step=0, mask=box_to_mask(init.box, w, h), init_box=init.box)
    rng = np.random.default_rng(init.seed)
    b = bbox(task.target)
    pts = rng.uniform(
        low=[b.x1, b.y1], high=[b.x2, b.y2], size=(init.n_pos + init.n_neg, 2)
    )
    clicks = tuple(
        Action.positive(x, y) if i < init.n_pos else Action.negative(x, y)
        for i, (x, y) in enumerate(pts)
    )
    mask = segmenter.segment(task, clicks, None)
    _check_mask(task, mask)
    return EpisodeState(step=0, mask=mask, history=clicks)


def step(state: EpisodeState, action: Action, task: Task, segmenter) -> EpisodeState:
    """Apply one action: re-segment from the full history and advance. The
    segmenter gets every click and the latest box action, else the init box."""
    history = state.history + (action,)
    clicks = tuple(a for a in history if a.is_click)
    box = next((a.box for a in reversed(history) if a.kind == BOX), state.init_box)
    mask = segmenter.segment(task, clicks, box)
    _check_mask(task, mask)
    return EpisodeState(step=state.step + 1, mask=mask, history=history, init_box=state.init_box)


def _check_mask(task: Task, mask: BitMask) -> None:
    if mask.shape != task.image.shape:
        raise MaskShapeError(
            f"task {task.id}: segmenter returned {mask.shape}, expected {task.image.shape}"
        )


# --- task manifests ------------------------------------------------------


def load_tasks(manifest_path: str) -> list[Task]:
    """Load tasks from a JSON manifest of image/target PGM paths.

    The manifest is an object whose ``tasks`` list holds the entries, or
    that list alone. Each entry's id, image_path, target_path and prompt
    are strings, and the id is a plain file name: not empty, ``.`` or
    ``..``, and free of ``/``, ``\\`` and NUL, since outputs are named
    after it. Relative paths resolve against the manifest's directory. A
    manifest that lists a task id twice, and tasks with mismatched
    dimensions or empty targets, are rejected outright.
    """
    data = fields.read_json(manifest_path)
    rows = []
    with fields.source(manifest_path):
        entries = fields.array(data if isinstance(data, dict) else {"tasks": data}, "tasks")
        for i in range(len(entries)):
            entry, where = fields.obj(entries, i, "tasks"), f"tasks[{i}]"
            task_id = fields.string(entry, "id", where)
            if task_id in ("", ".", "..") or any(c in task_id for c in "/\\\0"):
                raise FieldError(f"{where}.id", f"expected a plain file name, got {task_id!r}")
            rows.append([task_id, *(fields.string(entry, k, where) for k in ("image_path", "target_path", "prompt"))])
    repeated = [task_id for task_id, n in Counter(row[0] for row in rows).items() if n > 1]
    if repeated:
        raise DuplicateTaskIdError(f"{manifest_path}: task ids listed more than once: {repeated}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    tasks = []
    for task_id, image_path, target_path, prompt in rows:
        image = read_pgm_image(_resolve(base, image_path))
        target = read_pgm_mask(_resolve(base, target_path))
        tasks.append(Task(id=task_id, image=image, target=target, prompt=prompt))
    return tasks


def write_task_dir(tasks: Sequence[Task], out_dir: str, header: dict | None = None) -> str:
    """Write PGMs plus a manifest.json under out_dir; returns the manifest path."""
    img_dir = os.path.join(out_dir, "images")
    tgt_dir = os.path.join(out_dir, "targets")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(tgt_dir, exist_ok=True)
    entries = []
    for task in tasks:
        image_rel = os.path.join("images", f"{task.id}.pgm")
        target_rel = os.path.join("targets", f"{task.id}.pgm")
        write_pgm(task.image, os.path.join(out_dir, image_rel))
        write_pgm(task.target, os.path.join(out_dir, target_rel))
        entries.append(
            {
                "id": task.id,
                "image_path": image_rel,
                "target_path": target_rel,
                "prompt": task.prompt,
            }
        )
    manifest: dict = {"tasks": entries}
    if header is not None:
        manifest["header"] = header
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path


def _resolve(base: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)
