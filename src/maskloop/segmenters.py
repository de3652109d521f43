"""Segmenters: turn (image, clicks, box) into a mask.

Three implementations share one interface: a ground-truth oracle used
for dataset generation and mock services, a deterministic region grower
that only looks at the image, and a thin client for a remote service.
All of them receive the full click history on every call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Sequence

import numpy as np
from scipy import ndimage

from . import remote
from .env import Action, Task
from .errors import MaskShapeError
from .raster import (
    FOUR_CONNECTED,
    BitMask,
    GrayImage,
    NormBox,
    box_to_mask,
    component_labels,
    point_to_pixel,
)


class Segmenter(ABC):
    """Pure mapping from prompts to a mask of the task's dimensions."""

    @abstractmethod
    def segment(
        self, task: Task, clicks: Sequence[Action], box: NormBox | None = None
    ) -> BitMask:
        raise NotImplementedError


def oracle_segment(
    gt: BitMask,
    clicks: Sequence[Action],
    box: NormBox | None = None,
    r_neg: int = 2,
    labels: np.ndarray | None = None,
) -> BitMask:
    """Ground-truth-aware segmentation.

    The union of the target's 4-connected components hit by at least one
    positive click, minus a (2*r_neg+1) square around every negative
    click, intersected with the box raster when a box is given. ``labels``
    may pass in ``component_labels(gt)`` computed beforehand.
    """
    if r_neg < 0:
        raise ValueError(f"r_neg must be >= 0, got {r_neg}")
    h, w = gt.shape
    if labels is None:
        labels = component_labels(gt)
    elif labels.shape != gt.shape:
        raise MaskShapeError(f"labels {labels.shape} do not match target {gt.shape}")
    keep: set[int] = set()
    for a in clicks:
        if a.kind != "positive_click":
            continue
        px, py = point_to_pixel(a.point, w, h)
        lab = int(labels[py, px])
        if lab:
            keep.add(lab)
    if keep:
        out = np.isin(labels, sorted(keep))
    else:
        out = np.zeros((h, w), dtype=bool)
    for a in clicks:
        if a.kind != "negative_click":
            continue
        px, py = point_to_pixel(a.point, w, h)
        out[max(0, py - r_neg) : py + r_neg + 1, max(0, px - r_neg) : px + r_neg + 1] = False
    if box is not None:
        out &= box_to_mask(box, w, h).data
    return BitMask(out)


def region_grow_segment(
    image: GrayImage,
    clicks: Sequence[Action],
    box: NormBox | None = None,
    delta: int = 16,
    cap: int = 10_000,
) -> BitMask:
    """Image-only segmentation by capped intensity flood fill.

    Each click grows a 4-connected region of pixels within ``delta`` gray
    levels of the seed, visited in breadth-first order (neighbors tried
    north, west, east, south) and truncated at ``cap`` pixels. The result
    is the union of positive regions minus the union of negative regions,
    intersected with the box raster when one is given.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    h, w = image.shape
    pos = np.zeros((h, w), dtype=bool)
    neg = np.zeros((h, w), dtype=bool)
    for a in clicks:
        if not a.is_click:
            continue
        px, py = point_to_pixel(a.point, w, h)
        region = _grow(image.data, px, py, delta, cap)
        if a.kind == "positive_click":
            pos |= region
        else:
            neg |= region
    out = pos & ~neg
    if box is not None:
        out &= box_to_mask(box, w, h).data
    return BitMask(out)


# neighbor order for the capped flood fill: N, W, E, S
_NEIGHBORS = ((0, -1), (-1, 0), (1, 0), (0, 1))


def _grow(img: np.ndarray, sx: int, sy: int, delta: int, cap: int) -> np.ndarray:
    seed_val = int(img[sy, sx])
    admissible = np.abs(img.astype(np.int16) - seed_val) <= delta
    labels, _ = ndimage.label(admissible, structure=FOUR_CONNECTED)
    comp = labels == labels[sy, sx]
    if int(comp.sum()) <= cap:
        # the uncapped breadth-first region is exactly this component
        return comp
    h, w = img.shape
    visited = np.zeros((h, w), dtype=bool)
    visited[sy, sx] = True
    taken = 1
    queue = deque([(sx, sy)])
    while queue and taken < cap:
        x, y = queue.popleft()
        for dx, dy in _NEIGHBORS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and not visited[ny, nx] and admissible[ny, nx]:
                visited[ny, nx] = True
                taken += 1
                queue.append((nx, ny))
                if taken >= cap:
                    break
    return visited


class OracleSegmenter(Segmenter):
    """Wraps oracle_segment; peeks at the task's target and its cached labels."""

    def __init__(self, r_neg: int = 2):
        if r_neg < 0:
            raise ValueError(f"r_neg must be >= 0, got {r_neg}")
        self.r_neg = r_neg

    def segment(self, task, clicks, box=None):
        return oracle_segment(task.target, clicks, box, r_neg=self.r_neg, labels=task.target_labels)


class RegionGrowSegmenter(Segmenter):
    """Wraps region_grow_segment; only looks at the task's image."""

    def __init__(self, delta: int = 16, cap: int = 10_000):
        if not (0 <= delta <= 255):
            raise ValueError(f"delta out of [0, 255]: {delta}")
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.delta = delta
        self.cap = cap

    def segment(self, task, clicks, box=None):
        return region_grow_segment(task.image, clicks, box, delta=self.delta, cap=self.cap)


class RemoteSegmenter(Segmenter):
    """Asks a remote service over the wire protocol."""

    def __init__(self, endpoint: remote.RemoteEndpoint):
        self.endpoint = endpoint

    def segment(self, task, clicks, box=None):
        return remote.call_segment(self.endpoint, task.image, clicks, box)

