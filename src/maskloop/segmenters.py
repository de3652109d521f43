"""Segmenters: turn (image, clicks, box) into a mask.

Three implementations share one interface: a ground-truth oracle used
for dataset generation and mock services, a deterministic region grower
that only looks at the image, and a thin client for a remote service.
All of them receive the full click history on every call. The two local
ones are a fold over per-click regions and share one combine step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import remote
from .env import NEGATIVE_CLICK, POSITIVE_CLICK, Action, Task
from .raster import FOUR_CONNECTED, BitMask, NormBox, box_to_mask, point_to_pixel

# maps the (x, y) pixels of one sign's clicks, possibly none, to the union
# of their regions as a new array
RegionRule = Callable[[list[tuple[int, int]]], np.ndarray]


class Segmenter(ABC):
    """Pure mapping from prompts to a mask of the task's dimensions."""

    @abstractmethod
    def segment(
        self, task: Task, clicks: Sequence[Action], box: NormBox | None = None
    ) -> BitMask:
        raise NotImplementedError


def _combine(
    shape: tuple[int, int],
    clicks: Sequence[Action],
    box: NormBox | None,
    positive: RegionRule,
    negative: RegionRule,
) -> BitMask:
    """The positive clicks' regions minus the negative clicks' regions,
    intersected with the box raster when a box is given."""
    h, w = shape
    pixels: dict[str, list[tuple[int, int]]] = {POSITIVE_CLICK: [], NEGATIVE_CLICK: []}
    for a in clicks:
        if a.is_click:
            pixels[a.kind].append(point_to_pixel(a.point, w, h))
    out = positive(pixels[POSITIVE_CLICK])
    if pixels[NEGATIVE_CLICK]:
        out &= ~negative(pixels[NEGATIVE_CLICK])
    if box is not None:
        out &= box_to_mask(box, w, h).data
    return BitMask(out)


def _components(labels: np.ndarray, pixels: list[tuple[int, int]]) -> np.ndarray:
    """The labelled components hit by at least one pixel, OR-ed label by label."""
    out = np.zeros(labels.shape, dtype=bool)
    for label in {int(labels[py, px]) for px, py in pixels} - {0}:
        out |= labels == label
    return out


def _squares(shape: tuple[int, int], r: int, pixels: list[tuple[int, int]]) -> np.ndarray:
    """A (2r+1) square around every pixel, clipped at the border."""
    out = np.zeros(shape, dtype=bool)
    for px, py in pixels:
        out[max(0, py - r) : py + r + 1, max(0, px - r) : px + r + 1] = True
    return out


# neighbor order for the capped flood fill: N, W, E, S
_NEIGHBORS = ((0, -1), (-1, 0), (1, 0), (0, 1))


def _grow(img: np.ndarray, sx: int, sy: int, delta: int, cap: int) -> np.ndarray:
    from scipy import ndimage

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


def _grown(img: np.ndarray, delta: int, cap: int, pixels: list[tuple[int, int]]) -> np.ndarray:
    """The union of the capped grows from every pixel."""
    out = np.zeros(img.shape, dtype=bool)
    for px, py in pixels:
        out |= _grow(img, px, py, delta, cap)
    return out


class OracleSegmenter(Segmenter):
    """Ground-truth-aware segmentation; reads the task's cached target labels.

    The union of the target's 4-connected components hit by at least one
    positive click, minus a (2*r_neg+1) square around every negative click.
    """

    def __init__(self, r_neg: int = 2):
        if r_neg < 0:
            raise ValueError(f"r_neg must be >= 0, got {r_neg}")
        self.r_neg = r_neg

    def segment(self, task, clicks, box=None):
        labels = task.target_labels
        return _combine(
            labels.shape, clicks, box, partial(_components, labels), partial(_squares, labels.shape, self.r_neg)
        )


class RegionGrowSegmenter(Segmenter):
    """Image-only segmentation by capped intensity flood fill.

    Each click grows a 4-connected region of pixels within ``delta`` gray
    levels of the seed, visited in breadth-first order (neighbors tried
    north, west, east, south) and truncated at ``cap`` pixels. Positive
    regions are unioned and negative ones subtracted.
    """

    def __init__(self, delta: int = 16, cap: int = 10_000):
        if not (0 <= delta <= 255):
            raise ValueError(f"delta out of [0, 255]: {delta}")
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.delta = delta
        self.cap = cap

    def segment(self, task, clicks, box=None):
        grown = partial(_grown, task.image.data, self.delta, self.cap)
        return _combine(task.image.shape, clicks, box, grown, grown)


class RemoteSegmenter(Segmenter):
    """Asks a remote service over the wire protocol."""

    def __init__(self, endpoint: remote.RemoteEndpoint):
        self.endpoint = endpoint

    def segment(self, task, clicks, box=None):
        return remote.call_segment(self.endpoint, task, clicks, box)
