"""Shared helpers: independent oracles the fast implementations are tested
against, plus small fixture builders.

The oracles deliberately use different algorithms from the library code
(full pairwise distance scans, hand-rolled BFS) so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import numpy as np
import pytest

from maskloop.raster import BitMask


def brute_edt_sq(mask: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest zero pixel, where everything outside
    the array also counts as zero. Pairwise scan, no separability tricks."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.int64)
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return out
    zy, zx = np.nonzero(~mask)
    # one-pixel ring just outside the array; clamping any farther outside
    # pixel onto the ring never increases its distance to an inside pixel,
    # so the ring suffices
    ring_x = []
    ring_y = []
    for x in range(-1, w + 1):
        ring_x += [x, x]
        ring_y += [-1, h]
    for y in range(h):
        ring_x += [-1, w]
        ring_y += [y, y]
    all_zx = np.concatenate([zx, np.array(ring_x, dtype=np.int64)])
    all_zy = np.concatenate([zy, np.array(ring_y, dtype=np.int64)])
    d2 = (xs[:, None] - all_zx[None, :]) ** 2 + (ys[:, None] - all_zy[None, :]) ** 2
    out[ys, xs] = d2.min(axis=1)
    return out


def flood_components(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """4-connected components by explicit BFS, ordered by first pixel in
    row-major order. Returns sets of (x, y) pixels."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    comps: list[set[tuple[int, int]]] = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            comp: set[tuple[int, int]] = set()
            queue = [(x, y)]
            seen[y, x] = True
            while queue:
                cx, cy = queue.pop()
                comp.add((cx, cy))
                for nx, ny in ((cx, cy - 1), (cx - 1, cy), (cx + 1, cy), (cx, cy + 1)):
                    if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((nx, ny))
            comps.append(comp)
    return comps


def blend_overlay(gray: np.ndarray, mask: np.ndarray, color, alpha: float) -> np.ndarray:
    """The overlay as one float64 blend over every pixel and channel, then a
    select: masked pixels round((1-alpha)*gray + alpha*color) halves up,
    unmasked pixels the gray value in all three channels."""
    g = np.asarray(gray, dtype=np.uint8)
    base = np.stack([g] * 3, axis=-1)
    col = np.array(color, dtype=np.float64)
    blended = np.floor((1.0 - alpha) * g.astype(np.float64)[..., None] + alpha * col[None, None, :] + 0.5)
    return np.where(np.asarray(mask, dtype=bool)[..., None], blended.astype(np.uint8), base)


def rand_mask(rng: np.random.Generator, h: int, w: int, p: float = 0.5) -> np.ndarray:
    return rng.random((h, w)) < p


def mask_of(rows: list[str]) -> BitMask:
    """Build a mask from strings of '.' and '#', one row per string."""
    return BitMask(np.array([[c == "#" for c in row] for row in rows]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
