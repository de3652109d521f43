"""Deterministic click expert.

Given the current mask and the target, pick the click a careful human
annotator would make: find the false-negative and false-positive
regions, and click the point deepest inside the larger-error region
(measured by squared distance to the region boundary, with the raster
border counting as boundary). Misses win ties go to removal, i.e. equal
depths produce a negative click.
"""

from __future__ import annotations

from .env import Action
from .raster import BitMask, argmax_point, edt_sq, pixel_center


def next_click(pred: BitMask, gt: BitMask) -> Action | None:
    """The expert's next click, or None once pred equals gt."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    fn = gt.data & ~pred.data
    fp = ~gt.data & pred.data
    if not fn.any() and not fp.any():
        return None
    fn_field = edt_sq(BitMask(fn)) if fn.any() else None
    fp_field = edt_sq(BitMask(fp)) if fp.any() else None
    fn_max = int(fn_field.max()) if fn_field is not None else 0
    fp_max = int(fp_field.max()) if fp_field is not None else 0
    h, w = gt.shape
    if fn_max > fp_max:
        (px, py), _ = argmax_point(fn_field)
        p = pixel_center(px, py, w, h)
        return Action.positive(p.x, p.y)
    (px, py), _ = argmax_point(fp_field)
    p = pixel_center(px, py, w, h)
    return Action.negative(p.x, p.y)
