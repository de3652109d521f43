"""Deterministic click expert.

Given the current mask and the target, pick the click a careful human
annotator would make: find the false-negative and false-positive
regions, and click the point deepest inside the larger-error region
(measured by squared distance to the region boundary, with the raster
border counting as boundary). Misses win ties go to removal, i.e. equal
depths produce a negative click. Each region's deepest pixel comes from
``raster.deepest_pixel``, an exact pruned search over its bounding box
that evaluates the distance only where a cheap bound can still win; no
full distance transform is computed.

``next_click`` is the pure rule. ``click_for`` is what the pipeline
calls: it remembers each task's last mask and click, because an episode
often asks again about the mask it just asked about (a noisy click that
changed nothing, a repair resuming from a state its rollout reached).
"""

from __future__ import annotations

from .env import Action, Task
from .raster import BitMask, check_same_shape, deepest_pixel, pixel_center


def next_click(pred: BitMask, gt: BitMask) -> Action | None:
    """The expert's next click, or None once pred equals gt."""
    check_same_shape(pred, gt)
    fn_max, fn_at = deepest_pixel(BitMask(gt.data & ~pred.data))
    fp_max, fp_at = deepest_pixel(BitMask(~gt.data & pred.data))
    if fn_max == fp_max == 0:
        return None
    h, w = gt.shape
    if fn_max > fp_max:
        p = pixel_center(*fn_at, w, h)
        return Action.positive(p.x, p.y)
    p = pixel_center(*fp_at, w, h)
    return Action.negative(p.x, p.y)


def click_for(task: Task, mask: BitMask) -> Action | None:
    """``next_click(mask, task.target)``, computed once per run of equal masks.

    The task keeps only its last (mask, click) pair, as one tuple in its
    instance dict (like ``Task.target_labels``), so threads sharing a task
    always read a matching pair, and the task's fields, equality and repr
    do not change.
    """
    last = task.__dict__.get("_expert_last")
    if last is not None and last[0] == mask:
        return last[1]
    click = next_click(mask, task.target)
    task.__dict__["_expert_last"] = (mask, click)
    return click
