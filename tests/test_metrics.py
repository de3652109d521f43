from __future__ import annotations

import numpy as np
import pytest
from conftest import mask_of, rand_mask

from maskloop.env import Task
from maskloop.errors import DegenerateInputError, MaskShapeError
from maskloop.metrics import ciou, filter_masks, noc, noc_histogram, regression_metrics
from maskloop.policy import NoisyPrm, OraclePrm
from maskloop.raster import BitMask, GrayImage, components, iou
from maskloop.segmenters import OracleSegmenter, Segmenter
from maskloop.trajgen import synth_tasks


def _task(rows, task_id="t0"):
    target = mask_of(rows)
    img = np.where(target.data, 200, 20).astype(np.uint8)
    return Task(id=task_id, image=GrayImage(img), target=target, prompt="the blob")


# --- cumulative IoU ----------------------------------------------------


def test_ciou_perfect():
    m = mask_of(["##", ".#"])
    assert ciou([(m, m)]) == 1.0


def test_ciou_pools_pixels_not_pairs():
    a = mask_of(["####", "####"])  # 8 pixels
    empty = BitMask.zeros(4, 2)
    # pair IoUs are 1.0 and 0.0; pooled pixels give 8 / 16
    assert ciou([(a, a), (empty, a)]) == 0.5


def test_ciou_large_objects_dominate():
    big = mask_of(["#" * 10] * 10)
    small = mask_of(["#"])
    empty_small = BitMask.zeros(1, 1)
    value = ciou([(big, big), (empty_small, small)])
    assert value == 100 / 101
    assert value > np.mean([1.0, 0.0])


def test_ciou_matches_single_iou_when_repeated(rng):
    a = BitMask(rand_mask(rng, 12, 9, 0.4))
    b = BitMask(rand_mask(rng, 12, 9, 0.4))
    assert ciou([(a, b)] * 5) == pytest.approx(iou(a, b))


def test_ciou_shape_mismatch():
    with pytest.raises(MaskShapeError):
        ciou([(BitMask.zeros(2, 2), BitMask.zeros(3, 2))])


def test_ciou_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        ciou([])
    e = BitMask.zeros(2, 2)
    with pytest.raises(DegenerateInputError):
        ciou([(e, e)])


# --- clicks to threshold -----------------------------------------------


def test_noc_single_component_needs_one_click():
    task = _task(["..##", "..##"])
    assert noc(task, OracleSegmenter(), target_iou=0.9) == (1, True)


def test_noc_counts_components():
    task = _task(
        [
            "##...##",
            "##...##",
            ".......",
            "...#...",
        ]
    )
    n = len(components(task.target))
    assert noc(task, OracleSegmenter(), target_iou=1.0) == (n, True)


def test_noc_zero_clicks_when_target_is_empty_enough():
    # target_iou of 1.0 with an already-perfect prediction cannot happen from
    # an empty mask unless the expert converges; use a tiny threshold instead
    task = _task(["#.", ".."])
    used, reached = noc(task, OracleSegmenter(), target_iou=1.0)
    assert (used, reached) == (1, True)


def test_noc_cap_reached():
    class AlwaysEmpty(Segmenter):
        def segment(self, task, clicks, box=None):
            return BitMask.zeros(task.image.width, task.image.height)

    task = _task(["####"])
    assert noc(task, AlwaysEmpty(), cap=5) == (5, False)


def test_noc_validation():
    task = _task(["#"])
    with pytest.raises(ValueError):
        noc(task, OracleSegmenter(), target_iou=0.0)
    with pytest.raises(ValueError):
        noc(task, OracleSegmenter(), cap=0)


def test_noc_histogram_sorted_counts():
    assert noc_histogram([3, 1, 1, 2, 1, 3]) == [(1, 3), (2, 1), (3, 2)]
    assert noc_histogram([]) == []


# --- regression metrics -------------------------------------------------


def test_regression_perfect_prediction():
    m = regression_metrics([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    assert m["mae"] == 0.0
    assert m["mse"] == 0.0
    assert m["pearson"] == pytest.approx(1.0)
    assert m["spearman"] == pytest.approx(1.0)


def test_regression_fixed_triple():
    m = regression_metrics([10.0, 20.0, 30.0], [20.0, 40.0, 60.0])
    assert m["mae"] == pytest.approx(20.0, abs=1e-9)
    assert m["mse"] == pytest.approx(1400.0 / 3.0, abs=1e-9)
    assert m["pearson"] == pytest.approx(1.0, abs=1e-9)
    assert m["spearman"] == pytest.approx(1.0, abs=1e-9)


def test_regression_anti_monotone():
    m = regression_metrics([1.0, 2.0, 3.0, 4.0], [8.0, 6.0, 4.0, 2.0])
    assert m["pearson"] == pytest.approx(-1.0)
    assert m["spearman"] == pytest.approx(-1.0)


def test_regression_correlations_are_shift_scale_invariant(rng):
    x = rng.random(50)
    y = rng.random(50)
    base = regression_metrics(x, y)
    scaled = regression_metrics(3.0 * x + 7.0, y)
    assert scaled["pearson"] == pytest.approx(base["pearson"])
    assert scaled["spearman"] == pytest.approx(base["spearman"])


def test_regression_spearman_sees_only_ranks():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [1.0, 10.0, 100.0, 1000.0, 10000.0]  # monotone but wildly nonlinear
    m = regression_metrics(x, y)
    assert m["spearman"] == pytest.approx(1.0)
    assert m["pearson"] < 1.0


def test_regression_spearman_averages_ties():
    # ranks of pred: [1.5, 1.5, 3]; truth strictly increasing: [1, 2, 3]
    m = regression_metrics([0.2, 0.2, 0.9], [1.0, 2.0, 3.0])
    expected = np.corrcoef([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])[0, 1]
    assert m["spearman"] == pytest.approx(float(expected))


def test_regression_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        regression_metrics([1.0], [1.0])
    with pytest.raises(DegenerateInputError):
        regression_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        regression_metrics([1.0, 2.0], [1.0, 2.0, 3.0])


# --- PRM filtering -----------------------------------------------------------


def test_filter_masks_partitions_by_true_iou():
    tasks = synth_tasks(6, side=32, seed=40)
    pairs = []
    for i, t in enumerate(tasks):
        mask = t.target if i % 2 == 0 else BitMask.zeros(t.image.width, t.image.height)
        pairs.append((t, mask))
    kept, rejected = filter_masks(OraclePrm(), pairs, threshold=0.5)
    assert kept == pairs[0::2]
    assert rejected == pairs[1::2]


def test_filter_masks_threshold_extremes():
    tasks = synth_tasks(3, side=32, seed=41)
    pairs = [(t, t.target) for t in tasks]
    kept, rejected = filter_masks(OraclePrm(), pairs, threshold=0.0)
    assert (kept, rejected) == (pairs, [])
    kept, rejected = filter_masks(OraclePrm(), pairs, threshold=1.0)
    assert (kept, rejected) == (pairs, [])  # oracle scores exactly 1.0


def test_filter_masks_agrees_with_direct_scores():
    tasks = synth_tasks(8, side=32, seed=42)
    prm = NoisyPrm(sigma=0.3, seed=9)
    pairs = [(t, t.target) for t in tasks]
    kept, rejected = filter_masks(prm, pairs, threshold=0.8)
    for t, m in kept:
        assert prm.score(t, m) >= 0.8
    for t, m in rejected:
        assert prm.score(t, m) < 0.8
    assert len(kept) + len(rejected) == len(pairs)


def test_filter_masks_validates_threshold():
    with pytest.raises(ValueError):
        filter_masks(OraclePrm(), [], threshold=-0.1)
