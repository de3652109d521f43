from __future__ import annotations

import sys
import threading
from itertools import groupby

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskloop import expert, policy
from maskloop.env import NEGATIVE_CLICK, POSITIVE_CLICK, EnvConfig, Task
from maskloop.expert import click_for, next_click
from maskloop.improve import rollout
from maskloop.policy import NoiseConfig, NoisyExpertPolicy
from maskloop.raster import BitMask, GrayImage, point_to_pixel
from maskloop.segmenters import OracleSegmenter
from maskloop.trajgen import synth_tasks

from conftest import brute_edt_sq, mask_of, rand_mask


def _expected_click(pred: np.ndarray, gt: np.ndarray):
    """Reference implementation: full brute-force EDT over both error
    regions, row-major argmax, ties favor the negative region."""
    fn = gt & ~pred
    fp = ~gt & pred
    d_fn = brute_edt_sq(fn)
    d_fp = brute_edt_sq(fp)
    if not fn.any() and not fp.any():
        return None
    if d_fn.max() > d_fp.max():
        field, kind = d_fn, POSITIVE_CLICK
    else:
        field, kind = d_fp, NEGATIVE_CLICK
    flat = int(field.argmax())
    py, px = divmod(flat, pred.shape[1])
    return kind, (px, py), int(field.max())


def test_converged_returns_none():
    m = mask_of(["#.", ".#"])
    assert next_click(m, m) is None


def test_pred_empty_full_gt_clicks_center():
    pred = BitMask.zeros(5, 5)
    gt = BitMask.full(5, 5)
    action = next_click(pred, gt)
    assert action.kind == POSITIVE_CLICK
    assert action.point.x == 0.5 and action.point.y == 0.5


def test_extra_far_blob_gets_negative_click():
    gt = np.zeros((16, 16), bool)
    gt[1:4, 1:4] = True
    pred = gt.copy()
    pred[9:14, 9:14] = True  # spurious 5x5 blob, deeper than any fn deficit
    action = next_click(BitMask(pred), BitMask(gt))
    assert action.kind == NEGATIVE_CLICK
    px, py = point_to_pixel(action.point, 16, 16)
    assert (px, py) == (11, 11)  # center of the blob


def test_tie_prefers_negative():
    # one missing pixel and one spurious pixel: both regions have max 1
    gt = np.zeros((8, 8), bool)
    gt[2, 2] = True
    pred = np.zeros((8, 8), bool)
    pred[5, 5] = True
    action = next_click(BitMask(pred), BitMask(gt))
    assert action.kind == NEGATIVE_CLICK
    assert point_to_pixel(action.point, 8, 8) == (5, 5)


def test_click_lands_at_pixel_center():
    pred = BitMask.zeros(10, 10)
    gt = np.zeros((10, 10), bool)
    gt[4, 7] = True
    action = next_click(pred, BitMask(gt))
    assert action.point.x == (7 + 0.5) / 10
    assert action.point.y == (4 + 0.5) / 10


def test_matches_reference_on_random_pairs(rng):
    for _ in range(200):
        h, w = int(rng.integers(2, 18)), int(rng.integers(2, 18))
        pred = rand_mask(rng, h, w, float(rng.random()))
        gt = rand_mask(rng, h, w, float(rng.random()))
        action = next_click(BitMask(pred), BitMask(gt))
        want = _expected_click(pred, gt)
        if want is None:
            assert action is None
            continue
        kind, (px, py), depth = want
        assert action.kind == kind
        assert point_to_pixel(action.point, w, h) == (px, py)
        # the clicked pixel attains the brute-force max depth of its region
        fn = gt & ~pred
        fp = ~gt & pred
        region = fn if kind == POSITIVE_CLICK else fp
        assert brute_edt_sq(region)[py, px] == depth


def test_click_always_lies_in_its_error_region(rng):
    for _ in range(100):
        pred = rand_mask(rng, 12, 12, 0.4)
        gt = rand_mask(rng, 12, 12, 0.4)
        action = next_click(BitMask(pred), BitMask(gt))
        if action is None:
            assert np.array_equal(pred, gt)
            continue
        px, py = point_to_pixel(action.point, 12, 12)
        if action.kind == POSITIVE_CLICK:
            assert gt[py, px] and not pred[py, px]
        else:
            assert pred[py, px] and not gt[py, px]


def _check_against_reference(pred: np.ndarray, gt: np.ndarray):
    action = next_click(BitMask(pred), BitMask(gt))
    want = _expected_click(pred, gt)
    if want is None:
        assert action is None
        return
    kind, pixel, _ = want
    assert action.kind == kind
    assert point_to_pixel(action.point, gt.shape[1], gt.shape[0]) == pixel


_non_square = st.tuples(st.integers(1, 20), st.integers(1, 20)).filter(lambda hw: hw[0] != hw[1])


@st.composite
def _border_cases(draw):
    """A random target and a prediction that differs from it in up to three
    rectangles, each flush with a border or a corner of a non-square raster
    or anywhere inside it."""
    h, w = draw(_non_square)
    gt = draw(arrays(bool, (h, w)))
    pred = gt.copy()
    for _ in range(draw(st.integers(1, 3))):
        bh, bw = draw(st.integers(1, h)), draw(st.integers(1, w))
        y0 = draw(st.one_of(st.sampled_from([0, h - bh]), st.integers(0, h - bh)))
        x0 = draw(st.one_of(st.sampled_from([0, w - bw]), st.integers(0, w - bw)))
        pred[y0 : y0 + bh, x0 : x0 + bw] = draw(st.booleans())
    return pred, gt


@st.composite
def _tie_cases(draw):
    """A missed block and a spurious block of the same shape at two places
    that do not overlap, on a non-square raster: their depths tie exactly."""
    h, w = draw(_non_square)
    bh, bw = draw(st.integers(1, h)), draw(st.integers(1, w))
    fy, py = draw(st.integers(0, h - bh)), draw(st.integers(0, h - bh))
    fx, px = draw(st.integers(0, w - bw)), draw(st.integers(0, w - bw))
    assume(abs(fy - py) >= bh or abs(fx - px) >= bw)
    gt = np.zeros((h, w), bool)
    pred = np.zeros((h, w), bool)
    gt[fy : fy + bh, fx : fx + bw] = True
    pred[py : py + bh, px : px + bw] = True
    return pred, gt


@settings(max_examples=300, deadline=None)
@given(_border_cases())
def test_next_click_offsets_the_box_on_non_square_rasters(case):
    _check_against_reference(*case)


@settings(max_examples=200, deadline=None)
@given(_tie_cases())
def test_next_click_exact_ties_on_non_square_rasters(case):
    pred, gt = case
    assert brute_edt_sq(gt).max() == brute_edt_sq(pred).max()
    assert next_click(BitMask(pred), BitMask(gt)).kind == NEGATIVE_CLICK
    _check_against_reference(pred, gt)


# --- the last-mask memo ------------------------------------------------


def _blank_task(target: np.ndarray, task_id: str) -> Task:
    return Task(id=task_id, image=GrayImage(np.zeros(target.shape, np.uint8)), target=BitMask(target), prompt="")


@st.composite
def _memo_cases(draw):
    """Two tasks on one shape, a pool of three masks, and a sequence of
    (task, mask) asks that repeats masks, as the same object or as a copy."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    nonempty = arrays(bool, shape).filter(lambda a: a.any())
    targets = [draw(nonempty), draw(nonempty)]
    pool = [draw(arrays(bool, shape)) for _ in range(2)] + [targets[0]]
    asks = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.booleans()), max_size=20))
    return targets, pool, asks


@settings(max_examples=200, deadline=None)
@given(_memo_cases())
def test_click_for_equals_next_click_on_interleaved_tasks(case):
    targets, pool, asks = case
    tasks = [_blank_task(t, f"t{i}") for i, t in enumerate(targets)]
    masks = [BitMask(m) for m in pool]
    for ti, mi, copy in asks:
        mask = BitMask(pool[mi]) if copy else masks[mi]
        assert click_for(tasks[ti], mask) == next_click(mask, tasks[ti].target)
    assert tasks[0] == _blank_task(targets[0], "t0")  # the memo is no field


def test_noisy_rollout_asks_the_expert_once_per_run_of_equal_masks(monkeypatch):
    asked: list[tuple[str, BitMask]] = []
    computed = []
    real_click_for, real_next_click = policy.click_for, expert.next_click

    def recording_click_for(task, mask):
        asked.append((task.id, mask))
        return real_click_for(task, mask)

    def counting_next_click(pred, gt):
        computed.append(pred)
        return real_next_click(pred, gt)

    monkeypatch.setattr(policy, "click_for", recording_click_for)
    monkeypatch.setattr(expert, "next_click", counting_next_click)
    tasks = synth_tasks(10, side=32, seed=3)
    noisy = NoisyExpertPolicy(NoiseConfig(sigma=0.02, flip_prob=0.5, seed=9))
    rollout(noisy, tasks, OracleSegmenter(), EnvConfig(max_steps=7), seed=5)
    runs = sum(
        len(list(groupby(mask for tid, mask in asked if tid == task.id))) for task in tasks
    )
    assert len(computed) == runs < len(asked)


def test_threads_sharing_a_task_get_the_serial_answers():
    rng = np.random.default_rng(7)
    target = rand_mask(rng, 24, 40, 0.5)
    masks = [BitMask(rand_mask(rng, 24, 40, p)) for p in (0.1, 0.3, 0.5, 0.7, 0.9)] + [BitMask(target)]
    serial = [next_click(m, BitMask(target)) for m in masks]
    shared = _blank_task(target, "shared")
    start = threading.Barrier(4, timeout=60)
    wrong = []

    def worker(offset: int):
        start.wait()
        for i in range(300):
            j = (i * (offset + 1) + offset) % len(masks)
            # an equal copy: the memo compares mask contents
            if click_for(shared, BitMask(masks[j].data)) != serial[j]:
                wrong.append((offset, j))

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside click_for
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
