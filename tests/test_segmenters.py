from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import maskloop.env as env
from maskloop.cli import DEFAULTS, _segmenter, dispatch
from maskloop.env import Action, Task, write_task_dir
from maskloop.raster import BitMask, GrayImage, NormBox, component_labels, pixel_center
from maskloop.segmenters import OracleSegmenter, RegionGrowSegmenter, RemoteSegmenter
from maskloop.trajgen import synth_tasks

from conftest import bfs_grow, click_pixel, flood_components, in_box, oracle_reference, rand_mask


def _pos(px: int, py: int, w: int, h: int) -> Action:
    pt = pixel_center(px, py, w, h)
    return Action.positive(pt.x, pt.y)


def _neg(px: int, py: int, w: int, h: int) -> Action:
    pt = pixel_center(px, py, w, h)
    return Action.negative(pt.x, pt.y)


def _oracle(gt: BitMask, clicks, box=None, r_neg: int = 2) -> BitMask:
    task = Task(id="x", image=GrayImage(np.zeros(gt.shape, np.uint8)), target=gt, prompt="p")
    return OracleSegmenter(r_neg).segment(task, clicks, box)


def _region_grow(image: GrayImage, clicks, box=None, delta: int = 16, cap: int = 10_000) -> BitMask:
    task = Task(id="x", image=image, target=BitMask.full(*image.shape[::-1]), prompt="p")
    return RegionGrowSegmenter(delta, cap).segment(task, clicks, box)


def _two_blob_gt(side: int = 16) -> BitMask:
    gt = np.zeros((side, side), bool)
    gt[2:6, 2:6] = True  # component A
    gt[10:14, 10:14] = True  # component B
    return BitMask(gt)


# --- oracle -----------------------------------------------------------------


def test_oracle_no_positive_clicks_empty():
    gt = _two_blob_gt()
    assert _oracle(gt, []).is_empty()
    assert _oracle(gt, [_neg(3, 3, 16, 16)]).is_empty()


def test_oracle_click_selects_exactly_one_component():
    gt = _two_blob_gt()
    out = _oracle(gt, [_pos(3, 3, 16, 16)])
    want = np.zeros((16, 16), bool)
    want[2:6, 2:6] = True
    assert np.array_equal(out.data, want)


def test_oracle_negative_click_carves_square():
    gt = _two_blob_gt()
    out = _oracle(gt, [_pos(3, 3, 16, 16), _neg(2, 2, 16, 16)], r_neg=2)
    want = np.zeros((16, 16), bool)
    want[2:6, 2:6] = True
    want[0:5, 0:5] = False  # 5x5 square at (2,2), clipped at the border
    assert np.array_equal(out.data, want)


def test_oracle_background_click_adds_nothing():
    gt = _two_blob_gt()
    out = _oracle(gt, [_pos(0, 15, 16, 16)])
    assert out.is_empty()


def test_oracle_box_restricts_output():
    gt = _two_blob_gt()
    box = NormBox(0.0, 0.0, 0.5, 0.5)
    out = _oracle(gt, [_pos(3, 3, 16, 16), _pos(11, 11, 16, 16)], box=box)
    want = np.zeros((16, 16), bool)
    want[2:6, 2:6] = True  # component B lies outside the box raster
    assert np.array_equal(out.data, want)


def test_oracle_r_neg_zero_removes_single_pixel():
    gt = _two_blob_gt()
    out = _oracle(gt, [_pos(3, 3, 16, 16), _neg(3, 3, 16, 16)], r_neg=0)
    assert not out.data[3, 3]
    assert out.area() == 15


# --- region grow -------------------------------------------------------------


def test_region_grow_no_clicks():
    img = GrayImage(np.zeros((8, 8), np.uint8))
    assert _region_grow(img, []).is_empty()


def test_region_grow_uniform_image_fills_everything():
    img = GrayImage(np.full((9, 9), 77, np.uint8))
    out = _region_grow(img, [_pos(4, 4, 9, 9)], cap=10_000)
    assert out.data.all()


def test_region_grow_intensity_barrier():
    img = np.zeros((8, 8), np.uint8)
    img[:, 4:] = 255
    out = _region_grow(GrayImage(img), [_pos(1, 1, 8, 8)], delta=16)
    want = np.zeros((8, 8), bool)
    want[:, :4] = True
    assert np.array_equal(out.data, want)


def test_region_grow_cap_truncates_in_bfs_order():
    img = GrayImage(np.zeros((5, 5), np.uint8))
    out = _region_grow(img, [_pos(2, 2, 5, 5)], cap=5)
    # seed plus its 4-neighborhood: N, W, E, S explored first
    want = np.zeros((5, 5), bool)
    want[2, 2] = want[1, 2] = want[2, 1] = want[2, 3] = want[3, 2] = True
    assert np.array_equal(out.data, want)
    assert out.area() == 5


def test_region_grow_negative_removes_region():
    img = np.zeros((8, 8), np.uint8)
    img[:, 4:] = 255
    clicks = [_pos(1, 1, 8, 8), _pos(6, 6, 8, 8), _neg(5, 5, 8, 8)]
    out = _region_grow(GrayImage(img), clicks, delta=16)
    want = np.zeros((8, 8), bool)
    want[:, :4] = True  # right half grown then removed by the negative seed
    assert np.array_equal(out.data, want)


def test_region_grow_respects_box():
    img = GrayImage(np.zeros((10, 10), np.uint8))
    box = NormBox(0.0, 0.0, 0.5, 0.5)
    out = _region_grow(img, [_pos(2, 2, 10, 10)], box=box)
    ys, xs = np.nonzero(out.data)
    assert xs.max() < 5 and ys.max() < 5


def test_region_grow_matches_flood_oracle_under_threshold(rng):
    # binary-intensity images: growing from a seed with delta < contrast is
    # exactly the seed's 4-connected same-intensity component
    for _ in range(25):
        img = rand_mask(rng, 10, 10, 0.5).astype(np.uint8) * 200
        seeds = np.argwhere(img == 200)
        if seeds.size == 0:
            continue
        py, px = map(int, seeds[0])
        out = _region_grow(
            GrayImage(img), [_pos(px, py, 10, 10)], delta=16, cap=10_000
        )
        comps = flood_components(img == 200)
        want = next(c for c in comps if (px, py) in c)
        got = {(int(x), int(y)) for y, x in zip(*np.nonzero(out.data))}
        assert got == want


# --- wrappers ---------------------------------------------------------------


def test_segmenter_constructors_validate_parameters():
    with pytest.raises(ValueError):
        OracleSegmenter(r_neg=-1)
    for delta in (-1, 256):
        with pytest.raises(ValueError):
            RegionGrowSegmenter(delta=delta)
    with pytest.raises(ValueError):
        RegionGrowSegmenter(cap=0)
    # the bounds themselves are valid
    assert OracleSegmenter(r_neg=0).r_neg == 0
    assert RegionGrowSegmenter(delta=255, cap=1).delta == 255
    assert RegionGrowSegmenter(delta=0).delta == 0


def test_cli_builds_each_segmenter_kind():
    cfg = dict(DEFAULTS["eval-noc"], r_neg=3, delta=20, cap=50, segmenter_url="http://127.0.0.1:9", timeout=2.0)
    oracle = _segmenter({**cfg, "segmenter": "oracle"})
    assert isinstance(oracle, OracleSegmenter) and oracle.r_neg == 3
    grow = _segmenter({**cfg, "segmenter": "region_grow"})
    assert isinstance(grow, RegionGrowSegmenter) and (grow.delta, grow.cap) == (20, 50)
    remote = _segmenter({**cfg, "segmenter": "remote"})
    assert isinstance(remote, RemoteSegmenter)
    assert (remote.endpoint.base_url, remote.endpoint.timeout) == ("http://127.0.0.1:9", 2.0)


@pytest.mark.parametrize(
    "argv", [["--segmenter", "nonsense"], ["--segmenter", "remote"]], ids=["unknown", "remote-without-url"]
)
def test_cli_segmenter_choice_errors_are_usage_errors(tmp_path, capsys, argv):
    manifest = write_task_dir(synth_tasks(2, side=16, seed=0), str(tmp_path / "tasks"))
    code = dispatch(["eval-noc", "--tasks", manifest, *argv])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_oracle_segmenter_wrapper_uses_task_target():
    gt = _two_blob_gt()
    img = GrayImage(np.zeros((16, 16), np.uint8))
    task = Task(id="x", image=img, target=gt, prompt="blobs")
    seg = OracleSegmenter()
    out = seg.segment(task, [_pos(11, 11, 16, 16)], None)
    want = np.zeros((16, 16), bool)
    want[10:14, 10:14] = True
    assert np.array_equal(out.data, want)


@st.composite
def _oracle_cases(draw):
    h, w = draw(st.sampled_from([(1, 6), (6, 1), (5, 5), (9, 12)]))
    # sparse targets split into several components; the first pixel is always set
    gt = draw(arrays(bool, (h, w), elements=st.sampled_from([False, False, True])))
    gt[0, 0] = True
    # pixels on the border, then anywhere
    border = [(x, y) for y in range(h) for x in range(w) if x in (0, w - 1) or y in (0, h - 1)]
    pixel = st.sampled_from(border) | st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    clicks = []
    for positive, (px, py) in draw(st.lists(st.tuples(st.booleans(), pixel), max_size=6)):
        clicks.append(_pos(px, py, w, h) if positive else _neg(px, py, w, h))
    box = None
    if draw(st.booleans()):
        xs = sorted(draw(st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 2)))
        ys = sorted(draw(st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 2)))
        box = NormBox(xs[0], ys[0], xs[1], ys[1])
    return BitMask(gt), clicks, box, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_oracle_cases())
def test_oracle_segmenter_equals_reference(case):
    gt, clicks, box, r_neg = case
    assert np.array_equal(_oracle(gt, clicks, box, r_neg).data, oracle_reference(gt.data, clicks, box, r_neg))


@st.composite
def _grow_cases(draw):
    # the oracle cases' shapes, clicks and boxes over a few gray levels, so
    # regions both stop at intensity edges and run into the cap
    gt, clicks, box, _ = draw(_oracle_cases())
    h, w = gt.shape
    img = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 3)))
    delta = draw(st.integers(0, 2))
    cap = draw(st.sampled_from([1, 2, 3, 5, h * w]))  # h * w: no grow is capped
    return GrayImage(img), clicks, box, delta, cap


def _region_grow_reference(img: np.ndarray, clicks, box, delta: int, cap: int) -> np.ndarray:
    h, w = img.shape
    grown = {"positive_click": np.zeros((h, w), bool), "negative_click": np.zeros((h, w), bool)}
    for a in clicks:
        grown[a.kind] |= bfs_grow(img, *click_pixel(a, w, h), delta, cap)
    return in_box(grown["positive_click"] & ~grown["negative_click"], box)


@settings(max_examples=300, deadline=None)
@given(_grow_cases())
def test_region_grow_segmenter_equals_bfs_reference(case):
    img, clicks, box, delta, cap = case
    want = _region_grow_reference(img.data, clicks, box, delta, cap)
    assert np.array_equal(_region_grow(img, clicks, box, delta, cap).data, want)


def test_task_labels_are_computed_once_and_used_by_the_oracle(monkeypatch):
    task = Task(id="x", image=GrayImage(np.zeros((16, 16), np.uint8)), target=_two_blob_gt(), prompt="blobs")
    labels = task.target_labels
    assert task.target_labels is labels
    assert np.array_equal(labels, component_labels(task.target))

    def relabel(mask):
        raise AssertionError("the oracle relabelled the target")

    monkeypatch.setattr(env, "component_labels", relabel)
    out = OracleSegmenter().segment(task, [_pos(3, 3, 16, 16), _pos(11, 11, 16, 16)])
    assert out == task.target


def test_region_grow_wrapper_ignores_target():
    img = np.zeros((8, 8), np.uint8)
    img[:, 4:] = 255
    task = Task(
        id="x",
        image=GrayImage(img),
        target=BitMask.full(8, 8),
        prompt="left",
    )
    out = RegionGrowSegmenter(delta=16).segment(task, [_pos(0, 0, 8, 8)], None)
    assert out.data[:, :4].all() and not out.data[:, 4:].any()
