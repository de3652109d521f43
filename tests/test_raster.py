from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskloop.errors import EmptyMaskError, MaskShapeError, PnmError, RleError
from maskloop.raster import (
    BitMask,
    GrayImage,
    NormBox,
    NormPoint,
    RgbImage,
    RleMask,
    argmax_point,
    bbox,
    box_to_mask,
    components,
    decode_pgm,
    decode_ppm,
    edt_sq,
    encode_pgm,
    encode_ppm,
    iou,
    pixel_center,
    point_to_pixel,
    read_pgm_image,
    read_pgm_mask,
    read_ppm,
    render_overlay,
    rle_decode,
    rle_encode,
    write_pgm,
    write_ppm,
)

from conftest import brute_edt_sq, flood_components, mask_of, rand_mask


# --- iou ---------------------------------------------------------------


def test_iou_identical_masks():
    m = mask_of(["##.", ".#.", "..#"])
    assert iou(m, m) == 1.0


def test_iou_disjoint_masks():
    a = mask_of(["#.", ".."])
    b = mask_of([".#", ".."])
    assert iou(a, b) == 0.0


def test_iou_both_empty_is_one():
    e = BitMask.zeros(3, 3)
    assert iou(e, e) == 1.0


def test_iou_columns_vs_rows_4x4():
    a = np.zeros((4, 4), bool)
    a[:, :2] = True
    b = np.zeros((4, 4), bool)
    b[:2, :] = True
    assert iou(BitMask(a), BitMask(b)) == pytest.approx(4 / 12)


def test_iou_shape_mismatch():
    with pytest.raises(MaskShapeError):
        iou(BitMask.zeros(3, 3), BitMask.zeros(4, 4))


# --- edt ---------------------------------------------------------------


def test_edt_single_true_pixel():
    m = np.zeros((5, 7), bool)
    m[2, 4] = True
    d = edt_sq(BitMask(m))
    assert d.values[2, 4] == 1
    assert d.values.sum() == 1


def test_edt_3x3_all_true():
    d = edt_sq(BitMask.full(3, 3))
    expected = np.array([[1, 1, 1], [1, 4, 1], [1, 1, 1]])
    assert np.array_equal(d.values, expected)


def test_edt_empty_mask_all_zero():
    d = edt_sq(BitMask.zeros(4, 4))
    assert not d.values.any()


def test_edt_values_positive_inside_zero_outside():
    m = mask_of(["..##", ".###", "..#."])
    d = edt_sq(BitMask(m.data))
    assert (d.values[m.data] >= 1).all()
    assert (d.values[~m.data] == 0).all()


def test_edt_matches_brute_force_on_random_masks(rng):
    for _ in range(60):
        m = rand_mask(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)), float(rng.random()))
        got = edt_sq(BitMask(m)).values if m.size else None
        assert np.array_equal(got, brute_edt_sq(m))


_sides = st.integers(1, 24)


def _rasters(shapes):
    # arrays() fills most cells with False, so the complement adds dense regions
    sparse = shapes.flatmap(lambda hw: arrays(bool, hw))
    return st.one_of(sparse, sparse.map(np.logical_not))


@settings(max_examples=300, deadline=None)
@given(_rasters(st.tuples(_sides, _sides)))
def test_edt_matches_brute_force_on_any_raster(m):
    assert np.array_equal(edt_sq(BitMask(m)).values, brute_edt_sq(m))


@settings(max_examples=100, deadline=None)
@given(_rasters(st.one_of(_sides.map(lambda n: (1, n)), _sides.map(lambda n: (n, 1)))))
def test_edt_matches_brute_force_on_thin_rasters(m):
    assert np.array_equal(edt_sq(BitMask(m)).values, brute_edt_sq(m))


def _block(y0, y1, x0, x1, h=9, w=11):
    m = np.zeros((h, w), bool)
    m[y0:y1, x0:x1] = True
    return m


@pytest.mark.parametrize(
    "m",
    [
        _block(2, 6, 3, 8),  # strictly inside the raster
        _block(0, 4, 3, 8),  # touches the top border
        _block(5, 9, 3, 8),  # touches the bottom border
        _block(2, 6, 0, 5),  # touches the left border
        _block(2, 6, 6, 11),  # touches the right border
        _block(0, 1, 0, 1),  # one pixel in each corner
        _block(0, 1, 10, 11),
        _block(8, 9, 0, 1),
        _block(8, 9, 10, 11),
        _block(0, 9, 0, 11),  # the full raster
        _block(0, 0, 0, 0),  # the empty raster
    ],
)
def test_edt_bounding_box_crop_cases(m):
    assert np.array_equal(edt_sq(BitMask(m)).values, brute_edt_sq(m))


def test_edt_out_of_bounds_counts_as_background():
    # a full row: distance grows toward the middle, bounded by top/bottom
    m = np.ones((1, 9), bool)
    d = edt_sq(BitMask(m))
    assert d.values[0, 0] == 1
    assert d.values[0, 4] == 1  # row of height 1: border above/below is adjacent


def test_edt_argmax_is_row_major_first():
    m = np.array([[False, True], [True, True]])
    d = edt_sq(BitMask(m))
    point, value = argmax_point(d)
    assert value == 1
    assert point == (1, 0)  # (x, y) of the first maximum in row-major order


def test_edt_argmax_center_of_full_5x5():
    d = edt_sq(BitMask.full(5, 5))
    point, value = argmax_point(d)
    assert point == (2, 2)
    assert value == 9


# --- components --------------------------------------------------------


def test_components_ring_is_single():
    side = 15
    ys, xs = np.mgrid[0:side, 0:side]
    d2 = (xs - 7) ** 2 + (ys - 7) ** 2
    ring = (d2 <= 36) & (d2 > 16)
    comps = components(BitMask(ring))
    assert len(comps) == 1
    assert comps[0].area() == int(ring.sum())


def test_components_match_flood_fill_oracle(rng):
    for _ in range(40):
        m = rand_mask(rng, 12, 12, 0.35)
        got = components(BitMask(m))
        want = flood_components(m)
        assert len(got) == len(want)
        got_sets = [
            {(int(x), int(y)) for y, x in zip(*np.nonzero(c.data))} for c in got
        ]
        assert got_sets == want  # same pixels, same (row-major first) order


def test_components_empty_mask():
    assert components(BitMask.zeros(4, 4)) == []


def test_components_diagonal_pixels_are_separate():
    m = mask_of(["#.", ".#"])
    assert len(components(m)) == 2


# --- geometry conventions ----------------------------------------------


def test_pixel_center_round_trip(rng):
    w, h = 64, 48
    for _ in range(200):
        px, py = int(rng.integers(0, w)), int(rng.integers(0, h))
        pt = pixel_center(px, py, w, h)
        assert point_to_pixel(pt, w, h) == (px, py)


def test_point_to_pixel_clamps_to_bounds():
    pt = NormPoint(0.999999, 0.999999)
    assert point_to_pixel(pt, 4, 4) == (3, 3)


def test_norm_point_rejects_out_of_range():
    with pytest.raises(ValueError):
        NormPoint(1.0, 0.5)
    with pytest.raises(ValueError):
        NormPoint(-0.01, 0.5)


def test_norm_box_rejects_inverted():
    with pytest.raises(ValueError):
        NormBox(0.5, 0.1, 0.2, 0.9)


def test_bbox_single_pixel():
    m = np.zeros((10, 10), bool)
    m[3, 2] = True  # (x=2, y=3)
    b = bbox(BitMask(m))
    assert b.x1 == pytest.approx(0.2)
    assert b.y1 == pytest.approx(0.3)
    assert b.x2 == pytest.approx(0.3)
    assert b.y2 == pytest.approx(0.4)


def test_bbox_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        bbox(BitMask.zeros(5, 5))


def test_bbox_box_to_mask_round_trip(rng):
    for _ in range(50):
        m = rand_mask(rng, 16, 16, 0.2)
        if not m.any():
            continue
        mask = BitMask(m)
        box = bbox(mask)
        raster = box_to_mask(box, 16, 16)
        ys, xs = np.nonzero(m)
        want = np.zeros((16, 16), bool)
        want[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1] = True
        assert np.array_equal(raster.data, want)


def test_box_to_mask_full_frame():
    box = bbox(BitMask.full(8, 8))
    raster = box_to_mask(box, 8, 8)
    assert raster.data.all()


# --- RLE ----------------------------------------------------------------


def test_rle_hand_case_row():
    m = BitMask(np.array([[False, True, True, False]]))
    assert rle_encode(m).counts == (1, 2, 1)


def test_rle_all_false():
    assert rle_encode(BitMask(np.zeros((1, 4), bool))).counts == (4,)


def test_rle_all_true_leading_zero():
    assert rle_encode(BitMask(np.ones((1, 4), bool))).counts == (0, 4)


def test_rle_round_trip_random(rng):
    for _ in range(100):
        m = rand_mask(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), float(rng.random()))
        mask = BitMask(m)
        assert rle_decode(rle_encode(mask)) == mask


def test_rle_rejects_bad_counts():
    with pytest.raises(RleError):
        RleMask(size=(2, 2), counts=(1, 1))  # sums to 2, not 4
    with pytest.raises(RleError):
        RleMask(size=(2, 2), counts=(1, 0, 3))  # zero run after the first
    with pytest.raises(RleError):
        RleMask(size=(2, 2), counts=())


def test_rle_dict_round_trip():
    m = mask_of(["#..#", "....", "####"])
    rle = rle_encode(m)
    assert RleMask.from_dict(rle.to_dict()) == rle


# --- overlay ------------------------------------------------------------


def test_overlay_blend_rounding():
    img = GrayImage(np.full((2, 2), 100, np.uint8))
    m = mask_of(["#.", ".."])
    out = render_overlay(img, m, (0, 255, 0), 0.5)
    assert tuple(out.data[0, 0]) == (50, 178, 50)  # 0.5*100 + 0.5*255 = 177.5 -> 178
    assert tuple(out.data[0, 1]) == (100, 100, 100)
    assert tuple(out.data[1, 0]) == (100, 100, 100)


def test_overlay_alpha_zero_is_gray_replication():
    img = GrayImage(np.arange(9, dtype=np.uint8).reshape(3, 3))
    out = render_overlay(img, BitMask.full(3, 3), (255, 0, 0), 0.0)
    assert np.array_equal(out.data, np.repeat(img.data[..., None], 3, axis=2))


def test_overlay_never_touches_unmasked_pixels(rng):
    img = GrayImage(rng.integers(0, 256, (8, 8)).astype(np.uint8))
    m = rand_mask(rng, 8, 8, 0.4)
    out = render_overlay(img, BitMask(m), (10, 200, 40), 0.7)
    unmasked = ~m
    assert np.array_equal(
        out.data[unmasked], np.repeat(img.data[unmasked, None], 3, axis=1)
    )


def test_overlay_alpha_out_of_range():
    img = GrayImage(np.zeros((2, 2), np.uint8))
    with pytest.raises(ValueError):
        render_overlay(img, BitMask.zeros(2, 2), (0, 255, 0), 1.5)


# --- PNM io -------------------------------------------------------------


def test_pgm_mask_round_trip(tmp_path, rng):
    m = BitMask(rand_mask(rng, 9, 13, 0.5))
    p = tmp_path / "m.pgm"
    write_pgm(m, str(p))
    assert read_pgm_mask(str(p)) == m


def test_pgm_image_round_trip(tmp_path, rng):
    img = GrayImage(rng.integers(0, 256, (7, 5)).astype(np.uint8))
    p = tmp_path / "i.pgm"
    write_pgm(img, str(p))
    assert read_pgm_image(str(p)) == img


def test_ppm_round_trip(tmp_path, rng):
    img = RgbImage(rng.integers(0, 256, (6, 4, 3)).astype(np.uint8))
    p = tmp_path / "c.ppm"
    write_ppm(img, str(p))
    assert read_ppm(str(p)) == img


def test_pgm_mask_rejects_gray_values(tmp_path):
    img = GrayImage(np.full((3, 3), 128, np.uint8))
    p = tmp_path / "gray.pgm"
    write_pgm(img, str(p))
    with pytest.raises(PnmError):
        read_pgm_mask(str(p))


def test_pnm_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P3\n2 2\n255\n" + bytes(4))
    with pytest.raises(PnmError):
        read_pgm_image(str(p))


def test_pnm_tolerates_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    m = read_pgm_mask(str(p))
    assert m == mask_of([".#", "#."])


def test_pnm_rejects_truncated_body(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PnmError):
        read_pgm_image(str(p))


def test_pnm_bytes_are_the_files_bytes(tmp_path, rng):
    # one codec: the wire bytes, the file bytes and the classic header agree
    gray = GrayImage(rng.integers(0, 256, (7, 5)).astype(np.uint8))
    mask = BitMask(rand_mask(rng, 3, 4, 0.5))
    rgb = RgbImage(rng.integers(0, 256, (6, 4, 3)).astype(np.uint8))
    assert encode_pgm(gray) == b"P5\n5 7\n255\n" + gray.data.tobytes()
    assert encode_pgm(mask) == b"P5\n4 3\n255\n" + np.where(mask.data, 255, 0).astype(np.uint8).tobytes()
    assert encode_ppm(rgb) == b"P6\n4 6\n255\n" + rgb.data.tobytes()
    for image, write, name in ((gray, write_pgm, "g.pgm"), (mask, write_pgm, "m.pgm"), (rgb, write_ppm, "c.ppm")):
        write(image, str(tmp_path / name))
        encode = encode_ppm if isinstance(image, RgbImage) else encode_pgm
        assert (tmp_path / name).read_bytes() == encode(image)
    assert decode_pgm(encode_pgm(gray)) == gray
    assert decode_ppm(encode_ppm(rgb)) == rgb


def test_pnm_decode_names_the_source():
    with pytest.raises(PnmError, match="<payload>: expected 48 pixel bytes, got 47"):
        decode_ppm(b"P6\n4 4\n255\n" + bytes(47), "<payload>")
    with pytest.raises(PnmError, match="expected P5 header"):
        decode_pgm(b"P6\n1 1\n255\n" + bytes(3))


# --- value types ---------------------------------------------------------


def test_bitmask_is_immutable():
    m = BitMask.zeros(3, 3)
    with pytest.raises(ValueError):
        m.data[0, 0] = True


def test_bitmask_rejects_wrong_rank():
    with pytest.raises(MaskShapeError):
        BitMask(np.zeros((2, 2, 2), bool))
    with pytest.raises(MaskShapeError):
        BitMask(np.zeros((0, 4), bool))


def test_gray_image_rejects_out_of_range():
    with pytest.raises(ValueError):
        GrayImage(np.array([[300]]))


def test_set_ops_and_equality():
    a = mask_of(["##", ".."])
    b = mask_of(["#.", "#."])
    assert (a & b) == mask_of(["#.", ".."])
    assert (a | b) == mask_of(["##", "#."])
    assert (~a) == mask_of(["..", "##"])
