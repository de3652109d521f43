from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskloop.errors import EmptyMaskError, FieldError, MaskShapeError, PnmError, RleError
from maskloop.raster import (
    BitMask,
    GrayImage,
    NormBox,
    NormPoint,
    RgbImage,
    RleMask,
    bbox,
    box_to_mask,
    component_labels,
    decode_pgm,
    decode_ppm,
    deepest_pixel,
    edt_sq,
    encode_pgm,
    encode_ppm,
    iou,
    overlay_table,
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

from conftest import (
    blend_overlay,
    brute_deepest,
    brute_edt_sq,
    check_deepest_exhaustive,
    embedded_edt_sq,
    flood_components,
    mask_of,
    rand_mask,
)


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
    field, origin = edt_sq(BitMask(m))
    assert field.shape == (1, 1) and origin == (4, 2)
    d = embedded_edt_sq(m)
    assert d[2, 4] == 1
    assert d.sum() == 1


def test_edt_3x3_all_true():
    d = embedded_edt_sq(np.ones((3, 3), bool))
    expected = np.array([[1, 1, 1], [1, 4, 1], [1, 1, 1]])
    assert np.array_equal(d, expected)


def test_edt_empty_mask_all_zero():
    # an empty region has an empty bounding box: a 0x0 field at (0, 0)
    field, origin = edt_sq(BitMask.zeros(4, 4))
    assert field.shape == (0, 0) and field.dtype == np.int64 and not field.flags.writeable
    assert origin == (0, 0)
    assert not embedded_edt_sq(np.zeros((4, 4), bool)).any()


def test_edt_values_positive_inside_zero_outside():
    m = mask_of(["..##", ".###", "..#."])
    d = embedded_edt_sq(m.data)
    assert (d[m.data] >= 1).all()
    assert (d[~m.data] == 0).all()


def test_edt_matches_brute_force_on_random_masks(rng):
    for _ in range(60):
        m = rand_mask(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)), float(rng.random()))
        assert np.array_equal(embedded_edt_sq(m), brute_edt_sq(m))


_sides = st.integers(1, 24)


def _rasters(shapes):
    # arrays() fills most cells with False, so the complement adds dense regions
    sparse = shapes.flatmap(lambda hw: arrays(bool, hw))
    return st.one_of(sparse, sparse.map(np.logical_not))


@settings(max_examples=300, deadline=None)
@given(_rasters(st.tuples(_sides, _sides)))
def test_edt_matches_brute_force_on_any_raster(m):
    assert np.array_equal(embedded_edt_sq(m), brute_edt_sq(m))


_thin = st.one_of(_sides.map(lambda n: (1, n)), _sides.map(lambda n: (n, 1)))


@settings(max_examples=100, deadline=None)
@given(_rasters(_thin))
def test_edt_matches_brute_force_on_thin_rasters(m):
    assert np.array_equal(embedded_edt_sq(m), brute_edt_sq(m))


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
    assert np.array_equal(embedded_edt_sq(m), brute_edt_sq(m))


def test_edt_out_of_bounds_counts_as_background():
    # a full row: distance grows toward the middle, bounded by top/bottom
    m = np.ones((1, 9), bool)
    d = embedded_edt_sq(m)
    assert d[0, 0] == 1
    assert d[0, 4] == 1  # row of height 1: border above/below is adjacent


def test_edt_argmax_is_row_major_first():
    m = np.zeros((4, 5), bool)
    m[1:3, 2:4] = [[False, True], [True, True]]
    field, (x0, y0) = edt_sq(BitMask(m))
    py, px = divmod(int(field.argmax()), field.shape[1])
    # (x, y) of the first maximum in row-major order, on the box and on the raster
    assert (px, py) == (1, 0)
    assert deepest_pixel(BitMask(m)) == (1, (x0 + px, y0 + py)) == (1, (3, 1))


def test_edt_argmax_center_of_full_5x5():
    field, origin = edt_sq(BitMask.full(5, 5))
    assert origin == (0, 0) and field[2, 2] == field.max() == 9
    assert deepest_pixel(BitMask.full(5, 5)) == (9, (2, 2))


# --- deepest pixel -----------------------------------------------------


def test_deepest_pixel_of_an_empty_region():
    assert deepest_pixel(BitMask.zeros(7, 3)) == (0, (0, 0))
    assert brute_deepest(np.zeros((3, 7), bool)) == (0, (0, 0))


def test_deepest_pixel_on_every_mask_up_to_3x3():
    # the CI step "Deepest pixel on every small mask" goes up to 4x4, 3x5 and 5x3
    assert check_deepest_exhaustive([(h, w) for h in range(1, 4) for w in range(1, 4)]) == 682


_wide = st.tuples(st.integers(1, 48), st.integers(1, 48))


@settings(max_examples=150, deadline=None)
@given(_rasters(_wide))
def test_deepest_pixel_matches_brute_force_on_any_raster(m):
    assert deepest_pixel(BitMask(m)) == brute_deepest(m)


def _disc(h, w, cx, cy, r_out, r_in):
    """Pixels within r_out of (cx, cy) and not within r_in: a ring, or a
    disc when r_in is 0; the centre may lie off the raster."""
    yy, xx = np.mgrid[:h, :w]
    d2 = (xx - cx) ** 2 + (yy - cy) ** 2
    return (d2 <= r_out * r_out) & (d2 >= r_in * r_in)


@st.composite
def _shapes(draw):
    """A non-square raster holding rings and discs, one-pixel lines,
    rectangles flush with a border or a corner, or a shape mirrored onto
    itself (whose depths tie exactly); several of them make several
    components, or merge."""
    h, w = draw(_wide.filter(lambda hw: hw[0] != hw[1]))
    m = np.zeros((h, w), bool)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ring", "line", "flush", "mirror"]))
        if kind == "ring":
            r_out = draw(st.integers(0, 30))
            cx, cy = draw(st.integers(-5, w + 4)), draw(st.integers(-5, h + 4))
            m |= _disc(h, w, cx, cy, r_out, draw(st.integers(0, r_out)))
        elif kind == "line":
            k = draw(st.integers(-48, 48))
            m |= draw(st.sampled_from([np.eye(h, w, k, bool), np.eye(h, w, k, bool)[:, ::-1]]))
            m[draw(st.integers(0, h - 1))] |= draw(st.booleans())
            m[:, draw(st.integers(0, w - 1))] |= draw(st.booleans())
        elif kind == "flush":
            bh, bw = draw(st.integers(1, h)), draw(st.integers(1, w))
            y0 = draw(st.sampled_from([0, h - bh]))
            x0 = draw(st.one_of(st.sampled_from([0, w - bw]), st.integers(0, w - bw)))
            m[y0 : y0 + bh, x0 : x0 + bw] = True
        else:
            m = m | draw(st.sampled_from([m[::-1], m[:, ::-1], m[::-1, ::-1]]))
    return m


@settings(max_examples=300, deadline=None)
@given(_shapes())
def test_deepest_pixel_matches_brute_force_on_drawn_shapes(m):
    assert deepest_pixel(BitMask(m)) == brute_deepest(m)


# --- components --------------------------------------------------------


def _label_sets(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """``component_labels`` as (x, y) pixel sets, label 1 first; checks that
    the labels are a read-only int32 raster shaped like the mask, zero
    exactly on the background."""
    labels = component_labels(BitMask(mask))
    assert labels.dtype == np.int32 and not labels.flags.writeable
    assert labels.shape == mask.shape
    assert np.array_equal(labels > 0, mask)
    return [{(int(x), int(y)) for y, x in zip(*np.nonzero(labels == k))} for k in range(1, int(labels.max()) + 1)]


def test_components_ring_is_single():
    side = 15
    ys, xs = np.mgrid[0:side, 0:side]
    d2 = (xs - 7) ** 2 + (ys - 7) ** 2
    ring = (d2 <= 36) & (d2 > 16)
    comps = _label_sets(ring)
    assert len(comps) == 1
    assert comps == flood_components(ring)


def test_components_match_flood_fill_oracle(rng):
    for _ in range(40):
        m = rand_mask(rng, 12, 12, 0.35)
        # same pixels, label k the k-th first row-major pixel
        assert _label_sets(m) == flood_components(m)


def test_components_empty_mask():
    assert _label_sets(np.zeros((4, 4), bool)) == []


def test_components_diagonal_pixels_are_separate():
    m = mask_of(["#.", ".#"]).data
    assert _label_sets(m) == flood_components(m)
    assert len(flood_components(m)) == 2


@st.composite
def _one_pixel(draw):
    h, w = draw(st.tuples(_sides, _sides))
    m = np.zeros((h, w), bool)
    m[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    return m


@st.composite
def _border_touching(draw):
    """A sparse raster plus a few pixels of its outer ring, corners included."""
    h, w = draw(st.tuples(_sides, _sides))
    m = draw(arrays(bool, (h, w))).copy()
    ring = [(y, x) for y in range(h) for x in range(w) if y in (0, h - 1) or x in (0, w - 1)]
    for y, x in draw(st.lists(st.sampled_from(ring), min_size=1, max_size=4)):
        m[y, x] = True
    return m


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _rasters(st.tuples(_sides, _sides)),
        _rasters(_thin),
        _one_pixel(),
        _border_touching(),
        st.tuples(_sides, _sides).map(lambda hw: np.zeros(hw, bool)),
    )
)
def test_component_labels_match_flood_fill_on_any_raster(m):
    assert _label_sets(m) == flood_components(m)


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


_uniform = st.tuples(_sides, _sides).flatmap(lambda hw: st.sampled_from([np.zeros(hw, bool), np.ones(hw, bool)]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rasters(st.tuples(_sides, _sides)), _rasters(_thin), _uniform))
def test_rle_round_trips_any_raster(m):
    mask = BitMask(m)
    rle = rle_encode(mask)
    assert rle_decode(rle) == mask
    assert RleMask.from_dict(json.loads(json.dumps(rle.to_dict()))) == rle


def _rle(size, counts) -> dict:
    return {"size": list(size), "counts": list(counts)}


def test_rle_rejects_bad_counts():
    with pytest.raises(RleError):
        RleMask.from_dict(_rle((2, 2), (1, 1)))  # sums to 2, not 4
    with pytest.raises(RleError):
        RleMask.from_dict(_rle((2, 2), (1, 0, 3)))  # zero run after the first
    with pytest.raises(RleError):
        RleMask.from_dict(_rle((2, 2), ()))


@pytest.mark.parametrize(
    "size, counts",
    [
        ((2, 2), (2.9, 2.1)),  # floats are not truncated to (2, 2)
        ((2, 2), (4.0,)),
        ((2, 2), "13"),  # a string is not read as the runs (1, 3)
        ((2, 2), (4.5,)),
        ((1, 1), (True,)),  # a boolean is not a run of 1
        ((1, 2), (1, True)),
        ((2, 2), ("4",)),
        ((2, 2), (None,)),
        (("2", "2"), (4,)),  # a string size
        ((2.0, 2), (4,)),
        ((True, 1), (0, 1)),
        ((1, 2**63), (2**63,)),  # beyond int64
        ((1, 2**64), (0, 2**64)),
        ((1, 1), (-(2**63) - 1, 1)),
        ((2,), (2,)),
    ],
)
def test_rle_accepts_integers_only(size, counts):
    obj = {"size": list(size), "counts": counts if isinstance(counts, str) else list(counts)}
    # a value of another JSON type is a FieldError; integers out of range an RleError
    integral = not isinstance(counts, str) and all(type(v) is int for v in (*size, *counts))
    with pytest.raises(RleError if integral else FieldError):
        RleMask.from_dict(obj)


def test_rle_from_dict_keeps_run_checks_and_names_the_field():
    with pytest.raises(RleError, match=r"^counts: negative run at index 1"):
        RleMask.from_dict(_rle((1, 2), (3, -1)))
    with pytest.raises(RleError, match=r"^mask\.counts: zero run at index 1"):
        RleMask.from_dict(_rle((1, 2), (1, 0, -1, 2)), "mask")  # the first bad run is named
    with pytest.raises(RleError, match="sum"):
        # runs near the int64 limit: an int64 sum would wrap around to 2
        RleMask.from_dict(_rle((1, 2), (2**62, 2**62, 2**62, 2**62 + 2)))
    named = r"^steps\[0\]\.mask_after\.counts\[1\]: expected an integer in a list of integers, got 3.0"
    with pytest.raises(FieldError, match=named):
        RleMask.from_dict(_rle((2, 2), (0, 3.0, 1)), "steps[0].mask_after")
    for bad in ({"size": [2, 2], "counts": "4"}, {"size": [2, 2], "counts": 4}, {"size": "22", "counts": [4]}, [2, 2]):
        with pytest.raises(FieldError):
            RleMask.from_dict(bad)


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


_colors = st.tuples(*[st.integers(0, 255)] * 3)
_alphas = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def _overlay_cases(draw):
    h, w = draw(st.sampled_from([(1, 1), (1, 7), (7, 1), (5, 6), (16, 16)]))
    gray = draw(arrays(np.uint8, (h, w)))
    mask = draw(arrays(bool, (h, w)))
    return gray, mask, draw(_colors), draw(_alphas)


@settings(max_examples=300, deadline=None)
@given(_overlay_cases())
def test_overlay_equals_the_float_blend(case):
    gray, mask, color, alpha = case
    out = render_overlay(GrayImage(gray), BitMask(mask), color, alpha)
    assert out.data.dtype == np.uint8
    assert np.array_equal(out.data, blend_overlay(gray, mask, color, alpha))


@settings(max_examples=200, deadline=None)
@given(_colors, _alphas)
def test_overlay_table_is_the_fully_masked_ramp(color, alpha):
    ramp = np.arange(256, dtype=np.uint8)[None, :]
    table = overlay_table(color, alpha)
    assert table.shape == (256, 3) and table.dtype == np.uint8
    assert np.array_equal(table, blend_overlay(ramp, np.ones_like(ramp, bool), color, alpha)[0])


def test_overlay_alpha_out_of_range():
    img = GrayImage(np.zeros((2, 2), np.uint8))
    with pytest.raises(ValueError):
        render_overlay(img, BitMask.zeros(2, 2), (0, 255, 0), 1.5)
    for color in ((0, 256, 0), (0, -1, 0), (0, 255)):
        with pytest.raises(ValueError):
            render_overlay(img, BitMask.zeros(2, 2), color, 0.5)


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


# one 2x3 raster of each type: (constructor, pixels, repr)
RASTERS = [
    (BitMask, np.array([[1, 0, 1], [0, 0, 1]], bool), "BitMask(3x2, area=3)"),
    (GrayImage, np.array([[1, 0, 1], [0, 0, 1]], np.uint8), "GrayImage(3x2)"),
    (RgbImage, np.ones((2, 3, 3), np.uint8), "RgbImage(3x2)"),
]


@pytest.mark.parametrize("make, pixels, text", RASTERS)
def test_rasters_share_value_semantics(make, pixels, text):
    r = make(pixels)
    assert (r.width, r.height, r.shape) == (3, 2, pixels.shape)
    assert repr(r) == text
    assert r == make(pixels.copy()) and not r != make(pixels.copy())
    with pytest.raises(TypeError, match="unhashable"):
        hash(r)
    with pytest.raises(ValueError):
        r.data[0, 0] = 0
    with pytest.raises(AttributeError):
        r.note = "no __dict__"
    # rasters of different types never compare equal, even over equal arrays
    others = [other(p) for other, p, _ in RASTERS if other is not make]
    if make is not RgbImage:
        twin = (GrayImage if make is BitMask else BitMask)(pixels)
        assert np.array_equal(twin.data, r.data)
        others.append(twin)
    for other in others:
        assert r != other and other != r and not r == other


@pytest.mark.parametrize("make, pixels, _", RASTERS)
def test_rasters_reject_a_bad_rank_or_size(make, pixels, _):
    for bad in (pixels[0], pixels[None], pixels[:0], pixels[:, :0]):
        with pytest.raises(MaskShapeError):
            make(bad)
    if make is RgbImage:
        with pytest.raises(MaskShapeError):
            make(pixels[:, :, :2])


@pytest.mark.parametrize("make", [GrayImage, RgbImage])
@pytest.mark.parametrize("level", [-1, 256, 300.0])
def test_images_reject_an_out_of_range_level(make, level):
    pixels = np.zeros((2, 3, 3) if make is RgbImage else (2, 3), np.int64).astype(type(level))
    pixels[1, 2] = level
    with pytest.raises(ValueError, match=r"intensities must lie in \[0, 255\]"):
        make(pixels)
    pixels[1, 2] = 255
    assert make(pixels).data.dtype == np.uint8
