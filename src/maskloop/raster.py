"""Binary raster algebra and image primitives.

Masks and images are immutable wrappers around numpy arrays stored
row-major with shape (height, width). Everything that depends on the
geometry conventions lives here so the rest of the package can stay
agnostic:

  * pixel (px, py) maps to the normalized point ((px+0.5)/W, (py+0.5)/H),
    the inverse is floor(x*W) clamped to [0, W-1]
  * boxes are normalized, half-open: a pixel belongs to a box when its
    center satisfies x1 <= cx < x2 and y1 <= cy < y2
  * squared distance transforms treat out-of-bounds positions as
    out-of-region, so values near the border stay finite
  * ties (argmax, component ordering) resolve to the first row-major hit
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyMaskError, MaskShapeError, PnmError, RleError

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class BitMask:
    """Immutable boolean raster of shape (height, width)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        a = np.array(data, dtype=bool)
        if a.ndim != 2 or a.size == 0:
            raise MaskShapeError(f"mask must be 2-d and nonempty, got shape {a.shape}")
        self.data = _frozen(a)

    @classmethod
    def zeros(cls, width: int, height: int) -> "BitMask":
        return cls(np.zeros((height, width), dtype=bool))

    @classmethod
    def full(cls, width: int, height: int) -> "BitMask":
        return cls(np.ones((height, width), dtype=bool))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def area(self) -> int:
        return int(np.count_nonzero(self.data))

    def is_empty(self) -> bool:
        return not self.data.any()

    def __and__(self, other: "BitMask") -> "BitMask":
        _check_same_shape(self, other)
        return BitMask(self.data & other.data)

    def __or__(self, other: "BitMask") -> "BitMask":
        _check_same_shape(self, other)
        return BitMask(self.data | other.data)

    def __invert__(self) -> "BitMask":
        return BitMask(~self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"BitMask({self.width}x{self.height}, area={self.area()})"


class GrayImage:
    """Immutable 8-bit grayscale raster of shape (height, width)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        a = np.array(data)
        if a.ndim != 2 or a.size == 0:
            raise MaskShapeError(f"image must be 2-d and nonempty, got shape {a.shape}")
        if a.dtype != np.uint8:
            if a.min() < 0 or a.max() > 255:
                raise ValueError("gray intensities must lie in [0, 255]")
            a = a.astype(np.uint8)
        self.data = _frozen(a)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


class RgbImage:
    """Immutable 8-bit RGB raster of shape (height, width, 3)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        a = np.array(data)
        if a.ndim != 3 or a.shape[2] != 3 or a.shape[0] == 0 or a.shape[1] == 0:
            raise MaskShapeError(f"rgb raster must have shape (h, w, 3), got {a.shape}")
        if a.dtype != np.uint8:
            if a.min() < 0 or a.max() > 255:
                raise ValueError("rgb intensities must lie in [0, 255]")
            a = a.astype(np.uint8)
        self.data = _frozen(a)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RgbImage):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"RgbImage({self.width}x{self.height})"


class DistanceField:
    """Squared Euclidean distances, exact integers, shape (height, width)."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        a = np.array(values, dtype=np.int64)
        if a.ndim != 2 or a.size == 0:
            raise MaskShapeError(f"field must be 2-d and nonempty, got shape {a.shape}")
        if a.min() < 0:
            raise ValueError("squared distances cannot be negative")
        self.values = _frozen(a)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def max(self) -> int:
        return int(self.values.max())


@dataclass(frozen=True)
class NormPoint:
    """Normalized image coordinates, x to the right, y down, in [0, 1)."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x < 1.0 and 0.0 <= self.y < 1.0):
            raise ValueError(f"normalized point out of [0, 1): ({self.x}, {self.y})")


@dataclass(frozen=True)
class NormBox:
    """Normalized axis-aligned box with x1 <= x2 and y1 <= y2, in [0, 1)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not (0.0 <= v < 1.0):
                raise ValueError(f"box coordinate out of [0, 1): {v}")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"box corners out of order: {self}")


def _check_same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise MaskShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def check_paired(image: GrayImage, mask: BitMask) -> None:
    """Raise unless image and mask share dimensions."""
    if image.shape != mask.shape:
        raise MaskShapeError(f"image {image.shape} does not match mask {mask.shape}")


def pixel_center(px: int, py: int, width: int, height: int) -> NormPoint:
    """Normalized coordinates of the center of pixel (px, py)."""
    if not (0 <= px < width and 0 <= py < height):
        raise ValueError(f"pixel ({px}, {py}) outside {width}x{height}")
    return NormPoint((px + 0.5) / width, (py + 0.5) / height)


def point_to_pixel(p: NormPoint, width: int, height: int) -> tuple[int, int]:
    """Pixel containing a normalized point: floor(x*W), clamped in bounds."""
    px = min(max(int(math.floor(p.x * width)), 0), width - 1)
    py = min(max(int(math.floor(p.y * height)), 0), height - 1)
    return px, py


def iou(a: BitMask, b: BitMask) -> float:
    """Intersection over union; two empty masks count as a perfect match."""
    _check_same_shape(a, b)
    inter = int(np.count_nonzero(a.data & b.data))
    union = int(np.count_nonzero(a.data | b.data))
    if union == 0:
        return 1.0
    return inter / union


def edt_sq(region: BitMask) -> DistanceField:
    """Exact squared Euclidean distance to the nearest out-of-region pixel.

    Every out-of-bounds position counts as out-of-region, so the raster
    behaves as if surrounded by a background ring. In-region values are
    exact integers (>= 1), out-of-region pixels get 0.

    Linear time: scipy's exact feature transform (Maurer, Qi & Raghavan,
    TPAMI 2003) runs on the region's bounding box padded by one background
    pixel, and dy^2 + dx^2 to each nearest background pixel is rebuilt in
    integers. The crop is exact: all outside the box is background, and a
    pixel beyond the pad ring is no nearer the region than its clamp on it.
    """
    inside = region.data
    out = np.zeros(inside.shape, dtype=np.int64)
    boxes = ndimage.find_objects(inside.view(np.uint8))  # [] or [bounding box]
    if boxes:
        padded = np.pad(inside[boxes[0]], 1)
        feat = ndimage.distance_transform_edt(padded, return_distances=False, return_indices=True)
        delta = (feat - np.indices(padded.shape))[:, 1:-1, 1:-1]
        out[boxes[0]] = (delta * delta).sum(axis=0)
    return DistanceField(out)


def argmax_point(field: DistanceField) -> tuple[tuple[int, int], int]:
    """First row-major maximum of the field, as ((px, py), value)."""
    flat = int(np.argmax(field.values))
    py, px = divmod(flat, field.width)
    return (px, py), int(field.values[py, px])


def components(mask: BitMask) -> list[BitMask]:
    """4-connected components, ordered by their first row-major pixel."""
    if mask.is_empty():
        return []
    labels, n = ndimage.label(mask.data, structure=FOUR_CONNECTED)
    flat = labels.ravel()
    uniq, first = np.unique(flat, return_index=True)
    order = sorted((idx, lab) for lab, idx in zip(uniq.tolist(), first.tolist()) if lab != 0)
    return [BitMask(labels == lab) for _, lab in order]


def bbox(mask: BitMask) -> NormBox:
    """Tight normalized bounding box of the foreground.

    The lower edge of pixel min and the upper edge of pixel max, i.e.
    min/W and (max+1)/W, the latter clamped just below 1.0.
    """
    if mask.is_empty():
        raise EmptyMaskError("bbox of an empty mask is undefined")
    ys, xs = np.nonzero(mask.data)
    w, h = mask.width, mask.height
    top = math.nextafter(1.0, 0.0)
    return NormBox(
        x1=int(xs.min()) / w,
        y1=int(ys.min()) / h,
        x2=min((int(xs.max()) + 1) / w, top),
        y2=min((int(ys.max()) + 1) / h, top),
    )


def box_to_mask(box: NormBox, width: int, height: int) -> BitMask:
    """Rasterize a normalized box by pixel-center membership.

    A box narrower than the gap between adjacent pixel centers can come
    out empty.
    """
    cx = (np.arange(width, dtype=np.float64) + 0.5) / width
    cy = (np.arange(height, dtype=np.float64) + 0.5) / height
    sel_x = (cx >= box.x1) & (cx < box.x2)
    sel_y = (cy >= box.y1) & (cy < box.y2)
    return BitMask(sel_y[:, None] & sel_x[None, :])


@dataclass(frozen=True)
class RleMask:
    """Uncompressed run-length encoding of a mask.

    ``size`` is (height, width); ``counts`` alternate background and
    foreground runs over the row-major raster, starting with a
    (possibly zero) background run.
    """

    size: tuple[int, int]
    counts: tuple[int, ...]

    def __post_init__(self):
        h, w = self.size
        if h < 1 or w < 1:
            raise RleError(f"invalid size {self.size}")
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "size", (int(h), int(w)))
        object.__setattr__(self, "counts", counts)
        if not counts:
            raise RleError("counts may not be empty")
        for i, c in enumerate(counts):
            if c < 0:
                raise RleError(f"negative run at index {i}")
            if c == 0 and i != 0:
                raise RleError(f"zero run at index {i} (only the first may be 0)")
        if sum(counts) != h * w:
            raise RleError(f"counts sum {sum(counts)} != {h}*{w}")

    def to_dict(self) -> dict:
        return {"size": [self.size[0], self.size[1]], "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, obj: dict) -> "RleMask":
        try:
            size = obj["size"]
            counts = obj["counts"]
        except (KeyError, TypeError) as e:
            raise RleError(f"malformed rle object: {e}")
        if not isinstance(size, (list, tuple)) or len(size) != 2:
            raise RleError(f"malformed rle size: {size!r}")
        return cls(size=(size[0], size[1]), counts=tuple(counts))


def rle_encode(mask: BitMask) -> RleMask:
    """Encode a mask into alternating row-major run lengths."""
    flat = mask.data.ravel()
    change = np.nonzero(np.diff(flat))[0] + 1
    idx = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(idx).tolist()
    if flat[0]:
        runs = [0] + runs
    return RleMask(size=mask.shape, counts=tuple(int(r) for r in runs))


def rle_decode(rle: RleMask) -> BitMask:
    """Decode run lengths back into a mask (inverse of rle_encode)."""
    h, w = rle.size
    vals = (np.arange(len(rle.counts)) % 2).astype(bool)
    flat = np.repeat(vals, rle.counts)
    return BitMask(flat.reshape(h, w))


GREEN = (0, 255, 0)


def render_overlay(
    image: GrayImage,
    mask: BitMask,
    color: tuple[int, int, int] = GREEN,
    alpha: float = 0.5,
) -> RgbImage:
    """Blend a semi-transparent color over the masked pixels.

    Masked channels become round((1-alpha)*gray + alpha*color), rounding
    halves up; unmasked pixels replicate the gray value. Inputs are left
    untouched.
    """
    check_paired(image, mask)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha out of [0, 1]: {alpha}")
    if len(color) != 3 or any(not (0 <= c <= 255) for c in color):
        raise ValueError(f"invalid rgb color {color!r}")
    gray = image.data.astype(np.float64)
    base = np.stack([image.data] * 3, axis=-1)
    col = np.array(color, dtype=np.float64)
    blended = np.floor((1.0 - alpha) * gray[..., None] + alpha * col[None, None, :] + 0.5)
    out = np.where(mask.data[..., None], blended.astype(np.uint8), base)
    return RgbImage(out)


# --- PGM (P5) and PPM (P6) input/output ---------------------------------


def _parse_pnm_header(buf: bytes, magic: bytes, path: str) -> tuple[int, int, int]:
    """Parse magic + three header ints, return (w, h, data offset); maxval must be 255."""
    if not buf.startswith(magic):
        raise PnmError(f"{path}: expected {magic.decode()} header")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(buf):
            raise PnmError(f"{path}: truncated header")
        c = buf[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise PnmError(f"{path}: unterminated comment")
            pos = nl + 1
        elif c.isdigit():
            end = pos
            while end < len(buf) and buf[end : end + 1].isdigit():
                end += 1
            fields.append(int(buf[pos:end]))
            pos = end
        else:
            raise PnmError(f"{path}: unexpected byte {c!r} in header")
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise PnmError(f"{path}: missing whitespace after maxval")
    pos += 1
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise PnmError(f"{path}: bad dimensions {w}x{h}")
    if maxval != 255:
        raise PnmError(f"{path}: only maxval 255 is supported, got {maxval}")
    return w, h, pos


def encode_pgm(image: GrayImage | BitMask) -> bytes:
    """PGM bytes of a grayscale image, or of a mask as 0 background / 255 foreground."""
    if isinstance(image, BitMask):
        data = np.where(image.data, 255, 0).astype(np.uint8)
    else:
        data = image.data
    h, w = data.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def encode_ppm(image: RgbImage) -> bytes:
    h, w = image.data.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + image.data.tobytes()


def _decode_pnm(buf: bytes, magic: bytes, channels: int, source: str) -> np.ndarray:
    """Pixels of a PGM (1 channel) or PPM (3 channels) buffer, shaped (h, w, channels)."""
    w, h, pos = _parse_pnm_header(buf, magic, source)
    n = w * h * channels
    body = buf[pos : pos + n]
    if len(body) != n:
        raise PnmError(f"{source}: expected {n} pixel bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, channels)


def decode_pgm(buf: bytes, source: str = "<bytes>") -> GrayImage:
    return GrayImage(_decode_pnm(buf, b"P5", 1, source)[:, :, 0])


def decode_ppm(buf: bytes, source: str = "<bytes>") -> RgbImage:
    return RgbImage(_decode_pnm(buf, b"P6", 3, source))


def write_pgm(image: GrayImage | BitMask, path: str) -> None:
    """Write a grayscale image, or a mask as 0 background / 255 foreground."""
    with open(path, "wb") as fh:
        fh.write(encode_pgm(image))


def read_pgm_image(path: str) -> GrayImage:
    with open(path, "rb") as fh:
        return decode_pgm(fh.read(), path)


def read_pgm_mask(path: str) -> BitMask:
    """Read a mask PGM; any value other than 0 or 255 is an error."""
    img = read_pgm_image(path)
    bad = (img.data != 0) & (img.data != 255)
    if bad.any():
        raise PnmError(f"{path}: mask contains values other than 0/255")
    return BitMask(img.data == 255)


def write_ppm(image: RgbImage, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_ppm(image))


def read_ppm(path: str) -> RgbImage:
    with open(path, "rb") as fh:
        return decode_ppm(fh.read(), path)
