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

from . import fields
from .errors import EmptyMaskError, MaskShapeError, PnmError, RleError

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _levels(a: np.ndarray, kind: str) -> np.ndarray:
    """The intensities as a read-only uint8 array; ValueError outside [0, 255]."""
    if a.dtype != np.uint8:
        if a.min() < 0 or a.max() > 255:
            raise ValueError(f"{kind} intensities must lie in [0, 255]")
        a = a.astype(np.uint8)
    return _frozen(a)


class _Raster:
    """Immutable raster over a read-only array of shape (height, width, ...).

    Equal only to a raster of its own type with equal pixels; unhashable.
    """

    __slots__ = ("data",)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.width}x{self.height})"


class BitMask(_Raster):
    """Immutable boolean raster of shape (height, width)."""

    __slots__ = ()

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

    def area(self) -> int:
        return int(np.count_nonzero(self.data))

    def is_empty(self) -> bool:
        return not self.data.any()

    def __and__(self, other: "BitMask") -> "BitMask":
        check_same_shape(self, other)
        return BitMask(self.data & other.data)

    def __or__(self, other: "BitMask") -> "BitMask":
        check_same_shape(self, other)
        return BitMask(self.data | other.data)

    def __invert__(self) -> "BitMask":
        return BitMask(~self.data)

    def __repr__(self) -> str:
        return f"BitMask({self.width}x{self.height}, area={self.area()})"


class GrayImage(_Raster):
    """Immutable 8-bit grayscale raster of shape (height, width)."""

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        a = np.array(data)
        if a.ndim != 2 or a.size == 0:
            raise MaskShapeError(f"image must be 2-d and nonempty, got shape {a.shape}")
        self.data = _levels(a, "gray")


class RgbImage(_Raster):
    """Immutable 8-bit RGB raster of shape (height, width, 3)."""

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        a = np.array(data)
        if a.ndim != 3 or a.shape[2] != 3 or a.shape[0] == 0 or a.shape[1] == 0:
            raise MaskShapeError(f"rgb raster must have shape (h, w, 3), got {a.shape}")
        self.data = _levels(a, "rgb")


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


def check_same_shape(a, b) -> None:
    """MaskShapeError unless two rasters (or anything with a shape) line up."""
    if a.shape != b.shape:
        raise MaskShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def _foreground_box(mask: BitMask) -> tuple[int, int, int, int] | None:
    """Half-open pixel box (x0, y0, x1, y1) of the foreground; None if empty."""
    rows = np.flatnonzero(mask.data.any(axis=1))
    if not rows.size:
        return None
    y0, y1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(mask.data[y0:y1].any(axis=0))
    return int(cols[0]), y0, int(cols[-1]) + 1, y1


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
    check_same_shape(a, b)
    inter = int(np.count_nonzero(a.data & b.data))
    union = int(np.count_nonzero(a.data | b.data))
    if union == 0:
        return 1.0
    return inter / union


def edt_sq(region: BitMask) -> tuple[np.ndarray, tuple[int, int]]:
    """Exact squared Euclidean distance to the nearest out-of-region pixel,
    over the region's bounding box.

    Returns ``(field, (x0, y0))``: a read-only int64 array shaped like the
    region's bounding box, and the box's top-left pixel, so ``field[y, x]``
    belongs to raster pixel ``(x0 + x, y0 + y)``. In-region values are
    exact integers (>= 1); out-of-region pixels, in the box or outside it,
    are at distance 0. Every out-of-bounds position counts as
    out-of-region, so the raster behaves as if surrounded by a background
    ring. An empty region gives a 0x0 field at (0, 0).

    Linear time: scipy's exact feature transform (Maurer, Qi & Raghavan,
    TPAMI 2003) runs on the box padded by one background pixel, and
    dy^2 + dx^2 to each nearest background pixel is rebuilt in integers.
    The crop is exact: all outside the box is background, and a pixel
    beyond the pad ring is no nearer the region than its clamp on it.
    The squares are summed in place in scipy's int32 indices: no value
    exceeds the squared depth ((min(h, w) + 1) / 2)^2 of an h x w box,
    which is below 2^31 while the shorter side is under 92,680 pixels.
    """
    from scipy import ndimage

    box = _foreground_box(region)
    if box is None:
        return _frozen(np.zeros((0, 0), dtype=np.int64)), (0, 0)
    x0, y0, x1, y1 = box
    h, w = y1 - y0, x1 - x0
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = region.data[y0:y1, x0:x1]
    indices = ndimage.distance_transform_edt(padded, return_distances=False, return_indices=True)
    dy, dx = indices[:, 1:-1, 1:-1]
    dy -= np.arange(1, h + 1, dtype=dy.dtype)[:, None]
    dx -= np.arange(1, w + 1, dtype=dx.dtype)
    dy *= dy
    dx *= dx
    dy += dx
    return _frozen(dy.astype(np.int64)), (x0, y0)


def deepest_pixel(region: BitMask) -> tuple[int, tuple[int, int]]:
    """The region's largest squared distance to a non-region pixel, and the
    first row-major pixel (px, py) that reaches it; (0, (0, 0)) for an empty
    region. Out-of-bounds positions count as non-region, so this is the
    first row-major maximum of ``edt_sq``'s field, offset by its origin.

    An exact pruned search over the region's bounding box, in numpy only.
    Let g and h be a region pixel's distances to the nearest non-region
    pixel in its column and in its row (both 0 off the region). Then

      * D^2(x, y) = min over rows y' of (y - y')^2 + h(x, y')^2, and only
        rows with |y - y'| <= D can attain it;
      * D^2 <= min(g, h)^2, the pixel's bound.

    So D^2 is computed only where the bound reaches the best depth found:
    first at the pixels of the largest bound m; then, if a pixel of bound
    m - 1 or less could still win, or tie at an earlier pixel, at those of
    bound min(m - 1, isqrt(best)) to m - 1. No bound below isqrt(best)
    reaches best, so the search ends there.

    g and h come from the runs of one flat array that holds the box's
    columns and then its rows (a False before each line and a False row
    above and below the rows), expanded by ``np.repeat``. Positions in it
    are int32, so a box of about 2^30 pixels or more is refused.
    """
    box = _foreground_box(region)
    if box is None:
        return 0, (0, 0)
    x0, y0, x1, y1 = box
    h, w = y1 - y0, x1 - x0
    nv = w * (h + 1)
    n = nv + (h + 2) * (w + 1)
    if n > np.iinfo(np.int32).max:
        raise MaskShapeError(f"region box {w}x{h} is too large for deepest_pixel's int32 positions")
    crop = region.data[y0:y1, x0:x1]
    lines = np.zeros(n, bool)
    lines[:nv].reshape(w, h + 1)[:, 1:] = crop.T
    lines[nv:].reshape(h + 2, w + 1)[1:-1, 1:] = crop
    # the first index of every run of equal values, then n; the runs of
    # False are the even ones, as the array starts and ends with False
    change = np.empty(n + 1, bool)
    change[0] = change[n] = True
    np.not_equal(lines[1:], lines[:-1], out=change[1:n])
    starts = np.flatnonzero(change).astype(np.int32)
    length = starts[1:] - starts[:-1]
    far = length + 1
    far[0::2] = 0
    depth = np.arange(1, n + 1, dtype=np.int32)
    depth -= np.repeat(starts[:-1], length)
    down = np.repeat(far, length)
    down -= depth
    # distance to the nearest False along the line; <= 0 on False
    np.minimum(depth, down, out=depth)
    bound = depth[:nv].reshape(w, h + 1)[:, 1:].T.copy()
    np.minimum(bound, depth[nv:].reshape(h + 2, w + 1)[1:-1, 1:], out=bound)
    rows = depth[nv:]  # h on the rows, with a False row above and below
    m = int(bound.max())
    dy = np.arange(-m, m + 1, dtype=np.int32)
    step = dy * (w + 1) + (w + 2)  # from box pixel k, k + k // w + step is (x, y + dy) in rows
    dy *= dy
    best = at = 0
    lo = hi = m
    pixels = np.flatnonzero(bound == m)
    while True:
        if pixels.size:
            span = slice(m - hi, m + hi + 1)
            # out of range only where dy^2 alone exceeds the pixel's bound
            d = rows.take(step[span, None] + (pixels + pixels // w), mode="clip")
            np.maximum(d, 0, out=d)  # 0 off the region
            np.minimum(d, m, out=d)  # past m no term wins; the squares stay in int32
            d *= d
            d += dy[span, None]
            d = d.min(axis=0)
            k = int(d.argmax())
            if d[k] > best or (d[k] == best and pixels[k] < at):
                best, at = int(d[k]), int(pixels[k])
        if (lo - 1) ** 2 < best:  # no unevaluated pixel wins or ties
            py, px = divmod(at, w)
            return best, (x0 + px, y0 + py)
        hi, lo = lo - 1, min(lo - 1, math.isqrt(best))
        level = bound >= lo
        level &= bound <= hi
        pixels = np.flatnonzero(level)


def component_labels(mask: BitMask) -> np.ndarray:
    """Read-only int32 labels of the 4-connected components; 0 is background.

    Label k is the component with the k-th first row-major pixel. Only the
    mask's bounding box is labelled: nothing outside it is foreground, and
    inside it row-major order is the raster's, so the labels are the same.
    """
    from scipy import ndimage

    labels = np.zeros(mask.shape, dtype=np.int32)
    box = _foreground_box(mask)
    if box is not None:
        x0, y0, x1, y1 = box
        crop = np.s_[y0:y1, x0:x1]
        ndimage.label(mask.data[crop], structure=FOUR_CONNECTED, output=labels[crop])
    return _frozen(labels)


def bbox(mask: BitMask) -> NormBox:
    """Tight normalized bounding box of the foreground.

    The lower edge of pixel min and the upper edge of pixel max, i.e.
    min/W and (max+1)/W, the latter clamped just below 1.0.
    """
    box = _foreground_box(mask)
    if box is None:
        raise EmptyMaskError("bbox of an empty mask is undefined")
    x0, y0, x1, y1 = box
    w, h = mask.width, mask.height
    top = math.nextafter(1.0, 0.0)
    return NormBox(x1=x0 / w, y1=y0 / h, x2=min(x1 / w, top), y2=min(y1 / h, top))


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
    (possibly zero) background run. Runs from outside arrive through
    from_dict, which checks them; rle_encode's are right by construction.
    """

    size: tuple[int, int]
    counts: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"size": [self.size[0], self.size[1]], "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, obj: dict, where: str = "") -> "RleMask":
        """Read runs from JSON: integers within int64, the first run at
        least 0, every other at least 1, summing to height * width.
        ``where`` is the object's path, for the errors."""
        size = fields.integers(obj, "size", where)
        counts = fields.integers(obj, "counts", where)
        at = fields.path(where, "counts")
        if len(size) != 2:
            raise RleError(f"{fields.path(where, 'size')}: expected [height, width], got {size!r}")
        if not counts:
            raise RleError(f"{at}: may not be empty")
        try:
            values = np.fromiter(size + counts, np.int64, len(size) + len(counts))
        except OverflowError:
            raise RleError(f"{where or 'rle'}: size or counts beyond int64")
        h, w = size
        if values.min() < 1:  # one pass: every value is at least 1 but a first run of 0
            if h < 1 or w < 1:
                raise RleError(f"{fields.path(where, 'size')}: invalid size {size}")
            bad = values[2:] < 1
            bad[0] = counts[0] < 0
            if bad.any():
                i = int(np.argmax(bad))
                kind = "negative" if counts[i] < 0 else "zero"
                raise RleError(f"{at}: {kind} run at index {i} (runs are at least 1, the first at least 0)")
        if sum(counts) != h * w:  # Python ints: the sum cannot overflow
            raise RleError(f"{at}: sum {sum(counts)} != {h}*{w}")
        return cls(size=(h, w), counts=tuple(counts))


def rle_encode(mask: BitMask) -> RleMask:
    """Encode a mask into alternating row-major run lengths."""
    flat = mask.data.ravel()
    # the last pixel of each run, after -1 for the pixel before the first
    change = np.flatnonzero(flat[1:] != flat[:-1])
    ends = np.empty(change.size + 2, dtype=np.int64)
    ends[0] = -1
    ends[1:-1] = change
    ends[-1] = flat.size - 1
    runs = (ends[1:] - ends[:-1]).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return RleMask(size=mask.shape, counts=tuple(runs))


def rle_decode(rle: RleMask) -> BitMask:
    """Decode run lengths back into a mask (inverse of rle_encode)."""
    h, w = rle.size
    vals = (np.arange(len(rle.counts)) % 2).astype(bool)
    flat = np.repeat(vals, rle.counts)
    return BitMask(flat.reshape(h, w))


GREEN = (0, 255, 0)


def overlay_table(color: tuple[int, int, int] = GREEN, alpha: float = 0.5) -> np.ndarray:
    """Masked RGB of every gray level, shape (256, 3) uint8.

    Row g is round((1-alpha)*g + alpha*color), rounding halves up.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha out of [0, 1]: {alpha}")
    if len(color) != 3 or any(not (0 <= c <= 255) for c in color):
        raise ValueError(f"invalid rgb color {color!r}")
    gray = np.arange(256, dtype=np.float64)
    col = np.array(color, dtype=np.float64)
    return np.floor((1.0 - alpha) * gray[:, None] + alpha * col[None, :] + 0.5).astype(np.uint8)


def render_overlay(
    image: GrayImage,
    mask: BitMask,
    color: tuple[int, int, int] = GREEN,
    alpha: float = 0.5,
) -> RgbImage:
    """Blend a semi-transparent color over the masked pixels.

    Masked pixels take their gray level's row of overlay_table; unmasked
    pixels replicate the gray value. Inputs are left untouched.
    """
    check_same_shape(image, mask)
    # rows 0-255: each gray level unmasked; rows 256-511: the same level masked
    levels = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)
    table = np.concatenate([levels, overlay_table(color, alpha)])
    return RgbImage(table.take(image.data + 256 * mask.data.astype(np.uint16), axis=0))


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
