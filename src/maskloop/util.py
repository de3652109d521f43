"""Small shared helpers: deterministic seeding, rounding, an ordered thread map."""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

_MASK32 = 0xFFFFFFFF


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def mix_seed(*parts: object) -> int:
    """Fold arbitrary parts into a stable 32-bit seed.

    Uses crc32 over the repr of each part, so the result is reproducible
    across processes (unlike the builtin hash).
    """
    acc = 0
    for part in parts:
        acc = zlib.crc32(repr(part).encode("utf-8"), acc)
    return acc & _MASK32


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(item) for item in items]``, run on ``jobs`` threads when above 1.

    Results keep the order of ``items``; the first exception raised by
    ``fn``, in that order, propagates.
    """
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
