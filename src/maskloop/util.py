"""Small shared helpers: seeding, rounding, a mean, the JSON writer, an ordered thread map."""

from __future__ import annotations

import json
import logging
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from .errors import ProtocolError, RemoteError

log = logging.getLogger(__name__)

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


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean; 0.0 for no values."""
    return sum(values) / len(values) if values else 0.0


def write_json(path: str, obj: object) -> None:
    """Write ``obj`` the way every JSON file here is written: indent 2, sorted keys, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(item) for item in items]``, run on ``jobs`` threads when above 1.

    Results keep the order of ``items``; the first exception raised by
    ``fn``, in that order, propagates.
    """
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def map_tasks(
    what: str, fn: Callable, items: Sequence, task_id: Callable[..., str], jobs: int
) -> tuple[list, dict[str, str]]:
    """parallel_map that collects remote failures per task: a failed item
    is logged and left out. Returns (results in item order, failure
    messages keyed by task id)."""

    def one(item):
        try:
            return fn(item)
        except (RemoteError, ProtocolError) as e:
            log.warning("%s failed for task %s: %s", what, task_id(item), e)
            return str(e)

    results = parallel_map(one, items, jobs)
    failures = {task_id(x): r for x, r in zip(items, results) if isinstance(r, str)}
    return [r for r in results if not isinstance(r, str)], failures
