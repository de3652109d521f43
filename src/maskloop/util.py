"""Small shared helpers: seeding, rounding, a mean, the JSON writer, the one task map and its failure record."""

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


def with_failures(record: dict, failures: dict[str, str] | None) -> dict:
    """``record`` naming the failed tasks (task id -> message) under
    ``failures``, a key there only when there are any."""
    return {**record, "failures": failures} if failures else record


def map_tasks(
    what: str, fn: Callable, items: Sequence, task_id: Callable[..., str], jobs: int
) -> tuple[list, dict[str, str]]:
    """``fn`` over ``items`` on ``jobs`` threads (in this thread when 1 or
    less); the one task map. An item whose call raises ``RemoteError`` or
    ``ProtocolError`` is logged and left out; any other exception, the
    first in item order, propagates. Returns (results in item order,
    failure messages keyed by ``task_id(item)``)."""

    def one(item) -> tuple[object, str | None]:
        try:
            return fn(item), None
        except (RemoteError, ProtocolError) as e:
            log.warning("%s failed for task %s: %s", what, task_id(item), e)
            return None, str(e)

    if jobs <= 1:
        outcomes = [one(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, items))
    failures = {task_id(x): e for x, (_, e) in zip(items, outcomes) if e is not None}
    return [r for r, e in outcomes if e is None], failures
