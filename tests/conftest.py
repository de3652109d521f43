"""Shared helpers: independent oracles the fast implementations are tested
against, plus small fixture builders.

The oracles deliberately use different algorithms from the library code
(full pairwise distance scans, hand-rolled BFS) so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import select
import threading
from collections import Counter, deque

import numpy as np
import pytest
from scipy import ndimage

from maskloop import env, mock_server
from maskloop.errors import ReplayMismatchError
from maskloop.expert import next_click
from maskloop.raster import BitMask, deepest_pixel, edt_sq, rle_decode, rle_encode
from maskloop.trajgen import Trajectory, TrajectoryStep, _disk_at


def brute_edt_sq(mask: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest zero pixel, where everything outside
    the array also counts as zero. Pairwise scan, no separability tricks."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.int64)
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return out
    zy, zx = np.nonzero(~mask)
    # one-pixel ring just outside the array; clamping any farther outside
    # pixel onto the ring never increases its distance to an inside pixel,
    # so the ring suffices
    ring_x = []
    ring_y = []
    for x in range(-1, w + 1):
        ring_x += [x, x]
        ring_y += [-1, h]
    for y in range(h):
        ring_x += [-1, w]
        ring_y += [y, y]
    all_zx = np.concatenate([zx, np.array(ring_x, dtype=np.int64)])
    all_zy = np.concatenate([zy, np.array(ring_y, dtype=np.int64)])
    d2 = (xs[:, None] - all_zx[None, :]) ** 2 + (ys[:, None] - all_zy[None, :]) ** 2
    out[ys, xs] = d2.min(axis=1)
    return out


def embedded_edt_sq(mask: np.ndarray) -> np.ndarray:
    """``edt_sq`` on ``mask``, embedded at its origin in a zero raster.

    Checks the box contract on the way: the field is a read-only int64
    array shaped like the mask's bounding box, with the box's top-left
    pixel as origin; an empty mask gives a 0x0 field at (0, 0).
    """
    mask = np.asarray(mask, dtype=bool)
    field, (x0, y0) = edt_sq(BitMask(mask))
    assert field.dtype == np.int64 and not field.flags.writeable
    ys, xs = np.nonzero(mask)
    if ys.size:
        assert (x0, y0) == (xs.min(), ys.min())
        assert field.shape == (ys.max() - ys.min() + 1, xs.max() - xs.min() + 1)
    else:
        assert field.shape == (0, 0) and (x0, y0) == (0, 0)
    out = np.zeros(mask.shape, dtype=np.int64)
    out[y0 : y0 + field.shape[0], x0 : x0 + field.shape[1]] = field
    return out


def flood_components(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """4-connected components by explicit BFS, ordered by first pixel in
    row-major order. Returns sets of (x, y) pixels."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    comps: list[set[tuple[int, int]]] = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            comp: set[tuple[int, int]] = set()
            queue = [(x, y)]
            seen[y, x] = True
            while queue:
                cx, cy = queue.pop()
                comp.add((cx, cy))
                for nx, ny in ((cx, cy - 1), (cx - 1, cy), (cx + 1, cy), (cx, cy + 1)):
                    if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((nx, ny))
            comps.append(comp)
    return comps


def disk_reference(side: int, cx: int, cy: int, r: int) -> np.ndarray:
    """The pixels within distance r of (cx, cy), tested one by one over the
    whole side x side raster."""
    out = np.zeros((side, side), dtype=bool)
    for y in range(side):
        for x in range(side):
            out[y, x] = (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    return out


def ring_pairs(max_side: int) -> list[tuple[int, int]]:
    """Every (r_out, r_in) pair trajgen._build_ring can draw at some side
    from 16 to max_side: r_out in [max(5, side // 5), side // 3], a width
    in [2, max(3, r_out // 3)], and r_in = max(2, r_out - width)."""
    outers = {r for side in range(16, max_side + 1) for r in range(max(5, side // 5), side // 3 + 1)}
    return sorted({(r, max(2, r - w)) for r in outers for w in range(2, max(3, r // 3) + 1)})


def check_rings_connected(max_side: int) -> int:
    """Draw every ring ring_pairs(max_side) lists as _build_ring draws it,
    and fail naming the first one that is not a single 4-connected
    component. _build_ring never clips a ring, so its shape depends only
    on the pair. Returns the number of rings checked."""
    pairs = ring_pairs(max_side)
    for r_out, r_in in pairs:
        side, c = 2 * r_out + 3, r_out + 1
        ring = _disk_at(side, c, c, r_out) & ~_disk_at(side, c, c, r_in)
        n = ndimage.label(ring)[1]
        assert n == 1, f"ring r_out={r_out}, r_in={r_in} has {n} components"
    return len(pairs)


def brute_deepest(mask: np.ndarray) -> tuple[int, tuple[int, int]]:
    """The first row-major maximum of brute_edt_sq, as (value, (x, y))."""
    d = brute_edt_sq(mask)
    py, px = divmod(int(d.argmax()), d.shape[1])
    return int(d[py, px]), (px, py)


def check_deepest_exhaustive(shapes) -> int:
    """Compare deepest_pixel with brute_deepest on every mask of each
    (h, w) shape, and fail naming the first that differs. Returns the
    number of masks checked."""
    n = 0
    for h, w in shapes:
        bits = np.arange(1 << (h * w))[:, None] >> np.arange(h * w) & 1
        for m in bits.astype(bool).reshape(-1, h, w):
            got = deepest_pixel(BitMask(m))
            assert got == brute_deepest(m), f"{h}x{w} mask {m.astype(int).tolist()}: {got}"
            n += 1
    return n


def click_pixel(action, w: int, h: int) -> tuple[int, int]:
    """The (x, y) pixel a click's normalized point falls in, clamped in bounds."""
    return min(int(action.point.x * w), w - 1), min(int(action.point.y * h), h - 1)


def in_box(mask: np.ndarray, box) -> np.ndarray:
    """Keep the pixels whose centre lies in the half-open box, one by one."""
    h, w = mask.shape
    out = mask.copy()
    if box is not None:
        for y in range(h):
            for x in range(w):
                cx, cy = (x + 0.5) / w, (y + 0.5) / h
                if not (box.x1 <= cx < box.x2 and box.y1 <= cy < box.y2):
                    out[y, x] = False
    return out


def oracle_reference(gt: np.ndarray, clicks, box, r_neg: int) -> np.ndarray:
    """The target components a positive click lands in, minus an explicit
    (2*r_neg+1) square around every negative click, clipped to the box."""
    gt = np.asarray(gt, dtype=bool)
    h, w = gt.shape
    comps = flood_components(gt)
    kept: set[tuple[int, int]] = set()
    for a in clicks:
        if a.kind == "positive_click":
            p = click_pixel(a, w, h)
            kept |= next((c for c in comps if p in c), set())
    for a in clicks:
        if a.kind == "negative_click":
            px, py = click_pixel(a, w, h)
            kept -= {(x, y) for x in range(px - r_neg, px + r_neg + 1) for y in range(py - r_neg, py + r_neg + 1)}
    out = np.zeros((h, w), dtype=bool)
    for x, y in kept:
        out[y, x] = True
    return in_box(out, box)


def bfs_grow(img: np.ndarray, sx: int, sy: int, delta: int, cap: int) -> np.ndarray:
    """Capped flood fill by a plain deque BFS: 4-neighbours tried north,
    west, east, south, pixels within delta gray levels of the seed, and the
    search stops once cap pixels are taken. No component shortcut."""
    img = np.asarray(img, dtype=np.int64)
    h, w = img.shape
    taken = np.zeros((h, w), dtype=bool)
    taken[sy, sx] = True
    n = 1
    queue = deque([(sx, sy)])
    while queue and n < cap:
        x, y = queue.popleft()
        for nx, ny in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
            if n < cap and 0 <= nx < w and 0 <= ny < h and not taken[ny, nx]:
                if abs(img[ny, nx] - img[sy, sx]) <= delta:
                    taken[ny, nx] = True
                    n += 1
                    queue.append((nx, ny))
    return taken


def blend_overlay(gray: np.ndarray, mask: np.ndarray, color, alpha: float) -> np.ndarray:
    """The overlay as one float64 blend over every pixel and channel, then a
    select: masked pixels round((1-alpha)*gray + alpha*color) halves up,
    unmasked pixels the gray value in all three channels."""
    g = np.asarray(gray, dtype=np.uint8)
    base = np.stack([g] * 3, axis=-1)
    col = np.array(color, dtype=np.float64)
    blended = np.floor((1.0 - alpha) * g.astype(np.float64)[..., None] + alpha * col[None, None, :] + 0.5)
    return np.where(np.asarray(mask, dtype=bool)[..., None], blended.astype(np.uint8), base)


def replay_repair(traj, task, segmenter, config, keep_rule):
    """Repair a rollout by replaying it: step every recorded action through
    env.step, score it with env.reward, fail on any mask that differs from
    the record, keep steps up to the first freshly computed gain the keep
    rule rejects, then let the expert click until a stop rule ends the
    episode or a click gains less than tau_diff, whether or not a step was
    cut. The stop rules are applied here, not by EnvConfig.stop_reason or
    trajgen.run_episode: a kept step that reaches tau_stop or max_steps
    ends the replay (a recorded action after it is an error), and before
    each expert click tau_stop, then max_steps, then an exhausted expert
    end the episode. Returns (trajectory, whether the keep rule cut the
    record)."""

    def stop_reason(r, n):
        if r >= config.tau_stop:
            return env.STOP_TAU
        return env.STOP_MAX if n >= config.max_steps else None

    state = env.reset(task, traj.init, segmenter)
    r = env.reward(state.mask, task.target)
    steps = []
    cut = False
    for i, rec in enumerate(traj.steps):
        after = env.step(state, rec.action, task, segmenter)
        if after.mask != rle_decode(rec.mask_after):
            raise ReplayMismatchError(f"task {task.id}: replayed mask diverged at step {i}")
        r_after = env.reward(after.mask, task.target)
        gain = r_after - r
        if not (gain > 0.0 if keep_rule == "positive" else gain >= config.tau_diff):
            cut = True
            break
        steps.append(rec)
        state, r = after, r_after
        if stop_reason(r, state.step) is not None and i + 1 < len(traj.steps):
            raise ReplayMismatchError(f"task {task.id}: rollout carries actions past the episode end")
    while (reason := stop_reason(r, state.step)) is None:
        action = next_click(state.mask, task.target)
        if action is None:
            reason = env.STOP_CONVERGED
            break
        after = env.step(state, action, task, segmenter)
        r_after = env.reward(after.mask, task.target)
        if r_after - r < config.tau_diff:
            reason = env.STOP_LOW_IMPACT
            break
        steps.append(TrajectoryStep(action, rle_encode(after.mask), r, r_after))
        state, r = after, r_after
    return Trajectory(task.id, traj.init, tuple(steps), r, reason, traj.opening_mask), cut


# what an injected fault does to a request: answer 500 or 503, close the
# connection before the reply, or close it halfway through the reply's body;
# fault_for's schedule draws from these
FAULTS = (500, 503, "close", "cut")
# the other kind, "stall", holds the reply until the client hangs up, for at
# most this many seconds, then closes the connection unanswered
STALL_S = 10.0
# no request meets more faults than this, so max_retries above it always ends in a reply
MAX_FAULTS = 2


def fault_for(digest: bytes, attempt: int) -> object | None:
    """The fault that the attempt-th arrival of a request body with this
    sha256 meets, or None: about one arrival in two, for the first
    MAX_FAULTS arrivals. Keyed on the body, not on arrival order across
    bodies, so that every thread interleaving sees the same faults."""
    if attempt >= MAX_FAULTS:
        return None
    h = hashlib.sha256(digest + bytes([attempt])).digest()
    return FAULTS[h[1] % len(FAULTS)] if h[0] < 128 else None


@contextlib.contextmanager
def faulty_mock(tasks, faults=fault_for, **kwargs):
    """``mock_server.serve`` whose HTTP handler injects the faults that
    ``faults(digest, attempt)`` names, ``fault_for``'s by default; yields
    (base URL, list of the (fault, request body) pairs injected in arrival
    order, restart). restart() empties the list and starts the schedule
    over, as a new server would, without stopping and starting one."""
    server, thread = mock_server.serve(tasks, port=0, **kwargs)
    arrivals: Counter = Counter()
    injected: list = []
    lock = threading.Lock()

    def restart() -> None:
        with lock:
            arrivals.clear()
            injected.clear()

    class Faulty(server.RequestHandlerClass):
        def do_POST(self):  # noqa: N802
            body = self.rfile.read(int(self.headers["content-length"][0]))
            digest = hashlib.sha256(body).digest()
            with lock:
                fault = faults(digest, arrivals[digest])
                arrivals[digest] += 1
                if fault is not None:
                    injected.append((fault, body))
            if fault in (500, 503):
                self._send(fault, {"error": "injected fault"})
            elif fault == "close":
                self.close_connection = True
            elif fault == "stall":  # the client's hangup, or the server's shutdown, ends it
                select.select([self.request], [], [], STALL_S)
                self.close_connection = True
            elif fault == "cut":
                data = json.dumps(self.service.handle(self.path, json.loads(body))).encode()
                head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(data)
                self.request.sendall(head + data[: len(data) // 2])
                self.close_connection = True
            else:  # the mock's own path, reading the body already read
                rfile, self.rfile = self.rfile, io.BytesIO(body)
                try:
                    super().do_POST()
                finally:
                    self.rfile = rfile

    server.RequestHandlerClass = Faulty  # before any connection: serve() has sent nothing
    try:
        yield "http://%s:%d" % server.server_address[:2], injected, restart
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def rand_mask(rng: np.random.Generator, h: int, w: int, p: float = 0.5) -> np.ndarray:
    return rng.random((h, w)) < p


def mask_of(rows: list[str]) -> BitMask:
    """Build a mask from strings of '.' and '#', one row per string."""
    return BitMask(np.array([[c == "#" for c in row] for row in rows]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
