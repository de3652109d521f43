"""Output checks that run after the timed phase.

Everything here is recomputed with numpy, scipy and the standard library
alone: no maskloop module is imported. Each check returns a list of
problems (strings); an empty list means the outputs are correct.

Conventions restated from the package's documentation:
  * pixel (px, py) has center ((px+0.5)/W, (py+0.5)/H); a point maps back
    to floor(x*W) clamped into the raster;
  * masks are PGMs with 0/255; RLE counts alternate background and
    foreground runs over the row-major raster, starting with background;
  * IoU of two empty masks is 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import deque

import numpy as np
from scipy import ndimage

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
TOP = math.nextafter(1.0, 0.0)
GREEN = (0, 255, 0)
ALPHA = 0.5


# -- file formats -------------------------------------------------------------


def read_pnm(path: str) -> np.ndarray:
    """Read a binary PGM (h, w) or PPM (h, w, 3) with maxval 255."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM")
    fields, pos = [], 2
    while len(fields) < 3:
        while buf[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while buf[end : end + 1].isdigit():
            end += 1
        fields.append(int(buf[pos:end]))
        pos = end
    pos += 1  # the single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval}")
    depth = 3 if magic == b"P6" else 1
    body = np.frombuffer(buf[pos:], dtype=np.uint8)
    if body.size != w * h * depth:
        raise ValueError(f"{path}: {body.size} pixel bytes for {w}x{h}x{depth}")
    return body.reshape((h, w, 3) if depth == 3 else (h, w))


def read_mask(path: str) -> np.ndarray:
    raw = read_pnm(path)
    if not np.isin(raw, (0, 255)).all():
        raise ValueError(f"{path}: mask values other than 0/255")
    return raw == 255


def load_task_set(manifest_path: str) -> dict:
    """task id -> (gray image, target mask) from a synth manifest."""
    with open(manifest_path, encoding="utf-8") as fh:
        entries = json.load(fh)["tasks"]
    base = os.path.dirname(manifest_path)
    return {
        e["id"]: (read_pnm(os.path.join(base, e["image_path"])), read_mask(os.path.join(base, e["target_path"])))
        for e in entries
    }


def rle_to_mask(rle: dict) -> np.ndarray:
    h, w = rle["size"]
    counts = rle["counts"]
    if sum(counts) != h * w:
        raise ValueError("rle counts do not cover the raster")
    flat = np.zeros(h * w, dtype=bool)
    pos = 0
    for i, c in enumerate(counts):
        if i % 2:
            flat[pos : pos + c] = True
        pos += c
    return flat.reshape(h, w)


def read_trajectories(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tree_digest(root: str) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


# -- reference computations ---------------------------------------------------


def iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    return 1.0 if union == 0 else inter / union


def to_pixel(x: float, y: float, w: int, h: int) -> tuple:
    return min(max(math.floor(x * w), 0), w - 1), min(max(math.floor(y * h), 0), h - 1)


def depth_sq(region: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest pixel outside the region, with the
    raster's outside counting as outside."""
    padded = np.pad(region, 1, constant_values=False)
    d = ndimage.distance_transform_edt(padded)[1:-1, 1:-1]
    return np.rint(d * d).astype(np.int64)


def expert_click(pred: np.ndarray, gt: np.ndarray):
    """(sign, x, y) of the expert's next click, or None when pred == gt.

    The click goes to the first row-major deepest pixel of the error
    region with the larger depth; equal depths give a negative click.
    """
    fn, fp = gt & ~pred, pred & ~gt
    if not fn.any() and not fp.any():
        return None
    dfn, dfp = depth_sq(fn), depth_sq(fp)
    field, sign = (dfn, 1) if dfn.max() > dfp.max() else (dfp, -1)
    py, px = divmod(int(np.argmax(field)), field.shape[1])
    h, w = field.shape
    return sign, (px + 0.5) / w, (py + 0.5) / h


def box_raster(box, w: int, h: int) -> np.ndarray:
    x1, y1, x2, y2 = box
    cx = (np.arange(w) + 0.5) / w
    cy = (np.arange(h) + 0.5) / h
    return ((cy >= y1) & (cy < y2))[:, None] & ((cx >= x1) & (cx < x2))[None, :]


def oracle(gt: np.ndarray, clicks, box=None, r_neg: int = 2) -> np.ndarray:
    """Target components hit by a positive click, minus squares around
    negative clicks, inside the box."""
    h, w = gt.shape
    labels, _ = ndimage.label(gt, structure=FOUR)
    hit = {int(labels[to_pixel(x, y, w, h)[::-1]]) for s, x, y in clicks if s > 0} - {0}
    out = np.isin(labels, sorted(hit)) if hit else np.zeros((h, w), dtype=bool)
    for s, x, y in clicks:
        if s < 0:
            px, py = to_pixel(x, y, w, h)
            out[max(0, py - r_neg) : py + r_neg + 1, max(0, px - r_neg) : px + r_neg + 1] = False
    if box is not None:
        out &= box_raster(box, w, h)
    return out


class RegionGrow:
    """Capped breadth-first flood fill (neighbors N, W, E, S), memoized per
    (task, seed pixel): a click's region depends on nothing else."""

    def __init__(self, delta: int = 16, cap: int = 10_000):
        self.delta, self.cap = delta, cap
        self._memo: dict = {}

    def region(self, task_id: str, img: np.ndarray, px: int, py: int) -> np.ndarray:
        key = (task_id, px, py)
        if key not in self._memo:
            self._memo[key] = self._bfs(img, px, py)
        return self._memo[key]

    def _bfs(self, img: np.ndarray, sx: int, sy: int) -> np.ndarray:
        h, w = img.shape
        ok = (np.abs(img.astype(np.int32) - int(img[sy, sx])) <= self.delta).tolist()
        seen = [[False] * w for _ in range(h)]
        seen[sy][sx] = True
        taken, queue = 1, deque([(sx, sy)])
        while queue and taken < self.cap:
            x, y = queue.popleft()
            for nx, ny in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
                if 0 <= nx < w and 0 <= ny < h and not seen[ny][nx] and ok[ny][nx]:
                    seen[ny][nx] = True
                    taken += 1
                    queue.append((nx, ny))
                    if taken >= self.cap:
                        break
        return np.array(seen, dtype=bool)

    def segment(self, task_id: str, img: np.ndarray, clicks) -> np.ndarray:
        h, w = img.shape
        pos = np.zeros((h, w), dtype=bool)
        neg = np.zeros((h, w), dtype=bool)
        for s, x, y in clicks:
            r = self.region(task_id, img, *to_pixel(x, y, w, h))
            if s > 0:
                pos |= r
            else:
                neg |= r
        return pos & ~neg


def overlay(gray: np.ndarray, mask: np.ndarray, color=GREEN, alpha=ALPHA) -> np.ndarray:
    blended = np.floor((1 - alpha) * gray[..., None].astype(np.float64) + alpha * np.array(color, float) + 0.5)
    return np.where(mask[..., None], blended.astype(np.uint8), np.repeat(gray[..., None], 3, axis=2))


def noc(gt: np.ndarray, segment, target: float = 0.95, cap: int = 20) -> int:
    """Expert clicks from an empty mask until IoU >= target, capped."""
    pred = np.zeros_like(gt)
    clicks = []
    for used in range(cap):
        if iou(pred, gt) >= target:
            return used
        click = expert_click(pred, gt)
        if click is None:
            return used
        clicks.append(click)
        pred = segment(clicks)
    return cap


def click_of(action: dict):
    sign = {"positive_click": 1, "negative_click": -1}[action["kind"]]
    return sign, action["x"], action["y"]


def initial_state(init: dict, gt: np.ndarray):
    """(opening mask, opening clicks, box) of an episode's init spec."""
    h, w = gt.shape
    if init["variant"] == "empty":
        return np.zeros_like(gt), [], None
    if init["variant"] == "from_box":
        box = tuple(init["box"])
        return box_raster(box, w, h), [], box
    ys, xs = np.nonzero(gt)
    low = [int(xs.min()) / w, int(ys.min()) / h]
    high = [min((int(xs.max()) + 1) / w, TOP), min((int(ys.max()) + 1) / h, TOP)]
    pts = np.random.default_rng(init["seed"]).uniform(low=low, high=high, size=(init["n_pos"] + init["n_neg"], 2))
    clicks = [(1 if i < init["n_pos"] else -1, float(x), float(y)) for i, (x, y) in enumerate(pts)]
    return oracle(gt, clicks), clicks, None


# -- checks -------------------------------------------------------------------


def check_episodes(trajs: list, tasks: dict, expert_only: bool, min_gain: float) -> list:
    """Replay recorded oracle-segmenter episodes against the references.

    Every stored mask must equal the oracle of the click history, every
    reward the IoU of its mask, every gain at least min_gain (exclusive
    when min_gain is 0). Expert clicks must sit exactly where the reference
    expert clicks; with expert_only every step is an expert click, otherwise
    the expert clicks form a suffix (a star_plus continuation).
    """
    problems = []
    for traj in trajs:
        tid = traj["task_id"]
        gray, gt = tasks[tid]
        mask, clicks, box = initial_state(traj["init"], gt)
        r = iou(mask, gt)
        in_suffix = False
        for i, st in enumerate(traj["steps"]):
            where = f"{tid} step {i}"
            click = click_of(st["action"])
            is_expert = click == expert_click(mask, gt)
            if expert_only and not is_expert:
                problems.append(f"{where}: click {click} is not the expert click {expert_click(mask, gt)}")
            if in_suffix and not is_expert:
                problems.append(f"{where}: non-expert click after the expert continuation began")
            in_suffix = in_suffix or is_expert
            if st["reward_before"] != r:
                problems.append(f"{where}: reward_before {st['reward_before']} != {r}")
            clicks.append(click)
            after = oracle(gt, clicks, box)
            if not np.array_equal(rle_to_mask(st["mask_after"]), after):
                problems.append(f"{where}: stored mask differs from the oracle of its clicks")
            r_after = iou(after, gt)
            if st["reward_after"] != r_after:
                problems.append(f"{where}: reward_after {st['reward_after']} != {r_after}")
            gain = r_after - r
            if gain < min_gain or gain <= 0.0:
                problems.append(f"{where}: gain {gain} below {min_gain}")
            mask, r = after, r_after
        if traj["final_reward"] != r:
            problems.append(f"{tid}: final_reward {traj['final_reward']} != {r}")
    return problems


def check_sft(sft_dir: str, trajs: list, tasks: dict) -> list:
    """Each SFT image is the overlay of the pre-action mask."""
    problems = []
    n = 0
    for traj in trajs:
        gray, gt = tasks[traj["task_id"]]
        mask = initial_state(traj["init"], gt)[0]
        for i, st in enumerate(traj["steps"]):
            path = os.path.join(sft_dir, traj["task_id"], f"step_{i}.ppm")
            if not np.array_equal(read_pnm(path), overlay(gray, mask)):
                problems.append(f"{path}: overlay differs from the pre-action mask's")
            mask = rle_to_mask(st["mask_after"])
            n += 1
    with open(os.path.join(sft_dir, "samples.jsonl"), encoding="utf-8") as fh:
        n_records = sum(1 for line in fh if line.strip())
    if n_records != n:
        problems.append(f"samples.jsonl holds {n_records} records for {n} steps")
    return problems


def check_noc_hist(path: str, counts: list) -> list:
    want = {}
    for c in counts:
        want[c] = want.get(c, 0) + 1
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    got = {int(c): int(f) for c, f in rows}
    return [] if got == want else [f"{path}: histogram {got} != reference {want}"]


def check_search(out_path: str, masks_dir: str, tasks: dict, segment, score_of=None) -> list:
    """Search results against a re-segmentation of the chosen clicks.

    The written best mask must equal the segmentation of the clicks chosen
    up to best_step, final_iou its IoU, best_reward the maximum over r0 and
    the chosen scores; each step must choose its first maximal score. With
    score_of, each chosen score must also equal score_of(mask after it).
    """
    with open(out_path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    problems = []
    if sorted(r["task_id"] for r in results) != sorted(tasks):
        problems.append("search results do not cover the task set")
    for rec in results:
        tid = rec["task_id"]
        gray, gt = tasks[tid]
        trace = rec["trace"]
        chosen = [click_of(st["candidates"][st["chosen"]]) for st in trace["steps"]]
        for i, st in enumerate(trace["steps"]):
            if st["chosen"] != int(np.argmax(st["scores"])):
                problems.append(f"{tid} step {i + 1}: chose {st['chosen']}, not the first best score")
            if score_of is not None:
                want = score_of(gt, segment(tid, gray, gt, chosen[: i + 1]))
                if st["scores"][st["chosen"]] != want:
                    problems.append(f"{tid} step {i + 1}: score {st['scores'][st['chosen']]} != {want}")
        best = max([trace["r0"]] + [st["scores"][st["chosen"]] for st in trace["steps"]])
        if rec["best_reward"] != best:
            problems.append(f"{tid}: best_reward {rec['best_reward']} != {best}")
        want_mask = segment(tid, gray, gt, chosen[: rec["best_step"]])
        got_mask = read_mask(os.path.join(masks_dir, f"{tid}.pgm"))
        if not np.array_equal(got_mask, want_mask):
            problems.append(f"{tid}: best mask differs from the segmentation of the chosen clicks")
        if rec["final_iou"] != iou(want_mask, gt):
            problems.append(f"{tid}: final_iou {rec['final_iou']} != {iou(want_mask, gt)}")
    return problems


def reference_rollout(gt: np.ndarray, max_steps: int = 7, tau_stop: float = 0.95) -> list:
    """Expert clicks through the oracle segmenter: [(click, mask, reward)]."""
    mask = np.zeros_like(gt)
    clicks, out = [], []
    for _ in range(max_steps):
        click = expert_click(mask, gt)
        if click is None:
            break
        clicks.append(click)
        mask = oracle(gt, clicks)
        r = iou(mask, gt)
        out.append((click, mask, r))
        if r >= tau_stop:
            break
    return out


def check_mock_parity(trajs: list, tasks: dict) -> list:
    """Remote rollouts equal local expert + oracle rollouts step by step."""
    problems = []
    if sorted(t["task_id"] for t in trajs) != sorted(tasks):
        problems.append("remote rollouts do not cover the task set")
    for traj in trajs:
        tid = traj["task_id"]
        gray, gt = tasks[tid]
        h, w = gt.shape
        ref = reference_rollout(gt)
        if len(traj["steps"]) != len(ref):
            problems.append(f"{tid}: {len(traj['steps'])} remote steps, {len(ref)} local")
            continue
        for i, (st, (click, mask, r)) in enumerate(zip(traj["steps"], ref)):
            s, x, y = click_of(st["action"])
            if (s, *to_pixel(x, y, w, h)) != (click[0], *to_pixel(click[1], click[2], w, h)):
                problems.append(f"{tid} step {i}: remote click {(s, x, y)} misses the expert pixel")
            if not np.array_equal(rle_to_mask(st["mask_after"]), mask):
                problems.append(f"{tid} step {i}: remote mask differs from the local oracle")
            if st["reward_after"] != r:
                problems.append(f"{tid} step {i}: remote reward {st['reward_after']} != {r}")
    return problems
