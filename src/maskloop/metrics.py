"""Evaluation: cumulative IoU, click-count-to-threshold, score regression,
and PRM-based mask filtering."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import env as envmod
from .env import EnvConfig, InitSpec, Task
from .errors import DegenerateInputError
from .policy import Prm, prm_score
from .raster import BitMask, check_same_shape
from .segmenters import Segmenter
from .trajgen import expert_chooser, run_episode
from .util import map_tasks


def ciou(pairs: Sequence[tuple[BitMask, BitMask]]) -> float:
    """Cumulative IoU: summed intersections over summed unions.

    Unlike a mean of per-pair IoUs, large objects dominate small ones.
    """
    if not pairs:
        raise DegenerateInputError("ciou needs at least one (pred, gt) pair")
    inter_sum = 0
    union_sum = 0
    for pred, gt in pairs:
        check_same_shape(pred, gt)
        inter_sum += int(np.count_nonzero(pred.data & gt.data))
        union_sum += int(np.count_nonzero(pred.data | gt.data))
    if union_sum == 0:
        raise DegenerateInputError("ciou undefined: all masks empty")
    return inter_sum / union_sum


def noc(
    task: Task,
    segmenter: Segmenter,
    target_iou: float = 0.95,
    cap: int = 20,
) -> tuple[int, bool]:
    """Number of expert clicks needed to reach target_iou.

    Runs the raw expert loop (no low-impact pruning) from an empty mask
    and returns (clicks used, reached flag); a run that exhausts ``cap``
    clicks without reaching the target returns (cap, False).
    """
    config = noc_config(target_iou, cap)
    state = envmod.reset(task, InitSpec.empty(), segmenter)
    ep = run_episode(task, segmenter, config, state, expert_chooser(task))
    # the expert converges only once the mask equals the target
    return len(ep.steps), ep.stop_reason != envmod.STOP_MAX


def noc_config(target_iou: float, cap: int) -> EnvConfig:
    """A clicks-to-target run's limits: target_iou in (0, 1], cap >= 1."""
    if not (0.0 < target_iou <= 1.0):
        raise ValueError(f"target_iou out of (0, 1]: {target_iou}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return EnvConfig(max_steps=cap, tau_stop=target_iou, tau_diff=0.0)


def noc_histogram(counts: Sequence[int]) -> list[tuple[int, int]]:
    """Click-count frequencies, ascending, for the complexity report."""
    freq: dict[int, int] = {}
    for c in counts:
        freq[c] = freq.get(c, 0) + 1
    return sorted(freq.items())


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties sharing the mean of their ranks.

    Equals scipy.stats.rankdata(x, method="average"), NaN propagation
    included: any NaN makes every rank NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size, dtype=np.float64)
    # a tie group at sorted positions starts..ends-1 holds ranks starts+1..ends
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def regression_metrics(pred: Sequence[float], truth: Sequence[float]) -> dict[str, float]:
    """MAE, MSE, Pearson and Spearman correlation between paired scores.

    Spearman uses average ranks for ties. Zero variance on either side
    leaves the correlations undefined and raises.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise ValueError(f"paired 1-d inputs required, got {p.shape} vs {t.shape}")
    if p.size < 2:
        raise DegenerateInputError("need at least two pairs")
    if p.std() == 0.0 or t.std() == 0.0:
        raise DegenerateInputError("zero variance input: correlations undefined")
    diff = p - t
    mae = float(np.mean(np.abs(diff)))
    mse = float(np.mean(diff * diff))
    pearson = float(np.corrcoef(p, t)[0, 1])
    spearman = float(np.corrcoef(average_ranks(p), average_ranks(t))[0, 1])
    return {"mae": mae, "mse": mse, "pearson": pearson, "spearman": spearman}


def filter_masks(
    prm: Prm,
    pairs: Sequence[tuple[Task, BitMask]],
    threshold: float,
) -> tuple[list[tuple[Task, BitMask]], list[tuple[Task, BitMask]], dict[str, str]]:
    """Split (task, mask) pairs into (kept, rejected) by PRM score, and
    collect the remote score failures keyed by task id.

    Scores >= threshold stay; input order is preserved on both sides. A
    pair whose score call fails is in neither list (``util.map_tasks``).
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold out of [0, 1]: {threshold}")
    scored, failures = map_tasks(
        "score", lambda pair: (pair, prm_score(prm, *pair)), pairs, lambda pair: pair[0].id, jobs=1
    )
    kept = [pair for pair, score in scored if score >= threshold]
    rejected = [pair for pair, score in scored if score < threshold]
    return kept, rejected, failures
