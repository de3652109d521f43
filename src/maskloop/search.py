"""Reward-guided greedy search over candidate clicks.

Each step asks the policy for up to K candidate actions, applies every
candidate with env.step, scores the resulting masks with a process reward
model, and adopts the best one. The search never computes the true
reward, and it reads the target once per step (see prm_greedy). It
returns the best-scoring mask over the whole episode (including the
initial mask), not necessarily the last one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import env as envmod
from .env import Action, InitSpec, Task
from .policy import Policy, Prm, dedupe, prm_score
from .raster import BitMask
from .segmenters import Segmenter


@dataclass(frozen=True)
class SearchConfig:
    """Candidate count, step budget, and the stall-based stop rule."""

    k: int = 1
    max_steps: int = 7
    convergence_eps: float = 1e-3
    convergence_patience: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.convergence_eps < 0:
            raise ValueError(f"convergence_eps must be >= 0, got {self.convergence_eps}")
        if self.convergence_patience < 1:
            raise ValueError(f"convergence_patience must be >= 1, got {self.convergence_patience}")


@dataclass(frozen=True)
class StepTrace:
    """What one search step considered and which candidate won."""

    candidates: tuple[Action, ...]
    scores: tuple[float, ...]
    chosen: int


@dataclass(frozen=True)
class SearchTrace:
    r0: float
    steps: tuple[StepTrace, ...]
    best_step: int
    best_reward: float

    def to_dict(self) -> dict:
        return {
            "r0": self.r0,
            "steps": [
                {
                    "candidates": [envmod.action_to_dict(a) for a in st.candidates],
                    "scores": list(st.scores),
                    "chosen": st.chosen,
                }
                for st in self.steps
            ],
            "best_step": self.best_step,
            "best_reward": self.best_reward,
        }


def prm_greedy(
    task: Task,
    policy: Policy,
    prm: Prm,
    segmenter: Segmenter,
    config: SearchConfig = SearchConfig(),
    init: InitSpec = InitSpec.empty(),
    seed: int | None = None,
) -> tuple[BitMask, float, SearchTrace]:
    """Best-of-K greedy search; returns (best mask, its PRM score, trace).

    The loop ends on the step budget, on candidate exhaustion, or once the
    running best fails to improve by more than convergence_eps for
    convergence_patience steps in a row. It also ends once the adopted
    mask equals the target, the search's one read of the ground truth.
    On score ties the earlier step and the earlier candidate win.
    ``seed`` is the run seed, passed to every propose call.
    """
    state = envmod.reset(task, init, segmenter)
    best_mask = state.mask
    best_score = prm_score(prm, task, state.mask)
    best_step = 0
    r0 = best_score
    traces: list[StepTrace] = []
    stall = 0
    for t in range(1, config.max_steps + 1):
        candidates = dedupe(policy.propose(task, state, config.k, seed=seed))
        if not candidates:
            break
        after = [envmod.step(state, a, task, segmenter) for a in candidates]
        scores = [prm_score(prm, task, s.mask) for s in after]
        chosen = int(np.argmax(scores))
        traces.append(StepTrace(tuple(candidates), tuple(scores), chosen))
        state = after[chosen]
        if scores[chosen] > best_score:
            improved = scores[chosen] - best_score > config.convergence_eps
            best_mask, best_score, best_step = state.mask, scores[chosen], t
        else:
            improved = False
        stall = 0 if improved else stall + 1
        if stall >= config.convergence_patience:
            break
        # the one read of the target: no click improves on it, and asking
        # the policy again would cost a remote act round trip
        if state.mask == task.target:
            break
    return best_mask, best_score, SearchTrace(r0, tuple(traces), best_step, best_score)
