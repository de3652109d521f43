from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import flood_components, mask_of

from maskloop import env
from maskloop.env import Action, InitSpec, Task
from maskloop.expert import next_click
from maskloop.policy import (
    ExpertPolicy,
    NoiseConfig,
    NoisyExpertPolicy,
    OraclePrm,
    Policy,
    Prm,
)
from maskloop.raster import GrayImage, NormBox, box_to_mask, iou
from maskloop.search import SearchConfig, prm_greedy
from maskloop.segmenters import OracleSegmenter
from maskloop.trajgen import synth_tasks


def _task(rows, task_id="t0"):
    target = mask_of(rows)
    img = np.where(target.data, 200, 20).astype(np.uint8)
    return Task(id=task_id, image=GrayImage(img), target=target, prompt="the blob")


class SandwichPolicy(Policy):
    """Expert click wedged between two useless background clicks."""

    def propose(self, task, state, k, seed=None):
        best = next_click(state.mask, task.target)
        if best is None:
            return []
        w, h = task.image.width, task.image.height
        junk1 = Action.positive(0.5 / w, 0.5 / h)
        junk2 = Action.positive(1.5 / w, 0.5 / h)
        return [junk1, best, junk2][:k]


class RepeatPolicy(Policy):
    def propose(self, task, state, k, seed=None):
        return [Action.positive(0.3, 0.3)] * k


class InvertedPrm(Prm):
    """Scores the complement of the true overlap; improvement looks like decline."""

    def score(self, task, mask):
        return 1.0 - iou(mask, task.target)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError):
        SearchConfig(max_steps=0)
    with pytest.raises(ValueError):
        SearchConfig(convergence_eps=-1e-9)
    with pytest.raises(ValueError):
        SearchConfig(convergence_patience=0)


def test_expert_policy_with_oracle_prm_solves_synth_tasks():
    for task in synth_tasks(10, side=32, seed=31):
        mask, score, trace = prm_greedy(task, ExpertPolicy(), OraclePrm(), OracleSegmenter())
        assert score == 1.0
        assert mask == task.target
        assert len(trace.steps) == len(flood_components(task.target.data))
        assert trace.best_step == len(trace.steps)


def test_search_returns_initial_mask_when_already_optimal():
    task = _task(["..##", "..##"])
    top = np.nextafter(1.0, 0.0)
    box = NormBox(0.5, 0.0, top, top)
    init = InitSpec.from_box(box)
    assert box_to_mask(box, 4, 2) == task.target  # premise: init is perfect
    mask, score, trace = prm_greedy(
        task, ExpertPolicy(), OraclePrm(), OracleSegmenter(), init=init
    )
    assert mask == task.target
    assert score == 1.0
    assert trace.best_step == 0
    assert trace.r0 == 1.0
    assert trace.steps == ()


def test_oracle_prm_always_picks_the_expert_candidate():
    task = _task(
        [
            "...##...",
            "...##...",
            "........",
            "##....##",
            "##....##",
        ]
    )
    mask, score, trace = prm_greedy(
        task, SandwichPolicy(), OraclePrm(), OracleSegmenter(), SearchConfig(k=3, max_steps=7)
    )
    assert score == 1.0
    for st in trace.steps:
        assert st.chosen == 1
        assert st.scores[st.chosen] == max(st.scores)


def test_running_best_is_global_max_of_observed_scores():
    task = synth_tasks(1, side=32, seed=4)[0]
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.3, flip_prob=0.3, seed=2))
    prm = OraclePrm()
    mask, score, trace = prm_greedy(
        task, policy, prm, OracleSegmenter(), SearchConfig(k=3, max_steps=7), seed=5
    )
    observed = [trace.r0] + [st.scores[st.chosen] for st in trace.steps]
    assert score == max(observed)
    assert prm.score(task, mask) == score


def test_search_stops_after_patience_without_improvement():
    task = _task([".###", ".###"])

    class JunkPolicy(Policy):
        def propose(self, task, state, k, seed=None):
            w, h = task.image.width, task.image.height
            return [Action.positive(0.5 / w, 0.5 / h)]

    config = SearchConfig(k=1, max_steps=10, convergence_patience=2)
    mask, score, trace = prm_greedy(task, JunkPolicy(), OraclePrm(), OracleSegmenter(), config)
    assert len(trace.steps) == 2
    assert score == 0.0
    assert trace.best_step == 0
    assert mask.is_empty()


def test_search_keeps_best_even_when_later_steps_decline():
    task = _task(["##..", "##.."])
    mask, score, trace = prm_greedy(
        task, ExpertPolicy(), InvertedPrm(), OracleSegmenter(), SearchConfig(k=1, max_steps=6)
    )
    # under the inverted scorer the empty initial mask looks perfect
    assert trace.r0 == 1.0
    assert trace.best_step == 0
    assert score == 1.0
    assert mask.is_empty()


def test_duplicate_candidates_are_merged():
    task = _task([".##.", ".##."])
    _, _, trace = prm_greedy(
        task, RepeatPolicy(), OraclePrm(), OracleSegmenter(), SearchConfig(k=4, max_steps=3)
    )
    for st in trace.steps:
        assert len(st.candidates) == 1


def test_search_is_deterministic_per_seed():
    task = synth_tasks(1, side=32, seed=9)[0]
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.2, flip_prob=0.2, seed=3))
    args = (task, policy, OraclePrm(), OracleSegmenter(), SearchConfig(k=3, max_steps=7))
    a = prm_greedy(*args, seed=11)
    b = prm_greedy(*args, seed=11)
    c = prm_greedy(*args, seed=12)
    assert a == b
    assert a[2] != c[2]


def test_trace_serializes_to_json():
    task = _task(["##.#", "##.."])
    _, _, trace = prm_greedy(
        task, ExpertPolicy(), OraclePrm(), OracleSegmenter(), SearchConfig(k=2, max_steps=5)
    )
    blob = json.dumps(trace.to_dict())
    back = json.loads(blob)
    assert back["r0"] == trace.r0
    assert back["best_step"] == trace.best_step
    assert back["best_reward"] == trace.best_reward
    assert len(back["steps"]) == len(trace.steps)
    for st, raw in zip(trace.steps, back["steps"]):
        assert raw["chosen"] == st.chosen
        assert tuple(raw["scores"]) == st.scores


@pytest.mark.parametrize("patience", [1, 2, 3, 5])
def test_a_search_that_adopts_the_target_ends_there(patience):
    # the same click every step: by the PRM's stall rule alone the search
    # would run 1 + patience steps, but it ends once its mask is the target
    task = _task(["####", "####", "....", "...."])
    config = SearchConfig(k=1, max_steps=7, convergence_patience=patience)
    mask, score, trace = prm_greedy(task, RepeatPolicy(), OraclePrm(), OracleSegmenter(), config)
    assert mask == task.target and score == 1.0
    assert len(trace.steps) == 1


class AreaPrm(Prm):
    """Scores a mask by its area alone; it never reads the target."""

    def score(self, task, mask):
        return 1.0 - abs(mask.area() / (mask.width * mask.height) - 0.3)


def test_the_search_computes_no_true_reward(monkeypatch):
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.2, flip_prob=0.3, seed=4))
    config = SearchConfig(k=3, max_steps=7)
    tasks = synth_tasks(5, side=32, seed=13)
    runs = [prm_greedy(task, policy, AreaPrm(), OracleSegmenter(), config, seed=1) for task in tasks]

    def no_reward(mask, target):
        raise AssertionError("the search computed a true reward")

    monkeypatch.setattr(env, "reward", no_reward)
    assert [prm_greedy(task, policy, AreaPrm(), OracleSegmenter(), config, seed=1) for task in tasks] == runs
    assert any(trace.steps for _, _, trace in runs)
