from __future__ import annotations

import numpy as np
import pytest
from conftest import mask_of

from maskloop.env import (
    STOP_CONVERGED,
    STOP_LOW_IMPACT,
    STOP_MAX,
    STOP_TAU,
    Action,
    EnvConfig,
    InitSpec,
    Task,
)
from maskloop.errors import JsonlError, TemplateError
from maskloop.policy import COORD_INT, PromptConfig
from maskloop.raster import BitMask, GrayImage, components, iou, rle_decode
from maskloop.segmenters import OracleSegmenter, Segmenter
from maskloop.trajgen import (
    FAMILIES,
    Trajectory,
    generate_trajectory,
    read_jsonl,
    render_sft,
    replay_masks,
    synth_tasks,
    trajectory_from_dict,
    trajectory_to_dict,
    write_jsonl,
)


def _task(rows, task_id="t0", prompt="the blob"):
    target = mask_of(rows)
    img = np.where(target.data, 200, 20).astype(np.uint8)
    return Task(id=task_id, image=GrayImage(img), target=target, prompt=prompt)


class AlwaysEmpty(Segmenter):
    def segment(self, task, clicks, box=None):
        return BitMask.zeros(task.image.width, task.image.height)


# --- generate_trajectory -----------------------------------------------


def test_single_component_takes_one_step():
    task = _task(
        [
            "........",
            ".####...",
            ".####...",
            "........",
        ]
    )
    traj = generate_trajectory(task, OracleSegmenter())
    assert len(traj.steps) == 1
    assert traj.final_reward == 1.0
    assert traj.stop_reason == STOP_TAU
    assert traj.steps[0].reward_before == 0.0
    assert traj.steps[0].reward_after == 1.0
    assert rle_decode(traj.steps[0].mask_after) == task.target


def test_three_components_take_three_steps():
    task = _task(
        [
            "##........##",
            "##........##",
            "............",
            ".....##.....",
            ".....##.....",
        ]
    )
    traj = generate_trajectory(task, OracleSegmenter())
    assert len(traj.steps) == 3
    assert traj.final_reward == 1.0
    rewards = [st.reward_after for st in traj.steps]
    assert rewards == sorted(rewards)


def test_useless_segmenter_stops_low_impact_with_no_steps():
    task = _task(["####"])
    traj = generate_trajectory(task, AlwaysEmpty())
    assert traj.steps == ()
    assert traj.final_reward == 0.0
    assert traj.stop_reason == STOP_LOW_IMPACT


def test_already_solved_init_stops_immediately():
    task = _task(["..##..", "..##.."])
    from maskloop.raster import NormBox

    init = InitSpec.from_box(NormBox(2 / 6, 0.0, 4 / 6, np.nextafter(1.0, 0.0)))
    traj = generate_trajectory(task, OracleSegmenter(), init=init)
    assert traj.steps == ()
    assert traj.final_reward == 1.0
    assert traj.stop_reason == STOP_TAU


def test_every_kept_step_clears_the_gain_threshold(rng):
    config = EnvConfig(tau_diff=0.05)
    for task in synth_tasks(20, side=32, seed=99):
        traj = generate_trajectory(task, OracleSegmenter(), config)
        for st in traj.steps:
            assert st.reward_after - st.reward_before >= config.tau_diff
        if traj.steps:
            assert traj.final_reward == traj.steps[-1].reward_after


def test_max_steps_cap():
    # Nine scattered pixels, 3-step budget: the expert cannot finish.
    task = _task(
        [
            "#.#.#",
            ".....",
            "#.#.#",
            ".....",
            "#.#.#",
        ]
    )
    config = EnvConfig(max_steps=3, tau_diff=0.0)
    traj = generate_trajectory(task, OracleSegmenter(), config)
    assert len(traj.steps) == 3
    assert traj.stop_reason == STOP_MAX
    assert traj.final_reward < 1.0


def test_stop_reason_converged_under_loose_tau():
    # tau_stop above 1.0 is invalid, so force convergence with r_neg=0 and
    # a target the oracle reproduces exactly while tau_stop sits at 1.0
    # but tau_diff makes the last gain count.
    task = _task(["##", "##"])
    config = EnvConfig(tau_stop=1.0, tau_diff=0.0)
    traj = generate_trajectory(task, OracleSegmenter(), config)
    # solved exactly, so the episode ends at tau_stop rather than converged
    assert traj.stop_reason == STOP_TAU
    assert traj.final_reward == 1.0


# --- replay -------------------------------------------------------------


def test_replay_reproduces_recorded_masks():
    for task in synth_tasks(10, side=32, seed=5):
        traj = generate_trajectory(task, OracleSegmenter())
        masks = replay_masks(traj, task, OracleSegmenter())
        assert len(masks) == len(traj.steps) + 1
        for st, mask in zip(traj.steps, masks[1:]):
            assert rle_decode(st.mask_after) == mask


def test_replay_checks_task_identity():
    task = _task(["##"])
    other = _task(["##"], task_id="other")
    traj = generate_trajectory(task, OracleSegmenter())
    with pytest.raises(ValueError):
        replay_masks(traj, other, OracleSegmenter())


# --- JSONL round trip ----------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tasks = synth_tasks(8, side=32, seed=3)
    trajs = [generate_trajectory(t, OracleSegmenter()) for t in tasks]
    path = str(tmp_path / "trajs.jsonl")
    write_jsonl(trajs, path)
    assert read_jsonl(path) == trajs


def test_jsonl_write_is_reproducible(tmp_path):
    trajs = [generate_trajectory(t, OracleSegmenter()) for t in synth_tasks(3, seed=1)]
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_jsonl(trajs, p1)
    write_jsonl(trajs, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dict_round_trip():
    traj = generate_trajectory(synth_tasks(1, seed=2)[0], OracleSegmenter())
    assert trajectory_from_dict(trajectory_to_dict(traj)) == traj


def test_jsonl_error_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = trajectory_to_dict(generate_trajectory(synth_tasks(1)[0], OracleSegmenter()))
    import json

    path.write_text(json.dumps(good) + "\n{not json\n")
    with pytest.raises(JsonlError) as e:
        read_jsonl(str(path))
    assert e.value.line == 2

    path.write_text('{"task_id": "x"}\n')
    with pytest.raises(JsonlError) as e:
        read_jsonl(str(path))
    assert e.value.line == 1


def test_jsonl_skips_blank_lines(tmp_path):
    traj = generate_trajectory(synth_tasks(1)[0], OracleSegmenter())
    path = tmp_path / "t.jsonl"
    import json

    path.write_text("\n" + json.dumps(trajectory_to_dict(traj)) + "\n\n")
    assert read_jsonl(str(path)) == [traj]


# --- SFT rendering --------------------------------------------------------


def test_render_sft_one_sample_per_step():
    task = _task(
        [
            "##....##",
            "##....##",
        ]
    )
    traj = generate_trajectory(task, OracleSegmenter())
    samples = render_sft(traj, task)
    assert len(samples) == len(traj.steps) == 2
    for t, s in enumerate(samples):
        assert s.step_index == t
        assert s.image.width == task.image.width
        assert s.image.height == task.image.height
        assert task.prompt in s.prompt


def test_render_sft_miou_line_uses_pre_action_reward():
    task = _task(["##..", "##.."])
    traj = generate_trajectory(task, OracleSegmenter())
    fixed = Trajectory(
        task_id=traj.task_id,
        init=traj.init,
        steps=(
            type(traj.steps[0])(
                action=traj.steps[0].action,
                mask_after=traj.steps[0].mask_after,
                reward_before=0.734,
                reward_after=1.0,
            ),
        ),
        final_reward=1.0,
        stop_reason=traj.stop_reason,
    )
    cfg = PromptConfig(miou_line=True, coord_format=COORD_INT)
    samples = render_sft(fixed, task, cfg)
    assert samples[0].target.startswith("Current mIoU: 73\n")
    assert "point: (" in samples[0].target


def test_render_sft_overlay_reflects_previous_mask():
    task = _task(
        [
            "##....##",
            "##....##",
        ]
    )
    traj = generate_trajectory(task, OracleSegmenter())
    cfg = PromptConfig(mask_color=(255, 0, 0), alpha=1.0)
    samples = render_sft(traj, task, cfg)
    # step 0 starts from an empty mask: no pixel is pure red yet
    first = samples[0].image.data
    assert not ((first == (255, 0, 0)).all(axis=-1)).any()
    # step 1 overlays the first component
    second = samples[1].image.data
    painted = (second == (255, 0, 0)).all(axis=-1)
    assert painted.sum() == rle_decode(traj.steps[0].mask_after).area()


def test_render_sft_checks_task_identity():
    task = _task(["##"])
    other = _task(["##"], task_id="zzz")
    traj = generate_trajectory(task, OracleSegmenter())
    with pytest.raises(ValueError):
        render_sft(traj, other)


def test_render_sft_unknown_template():
    task = _task(["##"])
    traj = generate_trajectory(task, OracleSegmenter())
    with pytest.raises(TemplateError):
        render_sft(traj, task, PromptConfig(template_id="nope"))


def test_render_sft_random_init_needs_segmenter():
    task = synth_tasks(1, seed=4)[0]
    init = InitSpec.from_random_clicks(1, 1, seed=9)
    traj = generate_trajectory(task, OracleSegmenter(), init=init)
    with pytest.raises(ValueError):
        render_sft(traj, task)
    samples = render_sft(traj, task, segmenter=OracleSegmenter())
    assert len(samples) == len(traj.steps)


# --- synthetic tasks --------------------------------------------------------


def test_synth_tasks_deterministic():
    a = synth_tasks(10, side=32, seed=7)
    b = synth_tasks(10, side=32, seed=7)
    assert [t.id for t in a] == [t.id for t in b]
    for ta, tb in zip(a, b):
        assert ta.target == tb.target
        assert np.array_equal(ta.image.data, tb.image.data)


def test_synth_tasks_cycle_families():
    tasks = synth_tasks(10, side=32, seed=0)
    assert len(FAMILIES) == 5
    for i, t in enumerate(tasks):
        # family order is stable; prompts identify the family
        assert t.prompt == tasks[i % 5].prompt


def test_synth_tasks_contrast_and_flat_regions():
    for t in synth_tasks(15, side=32, seed=11):
        fg = t.image.data[t.target.data]
        bg = t.image.data[~t.target.data]
        assert fg.min() == fg.max()
        assert bg.min() == bg.max()
        assert abs(int(fg[0]) - int(bg[0])) >= 64
        assert not t.target.is_empty()


def test_synth_tasks_scatter_has_multiple_components():
    tasks = synth_tasks(10, side=48, seed=2)
    scatter = [t for t in tasks if t.prompt == "the scattered blobs"]
    assert scatter
    for t in scatter:
        assert len(components(t.target)) in (2, 3)


def test_synth_tasks_validation():
    with pytest.raises(ValueError):
        synth_tasks(0)
    with pytest.raises(ValueError):
        synth_tasks(1, side=8)


def test_region_grow_solves_synth_tasks():
    from maskloop.segmenters import RegionGrowSegmenter

    for task in synth_tasks(5, side=32, seed=21):
        traj = generate_trajectory(task, RegionGrowSegmenter())
        assert traj.final_reward >= 0.95
