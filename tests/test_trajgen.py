from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    check_rings_connected,
    disk_reference,
    flood_components,
    mask_of,
    replay_repair,
    ring_pairs,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskloop import env
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
from maskloop.errors import FieldError, JsonlError, MaskShapeError, TemplateError
from maskloop.policy import COORD_INT, NoiseConfig, NoisyExpertPolicy, PromptConfig
from maskloop.raster import BitMask, GrayImage, NormBox, bbox, iou, render_overlay, rle_decode, rle_encode
from maskloop.segmenters import OracleSegmenter, RegionGrowSegmenter, Segmenter
from maskloop.trajgen import (
    FAMILIES,
    _build_ring,
    _disk_at,
    Trajectory,
    generate_trajectory,
    min_gain,
    read_jsonl,
    record_episode,
    render_sft,
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
    # the replay re-segments every step and raises on any mask that differs
    # from the recording; under the generator's own keep rule it keeps
    # every step
    for task in synth_tasks(10, side=32, seed=5):
        traj = generate_trajectory(task, OracleSegmenter())
        assert replay_repair(traj, task, OracleSegmenter(), EnvConfig(), "tau_diff") == (traj, False)


# --- JSONL round trip ----------------------------------------------------


@st.composite
def _episodes(draw):
    """A task, a random EnvConfig, one of the three init kinds, a noisy
    expert's top proposal as the chooser (which gives up after a drawn
    number of choices), and either keep rule."""
    task = synth_tasks(5, side=24, seed=draw(st.integers(0, 20)))[draw(st.integers(0, 4))]
    config = EnvConfig(
        max_steps=draw(st.integers(1, 8)),
        tau_stop=draw(st.one_of(st.sampled_from([0.5, 0.8, 0.95, 1.0]), st.floats(0.0, 1.0))),
        tau_diff=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])),
    )
    kind = draw(st.sampled_from(["empty", "box", "random"]))
    if kind == "empty":
        init = InitSpec.empty()
    elif kind == "box":
        b = bbox(task.target)
        init = InitSpec.from_box(draw(st.sampled_from([b, NormBox(0.0, 0.0, b.x2, b.y2)])))
    else:
        n_pos = draw(st.integers(0, 2))
        init = InitSpec.from_random_clicks(n_pos, draw(st.integers(1 - min(n_pos, 1), 2)), draw(st.integers(0, 99)))
    noise = NoiseConfig(
        sigma=draw(st.sampled_from([0.0, 0.1, 0.3])),
        flip_prob=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 99)),
    )
    keep = draw(st.sampled_from([None, min_gain(config.tau_diff)]))
    return task, config, init, NoisyExpertPolicy(noise), draw(st.integers(0, 9)), keep


@settings(max_examples=150, deadline=None)
@given(_episodes())
def test_run_episode_applies_the_stop_rules_in_order(case):
    task, config, init, policy, patience, keep = case
    asked = []  # (step count, reward, answer) at each choose call

    def choose(state):
        proposals = policy.propose(task, state, 1, seed=0) if len(asked) < patience else []
        action = proposals[0] if proposals else None
        asked.append((state.step, env.reward(state.mask, task.target), action))
        return action

    traj = record_episode(task, OracleSegmenter(), config, init, choose, keep)
    # nothing is chosen, so no step taken, at or past max_steps or tau_stop
    for n, r, _ in asked:
        assert n < config.max_steps and r < config.tau_stop
    assert len(traj.steps) <= config.max_steps
    assert all(st.reward_before < config.tau_stop for st in traj.steps)
    # the stop reason names the first rule that fired
    r, n = traj.final_reward, len(traj.steps)
    if r >= config.tau_stop:
        assert traj.stop_reason == STOP_TAU
    elif n >= config.max_steps:
        assert traj.stop_reason == STOP_MAX
    elif asked[-1][2] is None:
        assert traj.stop_reason == STOP_CONVERGED
    else:
        assert traj.stop_reason == STOP_LOW_IMPACT and keep is not None
    # every choice but a final None or a rejected one is a recorded step
    taken = [a for _, _, a in asked if a is not None]
    assert [st.action for st in traj.steps] == taken[: len(traj.steps)]
    assert len(taken) - len(traj.steps) == (traj.stop_reason == STOP_LOW_IMPACT)


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

    # a box of the wrong length, a non-object init or action: named, not a traceback
    for field, value in [
        ("init", {"variant": "from_box", "box": [0.1, 0.1, 0.5]}),
        ("init", "from_box"),
        ("init", {"variant": "from_random_clicks", "n_pos": 1, "n_neg": 0, "seed": -1}),  # a negative seed
        ("action", ["positive_click", 0.5, 0.5]),
    ]:
        bad = json.loads(json.dumps(good))
        if field == "init":
            bad["init"] = value
        else:
            bad["steps"][0]["action"] = value
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(JsonlError) as e:
            read_jsonl(str(path))
        assert e.value.line == 2, value
        assert "invalid trajectory record" in str(e.value)


def test_jsonl_too_deep_nesting_names_the_line(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text("\n" + "[" * 100_000 + "]" * 100_000 + "\n")  # line 1 is blank
    with pytest.raises(JsonlError, match="invalid JSON") as e:
        read_jsonl(str(path))
    assert e.value.line == 2


def test_jsonl_float_counts_name_the_line(tmp_path):
    import json

    trajs = [generate_trajectory(t, OracleSegmenter()) for t in synth_tasks(2, seed=3)]
    good = [trajectory_to_dict(t) for t in trajs]
    bad = json.loads(json.dumps(good[1]))
    counts = bad["steps"][0]["mask_after"]["counts"]
    counts[-1] = counts[-1] + 0.5
    counts[-2] = counts[-2] - 0.5  # the sum still matches; only the type is wrong
    path = tmp_path / "floats.jsonl"
    path.write_text(json.dumps(good[0]) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(JsonlError) as e:
        read_jsonl(str(path))
    assert e.value.line == 2
    assert "integers" in str(e.value)


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


def test_render_sft_random_init_opens_on_the_recorded_mask():
    task = synth_tasks(1, seed=4)[0]
    init = InitSpec.from_random_clicks(1, 1, seed=9)
    traj = generate_trajectory(task, RegionGrowSegmenter(delta=8, cap=40), init=init)
    assert traj.steps
    cfg = PromptConfig()
    samples = render_sft(traj, task, cfg)
    assert len(samples) == len(traj.steps)
    opening = render_overlay(task.image, rle_decode(traj.opening_mask), cfg.mask_color, cfg.alpha)
    assert samples[0].image == opening
    # an opening mask of another size than the task's is refused
    wrong = replace(traj, opening_mask=rle_encode(BitMask.zeros(32, 32)))
    with pytest.raises(MaskShapeError):
        render_sft(wrong, task)


def test_only_a_random_init_records_an_opening_mask():
    task = synth_tasks(1, seed=4)[0]
    traj = generate_trajectory(task, OracleSegmenter(), init=InitSpec.from_random_clicks(1, 1, seed=9))
    empty = generate_trajectory(task, OracleSegmenter())
    assert traj.opening_mask is not None and empty.opening_mask is None
    with pytest.raises(FieldError, match="^opening_mask: missing"):
        replace(traj, opening_mask=None)
    with pytest.raises(FieldError, match="^opening_mask: recorded for init empty"):
        replace(empty, opening_mask=traj.opening_mask)
    # the field follows init in the record, and only random inits write it
    assert list(trajectory_to_dict(traj))[:3] == ["task_id", "init", "opening_mask"]
    assert "opening_mask" not in trajectory_to_dict(empty)


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
        assert len(flood_components(t.target.data)) in (2, 3)


@st.composite
def _disks(draw):
    side = draw(st.integers(1, 40))
    r = draw(st.integers(0, side))
    # centres up to r + 2 beyond each border clip the disk there
    cx = draw(st.integers(-r - 2, side + r + 1))
    cy = draw(st.integers(-r - 2, side + r + 1))
    return side, cx, cy, r


@settings(max_examples=200, deadline=None)
@given(_disks())
# centred on each border and two corners, with r = 0
@example((10, 0, 5, 3))
@example((10, 5, 0, 3))
@example((10, 9, 5, 3))
@example((10, 5, 9, 3))
@example((10, 0, 0, 3))
@example((10, 9, 9, 0))
def test_disk_at_equals_full_grid_reference(disk):
    assert np.array_equal(_disk_at(*disk), disk_reference(*disk))


@settings(max_examples=40, deadline=None)
@given(side=st.integers(16, 64), seed=st.integers(0, 2**32 - 1))
def test_synth_families_have_their_component_counts(side, seed):
    for family, task in zip(FAMILIES, synth_tasks(len(FAMILIES), side=side, seed=seed)):
        n = len(flood_components(task.target.data))
        assert n in ((2, 3) if family == "scatter" else (1,)), (family, n)


def test_every_ring_up_to_side_512_is_one_component():
    # CI runs the same check up to side 1024 (18,989 rings)
    assert check_rings_connected(512) == 4625


@settings(max_examples=100, deadline=None)
@given(side=st.integers(16, 512), seed=st.integers(0, 2**32 - 1))
def test_ring_pairs_lists_what_build_ring_draws(side, seed):
    ring = _build_ring(side, np.random.default_rng(seed))
    ys, xs = np.nonzero(ring)
    r_out = int(xs.max() - xs.min()) // 2
    cx, cy = int(xs.min()) + r_out, int(ys.min()) + r_out
    # in the centre row the first ring pixel right of the centre is r_in + 1 away
    r_in = int(np.argmax(ring[cy, cx:])) - 1
    assert np.array_equal(ring, _disk_at(side, cx, cy, r_out) & ~_disk_at(side, cx, cy, r_in))
    assert (r_out, r_in) in ring_pairs(side)


# sha256 of synth_tasks(40, side, seed): the newline-joined ids and prompts
# (the same at every side and seed), then the concatenated image bytes and
# target bytes; any change to what synth draws fails here
_SYNTH_IDS = "68a0e3553624f86732ed914523e221cc88c4a14a7ae9b64c6da542d48048979e"
_SYNTH_PROMPTS = "42c3d7732118a57dcea35da206fb16b057816fb49e8b4a7c412ec69c2b230824"
_SYNTH_BYTES = {
    (16, 0): (
        "8166eeb068da59a7f8a0afe627108c822e8df8ed16f3970d7118735777d39f84",
        "da4e5c6c92e532b397bfa560cf2045eb1fad02da3995421f1c20ea1c004b3117",
    ),
    (16, 777): (
        "f5039d8e09cb0d66113f65089dcb6bdd454077414bef51722dbb9f4eeedec978",
        "5ab94786a69b3d72e1552711f11cfd8e1ce8eb72b8d527ec4261e21c85d4919f",
    ),
    (64, 0): (
        "a27629d0a8919a55abdda9f223fdd28509cef29e658343d9841ae6fd779a5d0b",
        "15a4f5ae748fe30f29a567ac73b796a50adbfcb30c0c047e872636c9f544614c",
    ),
    (64, 777): (
        "dd1ce5a31e3e73eff1ff446f251dc8d75cb8d5866987d68b05402abbe4ad59f5",
        "059a62b32a5a3200d8b48c183fb26246a84cfb012e56e2c2bf495566b425a4b2",
    ),
    (256, 0): (
        "b20efdeecd420cea5a1f5488a939bd23a93a75ed26093e241e30ddec868e2b02",
        "f6446daca935b2a056ba08be0ca9946444e7f88a6ab6db8beae772d8d8ee513f",
    ),
    (256, 777): (
        "fd70de3053b4786f0a5903399a6406d8c72b8fa29e5f733a8798fed9076e800f",
        "146bfe4743cb28063ae27909e694ce70827287e2608778cfb4852793d5eab90f",
    ),
    (512, 0): (
        "f6174782d7e7d1c7842b737639e37e013037144c3a93e771ea0f8bb07873a0ae",
        "dad276228ffccea4767480a7d63b9d6939340b0f45f581280ae9ce36664abde4",
    ),
    (512, 777): (
        "ecfd5e76b8d8ff45b80f623bb468b3459c2745937215a41421d8478ba6991f5d",
        "cea3f0b65b68731b0e6ae16b95c129cdd74f6414c5c04c653561afab8643d85a",
    ),
}


@pytest.mark.parametrize("side,seed", sorted(_SYNTH_BYTES))
def test_synth_bytes_are_pinned(side, seed):
    tasks = synth_tasks(40, side=side, seed=seed)

    def sha(parts) -> str:
        return hashlib.sha256(b"".join(parts)).hexdigest()

    assert sha([("\n".join(t.id for t in tasks)).encode()]) == _SYNTH_IDS
    assert sha([("\n".join(t.prompt for t in tasks)).encode()]) == _SYNTH_PROMPTS
    images = sha(t.image.data.tobytes() for t in tasks)
    targets = sha(t.target.data.tobytes() for t in tasks)
    assert (images, targets) == _SYNTH_BYTES[side, seed]


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
