from __future__ import annotations

import json

import numpy as np
import pytest

from maskloop.env import (
    POSITIVE_CLICK,
    NEGATIVE_CLICK,
    BOX,
    STOP_MAX,
    STOP_TAU,
    Action,
    EnvConfig,
    InitSpec,
    Task,
    action_from_dict,
    action_to_dict,
    load_tasks,
    reset,
    reward,
    step,
    write_task_dir,
)
from maskloop.errors import DuplicateTaskIdError
from maskloop.raster import BitMask, GrayImage, NormBox, NormPoint, bbox, pixel_center
from maskloop.segmenters import OracleSegmenter
from maskloop.trajgen import synth_tasks

from conftest import mask_of


def _simple_task(side: int = 8) -> Task:
    target = np.zeros((side, side), bool)
    target[2:6, 2:6] = True
    img = np.full((side, side), 30, np.uint8)
    img[target] = 200
    return Task(id="t0", image=GrayImage(img), target=BitMask(target), prompt="the square")


def _click_inside(task: Task) -> Action:
    ys, xs = np.nonzero(task.target.data)
    w, h = task.target.width, task.target.height
    pt = pixel_center(int(xs[0]), int(ys[0]), w, h)
    return Action.positive(pt.x, pt.y)


# --- construction -------------------------------------------------------


def test_action_requires_point_xor_box():
    with pytest.raises(ValueError):
        Action(kind=POSITIVE_CLICK, point=None, box=None)
    with pytest.raises(ValueError):
        Action(kind=BOX, point=NormPoint(0.5, 0.5), box=None)
    with pytest.raises(ValueError):
        Action(
            kind=POSITIVE_CLICK,
            point=NormPoint(0.5, 0.5),
            box=NormBox(0.1, 0.1, 0.2, 0.2),
        )


def test_action_sign():
    a = Action.positive(0.5, 0.5)
    b = Action.negative(0.5, 0.5)
    assert a.sign == 1 and b.sign == -1
    assert a.is_click and b.is_click
    assert not Action.box_prompt(NormBox(0.1, 0.1, 0.5, 0.5)).is_click


def test_action_dict_round_trip():
    for a in (
        Action.positive(0.125, 0.5),
        Action.negative(0.0, 0.999),
        Action.box_prompt(NormBox(0.1, 0.2, 0.3, 0.4)),
    ):
        assert action_from_dict(action_to_dict(a)) == a


def test_task_rejects_empty_target():
    img = GrayImage(np.zeros((4, 4), np.uint8))
    with pytest.raises(ValueError):
        Task(id="x", image=img, target=BitMask.zeros(4, 4), prompt="nothing")


def test_task_rejects_dimension_mismatch():
    img = GrayImage(np.zeros((4, 4), np.uint8))
    with pytest.raises(ValueError):
        Task(id="x", image=img, target=BitMask.full(5, 5), prompt="wrong")


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(max_steps=0)
    with pytest.raises(ValueError):
        EnvConfig(tau_stop=1.5)
    with pytest.raises(ValueError):
        EnvConfig(tau_diff=-0.1)


def test_stop_reason_checks_tau_stop_then_max_steps():
    config = EnvConfig(max_steps=3, tau_stop=0.9)
    assert config.stop_reason(0.89, 2) is None
    assert config.stop_reason(0.9, 2) == STOP_TAU
    assert config.stop_reason(0.5, 3) == STOP_MAX
    assert config.stop_reason(1.0, 3) == STOP_TAU  # both hold: tau_stop names the stop


# --- reset ---------------------------------------------------------------


def test_reset_empty_init():
    task = _simple_task()
    state = reset(task, InitSpec.empty(), OracleSegmenter())
    assert state.mask.is_empty()
    assert state.history == ()
    assert state.step == 0
    assert reward(state.mask, task.target) == 0.0


def test_reset_box_init_reward_is_area_ratio():
    task = synth_tasks(1, side=32, seed=5)[0]
    box = bbox(task.target)
    state = reset(task, InitSpec.from_box(box), OracleSegmenter())
    filled = state.mask.area()
    assert filled >= task.target.area()
    assert reward(state.mask, task.target) == pytest.approx(task.target.area() / filled)


def test_reset_random_clicks_is_deterministic():
    task = _simple_task()
    seg = OracleSegmenter()
    a = reset(task, InitSpec.from_random_clicks(2, 1, seed=9), seg)
    b = reset(task, InitSpec.from_random_clicks(2, 1, seed=9), seg)
    assert a.mask == b.mask
    assert a.history == b.history
    assert len(a.history) == 3
    signs = [act.sign for act in a.history]
    assert signs == [1, 1, -1]


def test_reset_random_clicks_stay_inside_target_bbox():
    task = _simple_task()
    state = reset(task, InitSpec.from_random_clicks(4, 4, seed=3), OracleSegmenter())
    box = bbox(task.target)
    for act in state.history:
        assert box.x1 <= act.point.x < box.x2
        assert box.y1 <= act.point.y < box.y2


# --- step ----------------------------------------------------------------


def test_step_positive_click_hits_component():
    task = _simple_task()
    state = reset(task, InitSpec.empty(), OracleSegmenter())
    after = step(state, _click_inside(task), task, OracleSegmenter())
    assert reward(after.mask, task.target) == 1.0
    assert after.mask == task.target
    assert after.step == 1


def test_step_background_click_keeps_mask_empty():
    task = _simple_task()
    state = reset(task, InitSpec.empty(), OracleSegmenter())
    c = pixel_center(0, 0, 8, 8)
    corner = Action.positive(c.x, c.y)
    after = step(state, corner, task, OracleSegmenter())
    assert reward(after.mask, task.target) == 0.0
    assert after.mask.is_empty()
    assert after.history == (corner,)


def test_step_is_the_transition_alone():
    # no stop rule lives in step: a solved mask steps on, and the count
    # passes any budget; trajgen.run_episode decides when an episode ends
    task = _simple_task()
    seg = OracleSegmenter()
    state = reset(task, InitSpec.empty(), seg)
    for n in range(1, 10):
        state = step(state, _click_inside(task), task, seg)
        assert state.step == n and state.mask == task.target
    assert len(state.history) == 9


def test_step_passes_full_history_to_segmenter():
    calls = []

    class Spy(OracleSegmenter):
        def segment(self, task, clicks, box=None):
            calls.append((len(clicks), box))
            return super().segment(task, clicks, box)

    task = _simple_task()
    seg = Spy()
    state = reset(task, InitSpec.empty(), seg)
    c = pixel_center(0, 0, 8, 8)
    corner = Action.positive(c.x, c.y)
    state = step(state, corner, task, seg)
    state = step(state, corner, task, seg)
    assert [n for n, _ in calls] == [1, 2]


def test_step_deterministic_replay():
    task = synth_tasks(1, side=24, seed=2)[0]
    seg = OracleSegmenter()
    c = pixel_center(0, 0, 24, 24)
    actions = [
        Action.negative(c.x, c.y),
        _click_inside(task),
    ]
    runs = []
    for _ in range(2):
        state = reset(task, InitSpec.empty(), seg)
        masks = []
        for a in actions:
            state = step(state, a, task, seg)
            masks.append(state.mask)
        runs.append(masks)
    assert runs[0] == runs[1]


def test_reward_half_overlap_case():
    a = np.zeros((4, 4), bool)
    a[:, :2] = True
    b = np.zeros((4, 4), bool)
    b[:2, :] = True
    assert reward(BitMask(a), BitMask(b)) == pytest.approx(1 / 3)


# --- task io ---------------------------------------------------------------


def test_write_and_load_task_dir(tmp_path):
    tasks = synth_tasks(4, side=24, seed=1)
    manifest = write_task_dir(tasks, str(tmp_path / "d"))
    loaded = load_tasks(manifest)
    assert [t.id for t in loaded] == [t.id for t in tasks]
    for got, want in zip(loaded, tasks):
        assert got.image == want.image
        assert got.target == want.target
        assert got.prompt == want.prompt


def test_load_tasks_rejects_missing_file(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"tasks": [
        {"id": "a", "image_path": "nope.pgm", "target_path": "nope.pgm", "prompt": "x"}
    ]}))
    with pytest.raises(OSError):
        load_tasks(str(p))


def test_load_tasks_relative_paths(tmp_path):
    tasks = synth_tasks(2, side=16, seed=0)
    manifest = write_task_dir(tasks, str(tmp_path / "nested" / "deep"))
    # manifest paths are relative to the manifest's directory
    loaded = load_tasks(manifest)
    assert len(loaded) == 2


def test_load_tasks_rejects_a_repeated_task_id(tmp_path):
    manifest = write_task_dir(synth_tasks(3, side=16, seed=0), str(tmp_path / "d"))
    with open(manifest) as fh:
        data = json.load(fh)
    # the last task's files under the first task's id
    data["tasks"][2]["id"] = data["tasks"][0]["id"]
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(DuplicateTaskIdError, match="'synth-0000'"):
        load_tasks(manifest)


_ENTRY = {"id": "a", "image_path": "a.pgm", "target_path": "a.pgm", "prompt": "x"}


@pytest.mark.parametrize(
    "manifest, named",
    [
        ({"tasks": ["a", "b"]}, 'tasks[0]: expected an object, got "a"'),
        ({"tasks": [{"id": ["a"], "prompt": "x"}]}, 'tasks[0].id: expected a string, got ["a"]'),
        ([{"image_path": "a.pgm"}], "tasks[0].id: missing"),
        ({"tasks": "ab"}, 'tasks: expected a list, got "ab"'),
        ({"tasks": [{**_ENTRY, "prompt": 42}]}, "tasks[0].prompt: expected a string, got 42"),
        ({"tasks": [_ENTRY, {k: v for k, v in _ENTRY.items() if k != "image_path"}]}, "tasks[1].image_path: missing"),
        ({"tasks": [{**_ENTRY, "id": "../../escaped"}]}, "tasks[0].id: expected a plain file name"),
    ],
)
def test_load_tasks_names_a_malformed_manifest(tmp_path, capsys, manifest, named):
    from maskloop.cli import dispatch

    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as e:
        load_tasks(str(p))
    assert str(e.value).startswith(f"{p}: {named}")
    assert dispatch(["eval-noc", "--tasks", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: {named}") and err.count("\n") == 1


def test_kind_constants_are_distinct():
    assert len({POSITIVE_CLICK, NEGATIVE_CLICK, BOX}) == 3
