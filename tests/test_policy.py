from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskloop.env import (
    NEGATIVE_CLICK,
    POSITIVE_CLICK,
    Action,
    EnvConfig,
    InitSpec,
    reset,
)
from maskloop.errors import ActionParseError, TemplateError
from maskloop.policy import (
    COORD_DECIMAL,
    COORD_INT,
    ExpertPolicy,
    NoiseConfig,
    NoisyExpertPolicy,
    NoisyPrm,
    OraclePrm,
    PromptConfig,
    expert_propose,
    format_action,
    miou_percent,
    parse_action,
    parse_stated_miou,
    prm_score,
    render_prompt,
)
from maskloop.raster import BitMask, NormBox
from maskloop.segmenters import OracleSegmenter
from maskloop.trajgen import synth_tasks


# --- formatting ---------------------------------------------------------


def test_format_positive_integer_format():
    a = Action.positive(0.175, 0.483)
    assert format_action(a, COORD_INT) == "Positive point: (175, 483)"


def test_format_negative_decimal_format():
    a = Action.negative(0.25, 0.5)
    assert format_action(a, COORD_DECIMAL) == "Negative point: (0.250, 0.500)"


def test_format_box_integer_clamps_to_999():
    top = np.nextafter(1.0, 0.0)
    a = Action.box_prompt(NormBox(0.0, 0.0, top, top))
    assert format_action(a, COORD_INT) == "Box: (0, 0, 999, 999)"


def test_format_decimal_never_prints_one():
    top = np.nextafter(1.0, 0.0)
    a = Action.positive(top, top)
    assert format_action(a, COORD_DECIMAL) == "Positive point: (0.999, 0.999)"


def test_format_rejects_unknown_format():
    with pytest.raises(ValueError):
        format_action(Action.positive(0.5, 0.5), "pixels")


# --- parsing ------------------------------------------------------------


def test_parse_integer_point_compact_spacing():
    stated, action = parse_action("Positive point: (175,483)", COORD_INT)
    assert stated is None
    assert action.kind == POSITIVE_CLICK
    assert action.point.x == pytest.approx(0.175)
    assert action.point.y == pytest.approx(0.483)


def test_parse_with_miou_line():
    stated, action = parse_action(
        "Current mIoU: 73\nNegative point: (0.100, 0.900)", COORD_DECIMAL
    )
    assert stated == pytest.approx(0.73)
    assert action.kind == NEGATIVE_CLICK
    assert action.point.x == pytest.approx(0.1)
    assert action.point.y == pytest.approx(0.9)


def test_parse_box():
    _, action = parse_action("Box: (100, 200, 300, 400)", COORD_INT)
    assert action.box == NormBox(0.1, 0.2, 0.3, 0.4)


def test_parse_is_whitespace_and_case_tolerant():
    _, action = parse_action("  positive POINT :  ( 0.125 ,0.250 )  ", COORD_DECIMAL)
    assert action == Action.positive(0.125, 0.25)


def test_parse_error_codes():
    with pytest.raises(ActionParseError) as e:
        parse_action("", COORD_DECIMAL)
    assert e.value.code == "empty_input"

    with pytest.raises(ActionParseError) as e:
        parse_action("Click here: (0.5, 0.5)", COORD_DECIMAL)
    assert e.value.code == "unknown_verb"

    with pytest.raises(ActionParseError) as e:
        parse_action("Positive point: (1200, 50)", COORD_INT)
    assert e.value.code == "out_of_range"

    with pytest.raises(ActionParseError) as e:
        parse_action("Positive point: (0.5, abc)", COORD_DECIMAL)
    assert e.value.code == "malformed_number"

    with pytest.raises(ActionParseError) as e:
        parse_action("Positive point: (0.5)", COORD_DECIMAL)
    assert e.value.code == "malformed_number"


def test_parse_rejects_decimal_one():
    with pytest.raises(ActionParseError) as e:
        parse_action("Positive point: (1.0, 0.5)", COORD_DECIMAL)
    assert e.value.code == "out_of_range"


def test_parse_stated_miou_range():
    assert parse_stated_miou("Current mIoU: 0") == 0.0
    assert parse_stated_miou("Current mIoU: 100") == 1.0
    with pytest.raises(ActionParseError) as e:
        parse_stated_miou("Current mIoU: 101")
    assert e.value.code == "out_of_range"


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ActionParseError):
        parse_action("Positive point: (0.5, 0.5)\nPositive point: (0.1, 0.1)", COORD_DECIMAL)


_unit = st.floats(-0.0, 1.0, exclude_max=True)  # every value NormPoint accepts, -0.0 included
_clicks = st.builds(
    lambda positive, x, y: Action.positive(x, y) if positive else Action.negative(x, y), st.booleans(), _unit, _unit
)
_boxes = st.builds(
    lambda xs, ys: Action.box_prompt(NormBox(min(xs), min(ys), max(xs), max(ys))),
    st.tuples(_unit, _unit),
    st.tuples(_unit, _unit),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_clicks, _boxes), st.sampled_from([COORD_DECIMAL, COORD_INT]))
def test_format_parse_format_is_stable(action, coord_format):
    text = format_action(action, coord_format)
    stated, back = parse_action(text, coord_format)
    assert stated is None
    assert back.kind == action.kind
    assert format_action(back, coord_format) == text
    if back.is_click:
        coords = (back.point.x, back.point.y)
    else:
        coords = (back.box.x1, back.box.y1, back.box.x2, back.box.y2)
    assert all(0.0 <= v < 1.0 for v in coords)


def test_round_trip_both_formats(rng):
    for _ in range(300):
        if rng.random() < 0.8:
            x, y = rng.random(), rng.random()
            a = Action.positive(x, y) if rng.random() < 0.5 else Action.negative(x, y)
        else:
            x1, y1 = rng.random() * 0.5, rng.random() * 0.5
            a = Action.box_prompt(NormBox(x1, y1, x1 + rng.random() * 0.4, y1 + rng.random() * 0.4))
        for fmt in (COORD_DECIMAL, COORD_INT):
            _, back = parse_action(format_action(a, fmt), fmt)
            assert back.kind == a.kind
            if a.is_click:
                pairs = [(back.point.x, a.point.x), (back.point.y, a.point.y)]
            else:
                pairs = [
                    (back.box.x1, a.box.x1),
                    (back.box.y1, a.box.y1),
                    (back.box.x2, a.box.x2),
                    (back.box.y2, a.box.y2),
                ]
            for got, want in pairs:
                # quantization bound; the top sliver (> 0.9995) clamps to
                # 0.999 and may be off by up to 1e-3
                bound = 0.0005 if want <= 0.9995 else 0.001
                assert abs(got - want) <= bound + 1e-12


# --- templates and percent rendering -------------------------------------


def test_render_prompt_substitutes_description():
    text = render_prompt("default", "the red kite")
    assert "the red kite" in text
    assert "{description}" not in text


def test_render_prompt_unknown_template():
    with pytest.raises(TemplateError):
        render_prompt("fancy", "x")


def test_prompt_config_validation():
    with pytest.raises(ValueError):
        PromptConfig(coord_format="pixels")
    with pytest.raises(ValueError):
        PromptConfig(alpha=-0.1)
    with pytest.raises(TemplateError):
        PromptConfig(template_id="missing")


def test_miou_percent_rounds_half_up():
    assert miou_percent(0.734) == 73
    assert miou_percent(0.735) == 74  # 73.5 rounds up
    assert miou_percent(0.0) == 0
    assert miou_percent(1.0) == 100


# --- expert proposals ------------------------------------------------------


def _episode(seed: int = 0):
    task = synth_tasks(1, side=32, seed=seed)[0]
    state = reset(task, InitSpec.empty(), OracleSegmenter())
    return task, state


def test_expert_propose_zero_noise_single_proposal():
    task, state = _episode()
    proposals = expert_propose(task, state, k=5)
    assert len(proposals) == 1
    from maskloop.expert import next_click

    assert proposals[0].action == next_click(state.mask, task.target)


def test_expert_propose_exhausted_returns_empty():
    task, _ = _episode()
    state = reset(task, InitSpec.empty(), OracleSegmenter())
    state = type(state)(
        step=state.step,
        mask=task.target,
        history=state.history,
        init_box=state.init_box,
        finished=state.finished,
    )
    assert expert_propose(task, state, k=3) == []


def test_expert_propose_noise_is_deterministic():
    task, state = _episode()
    noise = NoiseConfig(sigma=0.1, flip_prob=0.5, seed=11)
    a = expert_propose(task, state, k=3, noise=noise, task_seed=99)
    b = expert_propose(task, state, k=3, noise=noise, task_seed=99)
    assert a == b


def test_expert_propose_noise_seeds_differ():
    task, state = _episode()
    noise1 = NoiseConfig(sigma=0.1, flip_prob=0.0, seed=1)
    noise2 = NoiseConfig(sigma=0.1, flip_prob=0.0, seed=2)
    a = expert_propose(task, state, k=3, noise=noise1, task_seed=99)
    b = expert_propose(task, state, k=3, noise=noise2, task_seed=99)
    assert a != b


def test_expert_propose_noisy_proposals_in_range():
    task, state = _episode()
    noise = NoiseConfig(sigma=0.4, flip_prob=0.3, seed=3)
    for proposal in expert_propose(task, state, k=8, noise=noise, task_seed=1):
        assert 0.0 <= proposal.action.point.x < 1.0
        assert 0.0 <= proposal.action.point.y < 1.0


def test_expert_propose_dedupes():
    task, state = _episode()
    noise = NoiseConfig(sigma=0.0, flip_prob=1.0, seed=0)  # same flip every draw
    proposals = expert_propose(task, state, k=6, noise=noise, task_seed=5)
    assert len(proposals) == 1
    assert proposals[0].action.kind == NEGATIVE_CLICK  # flipped from positive


def test_expert_propose_k_validation():
    task, state = _episode()
    with pytest.raises(ValueError):
        expert_propose(task, state, k=0)


def test_noisy_policy_start_task_changes_stream():
    task, state = _episode()
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.1, flip_prob=0.0, seed=4))
    policy.start_task(task, seed=1)
    a = policy.propose(task, state, 3)
    policy.start_task(task, seed=2)
    b = policy.propose(task, state, 3)
    policy.start_task(task, seed=1)
    c = policy.propose(task, state, 3)
    assert a != b
    assert a == c


def test_expert_policy_matches_expert_propose():
    task, state = _episode()
    assert ExpertPolicy().propose(task, state, 4) == expert_propose(task, state, 4)


# --- reward models -----------------------------------------------------------


def test_oracle_prm_is_true_iou():
    task, _ = _episode()
    prm = OraclePrm()
    assert prm.score(task, task.target) == 1.0
    assert prm.score(task, BitMask.zeros(task.image.width, task.image.height)) == 0.0


def test_noisy_prm_zero_sigma_equals_oracle():
    task, _ = _episode()
    assert NoisyPrm(sigma=0.0).score(task, task.target) == OraclePrm().score(task, task.target)


def test_noisy_prm_is_stable_per_mask():
    task, _ = _episode()
    prm = NoisyPrm(sigma=0.2, seed=7)
    a = prm.score(task, task.target)
    b = prm.score(task, task.target)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_noisy_prm_differs_across_masks():
    task, _ = _episode()
    prm = NoisyPrm(sigma=0.2, seed=7)
    other = BitMask(~task.target.data)
    assert prm.score(task, task.target) != prm.score(task, other)


def test_prm_score_checks_dimensions():
    task, _ = _episode()
    with pytest.raises(ValueError):
        prm_score(OraclePrm(), task, BitMask.zeros(3, 3))
