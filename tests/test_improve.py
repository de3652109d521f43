from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import mask_of, replay_repair
from hypothesis import given, settings
from hypothesis import strategies as st

from maskloop.env import (
    STOP_CONVERGED,
    STOP_LOW_IMPACT,
    STOP_MAX,
    STOP_TAU,
    Action,
    EnvConfig,
    InitSpec,
    Task,
    write_task_dir,
)
from maskloop.errors import HookError, RemoteError, ReplayMismatchError
from maskloop.expert import next_click
from maskloop.improve import (
    DatasetManifest,
    TrainHook,
    check_star_options,
    named_keep_rule,
    refine_star_plus_verbose,
    rollout,
    star_filter,
    star_iteration,
)
from maskloop.policy import (
    ExpertPolicy,
    NoiseConfig,
    NoisyExpertPolicy,
    Policy,
)
from maskloop.raster import GrayImage, NormBox, bbox, rle_decode
from maskloop.segmenters import OracleSegmenter, RegionGrowSegmenter
from maskloop.trajgen import (
    Trajectory,
    TrajectoryStep,
    generate_trajectory,
    read_jsonl,
    synth_tasks,
    write_jsonl,
)


def _task(rows, task_id="t0"):
    target = mask_of(rows)
    img = np.where(target.data, 200, 20).astype(np.uint8)
    return Task(id=task_id, image=GrayImage(img), target=target, prompt="the blob")


class BackgroundClicker(Policy):
    """Always clicks the top-left pixel center; useless on purpose."""

    def propose(self, task, state, k, seed=None):
        x = 0.5 / task.image.width
        y = 0.5 / task.image.height
        return [Action.positive(x, y)]


class FailingPolicy(Policy):
    def __init__(self, bad_ids):
        self.bad_ids = set(bad_ids)

    def propose(self, task, state, k, seed=None):
        if task.id in self.bad_ids:
            raise RemoteError("connection refused")
        return ExpertPolicy().propose(task, state, k)


class CountingSegmenter(OracleSegmenter):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def segment(self, task, clicks, box):
        self.calls += 1
        return super().segment(task, clicks, box)


class RepairFailingSegmenter(OracleSegmenter):
    """Fails remotely, for some tasks, on any history holding a click other
    than BackgroundClicker's: those tasks' rollouts go through and their
    repairs fail."""

    def __init__(self, bad_ids):
        super().__init__()
        self.bad_ids = set(bad_ids)

    def segment(self, task, clicks, box):
        corner = BackgroundClicker().propose(task, None, 1)[0]
        if task.id in self.bad_ids and any(c != corner for c in clicks):
            raise RemoteError("connection reset")
        return super().segment(task, clicks, box)


# --- rollout -----------------------------------------------------------


def test_expert_rollout_matches_generated_trajectory():
    for task in synth_tasks(10, side=32, seed=1):
        trajs, failures = rollout(ExpertPolicy(), [task], OracleSegmenter())
        assert failures == {}
        assert trajs[0] == generate_trajectory(task, OracleSegmenter())


def test_rollout_same_seed_is_identical():
    tasks = synth_tasks(6, side=32, seed=2)
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.2, flip_prob=0.2, seed=5))
    a, _ = rollout(policy, tasks, OracleSegmenter(), seed=42)
    b, _ = rollout(policy, tasks, OracleSegmenter(), seed=42)
    assert a == b
    c, _ = rollout(policy, tasks, OracleSegmenter(), seed=43)
    assert a != c


def test_rollout_records_non_improving_steps():
    task = _task([".##", ".##"])
    config = EnvConfig(max_steps=4)
    trajs, _ = rollout(BackgroundClicker(), [task], OracleSegmenter(), config)
    traj = trajs[0]
    assert len(traj.steps) == 4
    assert traj.stop_reason == STOP_MAX
    assert all(st.reward_after == 0.0 for st in traj.steps)


def test_rollout_collects_remote_failures():
    tasks = synth_tasks(4, side=32, seed=3)
    policy = FailingPolicy([tasks[1].id, tasks[2].id])
    trajs, failures = rollout(policy, tasks, OracleSegmenter())
    assert sorted(failures) == sorted([tasks[1].id, tasks[2].id])
    assert [t.task_id for t in trajs] == [tasks[0].id, tasks[3].id]


# --- refine ------------------------------------------------------------


def test_refine_keeps_fully_improving_rollout():
    for task in synth_tasks(8, side=32, seed=4):
        trajs, _ = rollout(ExpertPolicy(), [task], OracleSegmenter())
        refined, corrected = refine_star_plus_verbose(trajs[0], task, OracleSegmenter())
        assert not corrected
        assert refined == trajs[0]


def _with_wasted_click(task, config=EnvConfig()):
    """Expert trajectory with a do-nothing background click spliced in."""
    base = generate_trajectory(task, OracleSegmenter(), config)
    assert len(base.steps) >= 2
    first = base.steps[0]
    x = 0.5 / task.image.width
    y = 0.5 / task.image.height
    wasted = TrajectoryStep(
        action=Action.positive(x, y),
        mask_after=first.mask_after,
        reward_before=first.reward_after,
        reward_after=first.reward_after,
    )
    steps = (first, wasted) + base.steps[1:]
    return base, Trajectory(task.id, base.init, steps, base.final_reward, base.stop_reason)


def test_refine_substitutes_expert_at_first_bad_step():
    task = _task(
        [
            "##......",
            "##......",
            "........",
            ".....###",
            ".....###",
        ]
    )
    base, damaged = _with_wasted_click(task)
    refined, corrected = refine_star_plus_verbose(damaged, task, OracleSegmenter())
    assert corrected
    assert refined.steps[0] == base.steps[0]
    # the wasted click is gone and the expert's own click takes its place
    expected = next_click(rle_decode(base.steps[0].mask_after), task.target)
    assert refined.steps[1].action == expected
    assert refined.final_reward == 1.0
    assert refined.stop_reason == STOP_TAU


def test_refined_rollouts_never_lose_reward(rng):
    tasks = synth_tasks(12, side=32, seed=6)
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.25, flip_prob=0.25, seed=8))
    trajs, _ = rollout(policy, tasks, OracleSegmenter(), seed=7)
    by_id = {t.id: t for t in tasks}
    for traj in trajs:
        refined = refine_star_plus_verbose(traj, by_id[traj.task_id], OracleSegmenter())[0]
        assert refined.final_reward >= traj.final_reward
        for st in refined.steps:
            assert st.reward_after > st.reward_before


def test_refine_empty_rollout_becomes_expert_episode():
    task = _task(["###", "###"])
    empty = Trajectory(task.id, generate_trajectory(task, OracleSegmenter()).init, (), 0.0, STOP_LOW_IMPACT)
    refined = refine_star_plus_verbose(empty, task, OracleSegmenter())[0]
    assert refined == generate_trajectory(task, OracleSegmenter())


def test_refine_rejects_actions_past_episode_end():
    task = _task(["##", "##"])
    trajs, _ = rollout(ExpertPolicy(), [task], OracleSegmenter())
    traj = trajs[0]
    assert traj.final_reward == 1.0
    extra = traj.steps + traj.steps  # tau_stop ends the episode after step 1
    damaged = Trajectory(task.id, traj.init, extra, traj.final_reward, traj.stop_reason)
    with pytest.raises(ReplayMismatchError, match="past the episode end"):
        refine_star_plus_verbose(damaged, task, OracleSegmenter())
    # three improving clicks, but a budget of two steps ends the episode
    # after the second
    task = _task(["#.#.#"])
    trajs, _ = rollout(ExpertPolicy(), [task], OracleSegmenter())
    assert len(trajs[0].steps) == 3
    with pytest.raises(ReplayMismatchError, match="past the episode end"):
        refine_star_plus_verbose(trajs[0], task, OracleSegmenter(), EnvConfig(max_steps=2))


@st.composite
def _repair_cases(draw):
    """A noisy rollout and the EnvConfig to repair it under: the rollout's
    own, or one with a smaller step budget or a lower tau_stop, under which
    the record can run past the episode end."""
    side = draw(st.sampled_from([16, 24]))
    task = synth_tasks(5, side=side, seed=draw(st.integers(0, 20)))[draw(st.integers(0, 4))]
    segmenter = draw(st.sampled_from([OracleSegmenter(), RegionGrowSegmenter(delta=8, cap=40)]))
    variant = draw(st.sampled_from(["empty", "box", "random"]))
    if variant == "empty":
        init = InitSpec.empty()
    elif variant == "box":
        b = bbox(task.target)
        init = InitSpec.from_box(draw(st.sampled_from([b, NormBox(0.0, 0.0, b.x2, b.y2)])))
    else:
        n_pos = draw(st.integers(0, 2))
        init = InitSpec.from_random_clicks(n_pos, draw(st.integers(1 - min(n_pos, 1), 2)), draw(st.integers(0, 99)))
    taus = [0.5, 0.8, 0.95, 1.0]
    recorded_under = EnvConfig(max_steps=draw(st.integers(1, 8)), tau_stop=draw(st.sampled_from(taus)))
    tighter = draw(st.booleans())
    config = EnvConfig(
        max_steps=draw(st.integers(1, recorded_under.max_steps)) if tighter else recorded_under.max_steps,
        tau_stop=draw(st.sampled_from([t for t in taus if t <= recorded_under.tau_stop]))
        if tighter
        else recorded_under.tau_stop,
        tau_diff=draw(st.sampled_from([0.0, 0.01, 0.05])),
    )
    noise = NoiseConfig(
        sigma=draw(st.sampled_from([0.0, 0.05, 0.2])),
        flip_prob=draw(st.sampled_from([0.0, 0.2, 0.5])),
        seed=draw(st.integers(0, 99)),
    )
    trajs, failures = rollout(
        NoisyExpertPolicy(noise), [task], segmenter, recorded_under, seed=draw(st.integers(0, 99)),
        init=lambda _: init,
    )
    assert failures == {}
    return trajs[0], task, segmenter, config, draw(st.sampled_from(["positive", "tau_diff"]))


@settings(max_examples=200, deadline=None)
@given(_repair_cases())
def test_refine_equals_replay_repair(case):
    traj, task, segmenter, config, keep_rule = case
    # the oracle compares gains by the rule's name; refine takes the mapped function
    keep = named_keep_rule(keep_rule, config.tau_diff)
    try:
        expected = replay_repair(traj, task, segmenter, config, keep_rule)
    except ReplayMismatchError as e:
        assert "past the episode end" in str(e)
        with pytest.raises(ReplayMismatchError, match="past the episode end"):
            refine_star_plus_verbose(traj, task, segmenter, config, keep)
        return
    assert refine_star_plus_verbose(traj, task, segmenter, config, keep) == expected


class OneClickPolicy(Policy):
    """Proposes the expert's first click and then nothing, as a remote
    policy does once its replies stop parsing."""

    def propose(self, task, state, k, seed=None):
        return ExpertPolicy().propose(task, state, k) if state.step == 0 else []


def test_refine_lets_the_expert_finish_an_uncut_rollout():
    task = _task(["##......", "##......", "........", ".....###", ".....###"])
    trajs, _ = rollout(OneClickPolicy(), [task], OracleSegmenter())
    traj = trajs[0]
    assert len(traj.steps) == 1 and traj.stop_reason == STOP_CONVERGED
    assert traj.final_reward < EnvConfig().tau_stop
    refined, cut = refine_star_plus_verbose(traj, task, OracleSegmenter())
    # nothing was cut, yet the record does not come back as it is: the
    # expert clicks on from its last mask until a stop rule ends it
    assert not cut
    assert refined.steps[0] == traj.steps[0] and len(refined.steps) > 1
    assert refined.final_reward == 1.0 and refined.stop_reason == STOP_TAU
    assert (refined, cut) == replay_repair(traj, task, OracleSegmenter(), EnvConfig(), "positive")


def test_refine_segments_only_the_expert_continuation():
    tasks = synth_tasks(12, side=32, seed=6)
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.25, flip_prob=0.25, seed=8))
    trajs, _ = rollout(policy, tasks, OracleSegmenter(), seed=7)
    by_id = {t.id: t for t in tasks}
    n_corrected = 0
    for traj in trajs:
        seg = CountingSegmenter()
        refined, corrected = refine_star_plus_verbose(traj, by_id[traj.task_id], seg)
        if not corrected:
            # an uncut rollout already ended by this config's limits, so the
            # expert adds nothing and nothing is segmented
            assert refined == traj and seg.calls == 0
            continue
        n_corrected += 1
        kept = 0
        while traj.steps[kept].reward_after > traj.steps[kept].reward_before:
            kept += 1
        # one call per expert click, plus the click the tau_diff margin rejected
        rejected = refined.stop_reason == STOP_LOW_IMPACT
        assert seg.calls == len(refined.steps) - kept + rejected
    assert 0 < n_corrected < len(trajs)


def test_refine_checks_task_identity():
    task = _task(["##"])
    other = _task(["##"], task_id="zz")
    trajs, _ = rollout(ExpertPolicy(), [task], OracleSegmenter())
    with pytest.raises(ValueError):
        refine_star_plus_verbose(trajs[0], other, OracleSegmenter())[0]


def test_keep_rule_tau_diff_is_stricter():
    # one big block plus a single far pixel: the last click gains ~4e-4,
    # positive but below tau_diff
    rows = ["#" * 20] * 20 + ["." * 20] * 2 + ["." * 19 + "#"]
    task = _task(rows)
    config = EnvConfig(tau_stop=1.0, tau_diff=0.01)
    trajs, _ = rollout(ExpertPolicy(), [task], OracleSegmenter(), config)
    traj = trajs[0]
    assert len(traj.steps) == 2
    small_gain = traj.steps[1].reward_after - traj.steps[1].reward_before
    assert 0.0 < small_gain < config.tau_diff

    positive, tau_diff = (named_keep_rule(name, config.tau_diff) for name in ("positive", "tau_diff"))
    kept = refine_star_plus_verbose(traj, task, OracleSegmenter(), config, keep=positive)[0]
    assert kept == traj
    trimmed = refine_star_plus_verbose(traj, task, OracleSegmenter(), config, keep=tau_diff)[0]
    assert trimmed.steps == traj.steps[:1]
    assert trimmed.stop_reason == STOP_LOW_IMPACT


def test_an_unknown_keep_rule_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown keep rule 'lenient'"):
        named_keep_rule("lenient", 0.01)


# --- filtering -----------------------------------------------------------


def test_star_filter_boundary_inclusive():
    t = generate_trajectory(_task(["##"]), OracleSegmenter())
    low = Trajectory(t.task_id, t.init, t.steps, 0.9499, t.stop_reason)
    edge = Trajectory(t.task_id, t.init, t.steps, 0.95, t.stop_reason)
    assert star_filter([low, edge, t], 0.95) == [edge, t]


def test_star_filter_validates_threshold():
    with pytest.raises(ValueError):
        star_filter([], 1.5)


# --- manifests and hooks ---------------------------------------------------


def _seed_manifest(tmp_path, n=3, name="seed"):
    tasks = synth_tasks(n, side=32, seed=10)
    trajs = [generate_trajectory(t, OracleSegmenter()) for t in tasks]
    path = str(tmp_path / f"{name}.jsonl")
    write_jsonl(trajs, path)
    manifest = DatasetManifest(name=name, files=(path,), provenance="generated", trajectories=tuple(trajs))
    manifest_path = str(tmp_path / f"{name}.json")
    manifest.save(manifest_path)
    return manifest, manifest_path, tasks, trajs


def test_manifest_save_load_round_trip(tmp_path):
    manifest, manifest_path, _, trajs = _seed_manifest(tmp_path)
    loaded = DatasetManifest.load(manifest_path)
    assert loaded.name == manifest.name
    assert loaded.provenance == "generated"
    assert loaded.trajectories == tuple(trajs)
    assert loaded == manifest


def test_manifest_load_rejects_count_mismatch(tmp_path):
    _seed_manifest(tmp_path)
    # a manifest always saves its records' count, so a wrong one is written by hand
    bad = {"name": "seed", "files": ["seed.jsonl"], "provenance": "generated", "counts": {"trajectories": 99}}
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)
    with pytest.raises(ValueError, match="declares 99 trajectories, files hold 3"):
        DatasetManifest.load(bad_path)


def test_star_plus_parses_each_seed_file_once(tmp_path, monkeypatch):
    from maskloop import improve
    from maskloop.cli import dispatch

    _, manifest_path, tasks, _ = _seed_manifest(tmp_path)
    task_manifest = write_task_dir(tasks, str(tmp_path / "tasks"))
    reads: dict[str, int] = {}

    def counted(path):
        reads[path] = reads.get(path, 0) + 1
        return read_jsonl(path)

    monkeypatch.setattr(improve, "read_jsonl", counted)
    argv = ["star", "--tasks", task_manifest, "--seed-data", manifest_path, "--out", str(tmp_path / "star"),
            "--mode", "star_plus", "--n-iters", "2", "--noise-flip", "0.3"]
    assert dispatch(argv) == 0
    assert reads == {str(tmp_path / "seed.jsonl"): 1}


def test_manifest_rejects_unknown_provenance():
    with pytest.raises(ValueError):
        DatasetManifest(name="x", files=(), provenance="scraped", trajectories=())


def test_manifest_paths_are_relative_to_manifest(tmp_path):
    manifest, manifest_path, _, trajs = _seed_manifest(tmp_path)
    moved = tmp_path / "nested"
    moved.mkdir()
    import shutil

    shutil.move(str(tmp_path / "seed.jsonl"), str(moved / "seed.jsonl"))
    shutil.move(manifest_path, str(moved / "seed.json"))
    assert DatasetManifest.load(str(moved / "seed.json")).trajectories == tuple(trajs)


def test_train_hook_validation():
    for command in ("train.sh", ""):
        with pytest.raises(ValueError):
            TrainHook(command)
    TrainHook("train.sh {dataset}")


def test_train_hook_runs_command(tmp_path):
    marker = tmp_path / "copied.jsonl"
    data = tmp_path / "data.jsonl"
    data.write_text("{}\n")
    hook = TrainHook(f"cp {{dataset}} {marker}")
    hook.invoke(str(data))
    assert marker.read_text() == "{}\n"


def test_train_hook_raises_on_failure(tmp_path):
    hook = TrainHook("cp {dataset} /nonexistent-dir-xyz/out")
    with pytest.raises(HookError):
        hook.invoke(str(tmp_path / "missing.jsonl"))


# --- iteration driver --------------------------------------------------------


def test_star_iteration_zero_iters_returns_seed(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path)
    final, reports = star_iteration(
        "star", ExpertPolicy(), manifest, tasks, 0, TrainHook(), OracleSegmenter(), out_dir=str(tmp_path)
    )
    assert final is manifest
    assert reports == []


def test_star_iteration_validates_inputs(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path)
    with pytest.raises(ValueError):
        star_iteration("sft", ExpertPolicy(), manifest, tasks, 1, TrainHook(), OracleSegmenter())
    with pytest.raises(ValueError):
        star_iteration("star", ExpertPolicy(), manifest, tasks, -1, TrainHook(), OracleSegmenter())


@pytest.mark.parametrize(
    "mode,n_iters,message", [("sft", 1, "unknown mode 'sft'"), ("star", -1, "n_iters must be >= 0, got -1")]
)
def test_star_options_are_one_rule_for_the_library_and_the_cli(tmp_path, capsys, mode, n_iters, message):
    from maskloop.cli import dispatch

    manifest, manifest_path, tasks, _ = _seed_manifest(tmp_path)
    for call in (
        lambda: check_star_options(mode, n_iters),
        lambda: star_iteration(mode, ExpertPolicy(), manifest, tasks, n_iters, TrainHook(), OracleSegmenter()),
    ):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message
    task_manifest = write_task_dir(tasks, str(tmp_path / "tasks"))
    argv = ["star", "--tasks", task_manifest, "--seed-data", manifest_path, "--out", str(tmp_path / "star")]
    assert dispatch([*argv, "--mode", mode, "--n-iters", str(n_iters)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_star_mode_trains_on_kept_rollouts_only(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path, n=4)
    out = tmp_path / "runs"
    final, reports = star_iteration(
        "star", ExpertPolicy(), manifest, tasks, 2, TrainHook(), OracleSegmenter(), out_dir=str(out)
    )
    assert final.provenance == "refined"
    assert len(final.trajectories) == 4  # expert solves everything
    assert len(reports) == 2
    assert (out / "iter01_refined.jsonl").exists()
    assert (out / "iter02_manifest.json").exists()
    for rep in reports:
        assert rep["n_rollouts"] == 4
        assert rep["n_failures"] == 0
        assert rep["mean_reward_refined"] == 1.0


def test_star_mode_filters_bad_rollouts(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path, n=3)
    final, reports = star_iteration(
        "star",
        BackgroundClicker(),
        manifest,
        tasks,
        1,
        TrainHook(),
        OracleSegmenter(),
        out_dir=str(tmp_path / "runs"),
    )
    assert final.trajectories == ()
    assert reports[0]["mean_reward_raw"] == 0.0
    assert reports[0]["mean_reward_refined"] == 0.0


def test_star_plus_merges_seed_and_refined(tmp_path):
    manifest, _, tasks, seed_trajs = _seed_manifest(tmp_path, n=3)
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.25, flip_prob=0.25, seed=13))
    out = tmp_path / "runs"
    final, reports = star_iteration(
        "star_plus", policy, manifest, tasks, 2, TrainHook(), OracleSegmenter(), out_dir=str(out), seed=3
    )
    assert final.provenance == "merged"
    loaded = DatasetManifest.load(str(out / "iter02_manifest.json")).trajectories
    assert loaded == final.trajectories
    assert len(loaded) == len(seed_trajs) + len(tasks)
    assert loaded[: len(seed_trajs)] == tuple(seed_trajs)
    for rep in reports:
        assert rep["mean_reward_refined"] >= rep["mean_reward_raw"]
        assert set(rep) == {
            "iteration",
            "n_rollouts",
            "n_failures",
            "n_corrections",
            "mean_reward_raw",
            "mean_reward_refined",
        }


def test_star_plus_counts_corrections(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path, n=3)
    _, reports = star_iteration(
        "star_plus",
        BackgroundClicker(),
        manifest,
        tasks,
        1,
        TrainHook(),
        OracleSegmenter(),
        out_dir=str(tmp_path / "runs"),
    )
    assert reports[0]["n_corrections"] == 3
    assert reports[0]["mean_reward_refined"] == 1.0


def test_star_plus_collects_repair_failures_per_task(tmp_path, caplog):
    manifest, _, tasks, seed_trajs = _seed_manifest(tmp_path, n=3)
    out = tmp_path / "runs"
    # BackgroundClicker never gains, so every rollout is corrected and the
    # repair calls the segmenter for the expert's clicks
    final, reports = star_iteration(
        "star_plus",
        BackgroundClicker(),
        manifest,
        tasks,
        1,
        TrainHook(),
        RepairFailingSegmenter([tasks[1].id]),
        out_dir=str(out),
    )
    assert reports[0]["n_rollouts"] == 3
    assert reports[0]["n_failures"] == 1
    assert list(reports[0]["failures"]) == [tasks[1].id]
    assert reports[0]["n_corrections"] == 2
    assert [t.task_id for t in read_jsonl(str(out / "iter01_refined.jsonl"))] == [tasks[0].id, tasks[2].id]
    assert len(final.trajectories) == len(seed_trajs) + 2
    assert f"repair failed for task {tasks[1].id}" in caplog.text


def test_star_iteration_is_reproducible(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path, n=4)
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.2, flip_prob=0.2, seed=21))
    kwargs = dict(config=EnvConfig(), tau_star=0.95, seed=17)
    _, r1 = star_iteration(
        "star_plus", policy, manifest, tasks, 2, TrainHook(), OracleSegmenter(), out_dir=str(tmp_path / "a"), **kwargs
    )
    _, r2 = star_iteration(
        "star_plus", policy, manifest, tasks, 2, TrainHook(), OracleSegmenter(), out_dir=str(tmp_path / "b"), **kwargs
    )
    assert r1 == r2
    a = (tmp_path / "a" / "iter01_train.jsonl").read_bytes()
    b = (tmp_path / "b" / "iter01_train.jsonl").read_bytes()
    assert a == b


def test_star_iteration_invokes_hook_each_iter(tmp_path):
    manifest, _, tasks, _ = _seed_manifest(tmp_path, n=2)
    log_dir = tmp_path / "hooklog"
    log_dir.mkdir()
    hook = TrainHook(f"cp {{dataset}} {log_dir}/last.jsonl")
    star_iteration(
        "star", ExpertPolicy(), manifest, tasks, 2, hook, OracleSegmenter(), out_dir=str(tmp_path / "runs")
    )
    assert (log_dir / "last.jsonl").read_bytes() == (tmp_path / "runs" / "iter02_refined.jsonl").read_bytes()
