"""End-to-end acceptance checks for the whole toolkit.

Each test covers one release criterion, prints a single PASS/FAIL line
with the measured numbers, and enforces the stated tolerance and time
budget. These run the real pipelines (no mocking except the bundled
mock server, which is itself under test here).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import brute_edt_sq, embedded_edt_sq, flood_components, mask_of, rand_mask, replay_repair

from maskloop.env import Action, EnvConfig, InitSpec, Task, reset
from maskloop.errors import ActionParseError
from maskloop.expert import next_click
from maskloop.improve import refine_star_plus_verbose, rollout
from maskloop.metrics import ciou, noc, regression_metrics
from maskloop.policy import (
    COORD_DECIMAL,
    COORD_INT,
    ExpertPolicy,
    NoiseConfig,
    NoisyExpertPolicy,
    OraclePrm,
    PromptConfig,
    RemotePolicy,
    RemotePrm,
    format_action,
    parse_action,
)
from maskloop.raster import (
    BitMask,
    GrayImage,
    NormBox,
    bbox,
    box_to_mask,
    iou,
    point_to_pixel,
    read_pgm_mask,
    rle_decode,
    rle_encode,
    write_pgm,
)
from maskloop.remote import RemoteEndpoint
from maskloop.search import SearchConfig, prm_greedy
from maskloop.segmenters import (
    OracleSegmenter,
    RegionGrowSegmenter,
    RemoteSegmenter,
)
from maskloop.trajgen import (
    generate_trajectory,
    read_jsonl,
    synth_tasks,
    write_jsonl,
)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mock_factory():
    from maskloop.mock_server import serve

    servers = []

    def start(tasks, prompt_config=PromptConfig()):
        server, thread = serve(tasks, prompt_config=prompt_config)
        servers.append((server, thread))
        host, port = server.server_address
        return RemoteEndpoint(base_url=f"http://{host}:{port}", timeout=10.0)

    yield start
    for server, thread in servers:
        server.shutdown()
        thread.join(timeout=5.0)


def test_distance_transform_is_exact():
    rng = np.random.default_rng(20260825)
    t0 = time.monotonic()
    mismatches = 0
    total = 0
    for side, count in ((16, 500), (32, 100)):
        for _ in range(count):
            raw = rand_mask(rng, side, side, rng.uniform(0.2, 0.8))
            got = embedded_edt_sq(raw)
            want = brute_edt_sq(raw)
            total += 1
            mismatches += int(not np.array_equal(got, want))
    elapsed = time.monotonic() - t0
    check(
        "distance transform exactness",
        mismatches == 0 and elapsed < 10.0,
        f"{total - mismatches}/{total} masks exact, {elapsed:.1f}s (budget 10s)",
    )


def test_expert_click_rule_is_exact():
    rng = np.random.default_rng(31337)
    t0 = time.monotonic()
    bad = 0
    ties = 0
    checked = 0
    cases = []
    for _ in range(498):
        h = int(rng.integers(4, 33))
        w = int(rng.integers(4, 33))
        pred = rand_mask(rng, h, w, rng.uniform(0.1, 0.9))
        gt = rand_mask(rng, h, w, rng.uniform(0.1, 0.9))
        if rng.random() < 0.05:
            pred = gt.copy()
        cases.append((BitMask(pred), BitMask(gt)))
    # engineered extremes: a converged pair and an exact depth tie
    same = mask_of(["##", ".."])
    cases.append((same, same))
    cases.append((mask_of(["#....", "....."]), mask_of([".....", "....#"])))
    for pred, gt in cases:
        checked += 1
        action = next_click(pred, gt)
        if pred == gt:
            bad += int(action is not None)
            continue
        fn = BitMask(gt.data & ~pred.data)
        fp = BitMask(pred.data & ~gt.data)
        d_fn = brute_edt_sq(fn.data)
        d_fp = brute_edt_sq(fp.data)
        fn_max, fp_max = int(d_fn.max()), int(d_fp.max())
        want_positive = fn_max > fp_max
        ties += int(fn_max == fp_max and fn_max > 0)
        w, h = pred.width, pred.height
        px, py = point_to_pixel(action.point, w, h)
        if want_positive:
            ok = action.sign == 1 and fn.data[py, px] and d_fn[py, px] == fn_max
        else:
            ok = action.sign == -1 and fp.data[py, px] and d_fp[py, px] == fp_max
        bad += int(not ok)
    elapsed = time.monotonic() - t0
    check(
        "expert click rule",
        bad == 0 and ties > 0 and elapsed < 10.0,
        f"{checked - bad}/{checked} pairs correct ({ties} ties, all negative), {elapsed:.1f}s (budget 10s)",
    )


def test_expert_converges_in_component_count_steps():
    t0 = time.monotonic()
    tasks = synth_tasks(100, side=64, seed=404)
    solved = 0
    for task in tasks:
        traj = generate_trajectory(task, OracleSegmenter())
        budget = len(flood_components(task.target.data))
        solved += int(traj.final_reward >= 0.95 and len(traj.steps) <= budget)
    elapsed = time.monotonic() - t0
    check(
        "expert convergence",
        solved == len(tasks) and elapsed < 5.0,
        f"{solved}/{len(tasks)} tasks at reward >= 0.95 within component count, {elapsed:.1f}s (budget 5s)",
    )


def test_trajectory_invariants_and_round_trips(tmp_path):
    tasks = synth_tasks(60, side=48, seed=505)
    config = EnvConfig()
    trajectories = []
    segmenters = [OracleSegmenter(), RegionGrowSegmenter()]
    for i, task in enumerate(tasks):
        seg = segmenters[i % 2]
        if i % 3 == 0:
            init = InitSpec.empty()
        elif i % 3 == 1:
            init = InitSpec.from_box(bbox(task.target))
        else:
            init = InitSpec.from_random_clicks(1, 1, seed=i)
        traj = generate_trajectory(task, seg, config, init)
        for st in traj.steps:
            assert st.reward_after - st.reward_before >= config.tau_diff
        # the replay re-segments every step against the stored masks
        assert replay_repair(traj, task, seg, config, "tau_diff") == (traj, False)
        for st in traj.steps:
            assert rle_encode(rle_decode(st.mask_after)) == st.mask_after
        trajectories.append(traj)

    path = str(tmp_path / "accept.jsonl")
    write_jsonl(trajectories, path)
    first = open(path, "rb").read()
    loaded = read_jsonl(path)
    assert loaded == trajectories
    write_jsonl(loaded, path)
    assert open(path, "rb").read() == first

    pgm_ok = 0
    for task in tasks[:10]:
        p = str(tmp_path / f"{task.id}.pgm")
        write_pgm(task.target, p)
        pgm_ok += int(read_pgm_mask(p) == task.target)
    n_steps = sum(len(t.steps) for t in trajectories)
    check(
        "trajectory invariants",
        pgm_ok == 10,
        f"{len(trajectories)} trajectories / {n_steps} steps: gains >= tau_diff, replay + jsonl/rle/pgm round trips bit-exact",
    )


def test_rollout_repair_fixes_noisy_episodes():
    t0 = time.monotonic()
    tasks = synth_tasks(200, side=64, seed=1001)
    seg = RegionGrowSegmenter()
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.1, flip_prob=0.2, seed=7))
    raw, failures = rollout(policy, tasks, seg, seed=11)
    assert failures == {}
    by_id = {t.id: t for t in tasks}
    bad_steps = 0
    bad_subs = 0
    corrections = 0
    for traj in raw:
        task = by_id[traj.task_id]
        refined, corrected = refine_star_plus_verbose(traj, task, seg)
        corrections += int(corrected)
        prefix = 0
        while (
            prefix < len(refined.steps)
            and prefix < len(traj.steps)
            and refined.steps[prefix] == traj.steps[prefix]
        ):
            prefix += 1
        for j, st in enumerate(refined.steps):
            if st.reward_after - st.reward_before <= 0.0:
                bad_steps += 1
            if j >= prefix:
                before = (
                    reset(task, refined.init, seg).mask
                    if j == 0
                    else rle_decode(refined.steps[j - 1].mask_after)
                )
                if st.action != next_click(before, task.target):
                    bad_subs += 1
    raw_mean = float(np.mean([t.final_reward for t in raw]))
    refined_means = []
    for traj in raw:
        refined, _ = refine_star_plus_verbose(traj, by_id[traj.task_id], seg)
        refined_means.append(refined.final_reward)
    refined_mean = float(np.mean(refined_means))
    elapsed = time.monotonic() - t0
    check(
        "rollout repair",
        bad_steps == 0 and bad_subs == 0 and refined_mean >= raw_mean and elapsed < 60.0,
        f"200 rollouts, {corrections} corrected, 0 non-improving steps, substitutions exact, "
        f"mean reward {raw_mean:.3f} -> {refined_mean:.3f}, {elapsed:.1f}s (budget 60s)",
    )


def test_candidate_search_beats_fixed_greedy():
    t0 = time.monotonic()
    tasks = synth_tasks(200, side=64, seed=1001)
    seg = RegionGrowSegmenter()
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.1, flip_prob=0.2, seed=7))
    prm = OraclePrm()
    env7 = EnvConfig(max_steps=7, tau_stop=1.0, tau_diff=0.0)
    cfg1 = SearchConfig(k=1, max_steps=7, convergence_patience=7)
    cfg3 = SearchConfig(k=3, max_steps=7, convergence_patience=7)

    fixed, _ = rollout(policy, tasks, seg, env7, seed=21)
    fixed_mean = float(np.mean([t.final_reward for t in fixed]))
    k1 = [
        iou(prm_greedy(t, policy, prm, seg, cfg1, seed=21)[0], t.target) for t in tasks
    ]
    k3 = [
        iou(prm_greedy(t, policy, prm, seg, cfg3, seed=21)[0], t.target) for t in tasks
    ]
    k1_mean, k3_mean = float(np.mean(k1)), float(np.mean(k3))
    elapsed = time.monotonic() - t0
    check(
        "guided search direction",
        k3_mean >= fixed_mean + 0.02 and k1_mean >= fixed_mean and elapsed < 120.0,
        f"fixed-7 greedy {fixed_mean:.3f}, best-step k=1 {k1_mean:.3f}, k=3 {k3_mean:.3f} "
        f"(margin {100 * (k3_mean - fixed_mean):.1f} IoU pts, needs >= 2), {elapsed:.1f}s (budget 120s)",
    )


def test_search_structural_properties():
    # a box init over a rectangle-family target is already perfect
    rect = next(t for t in synth_tasks(10, side=64, seed=2) if t.prompt == "the solid rectangle")
    init = InitSpec.from_box(bbox(rect.target))
    mask, score, trace = prm_greedy(
        rect, ExpertPolicy(), OraclePrm(), OracleSegmenter(), init=init
    )
    assert mask == rect.target
    assert trace.best_step == 0 and score == 1.0

    # a deterministic policy at k=1 must reduce to the plain rollout
    env = EnvConfig(max_steps=7, tau_stop=1.0, tau_diff=0.0)
    reduced = 0
    tasks = synth_tasks(20, side=48, seed=3)
    for task in tasks:
        trajs, _ = rollout(ExpertPolicy(), [task], OracleSegmenter(), env)
        _, _, trace = prm_greedy(
            task, ExpertPolicy(), OraclePrm(), OracleSegmenter(), SearchConfig(k=1, max_steps=7)
        )
        search_actions = [st.candidates[st.chosen] for st in trace.steps]
        reduced += int(search_actions == [st.action for st in trajs[0].steps])

    # the running best never decreases, and the return is that maximum
    policy = NoisyExpertPolicy(NoiseConfig(sigma=0.3, flip_prob=0.3, seed=5))
    monotone = True
    for task in tasks:
        mask, score, trace = prm_greedy(
            task, policy, OraclePrm(), OracleSegmenter(), SearchConfig(k=3, max_steps=7), seed=9
        )
        best = trace.r0
        for st in trace.steps:
            new_best = max(best, st.scores[st.chosen])
            monotone = monotone and new_best >= best
            best = new_best
        monotone = monotone and best == score == OraclePrm().score(task, mask)
    check(
        "search structure",
        reduced == len(tasks) and monotone,
        f"perfect init returned unchanged; k=1 == plain rollout on {reduced}/{len(tasks)} tasks; running best monotone",
    )


def test_metric_fixtures():
    perfect = regression_metrics([0.1, 0.4, 0.9], [0.1, 0.4, 0.9])
    ok = (
        perfect["mae"] == 0.0
        and perfect["mse"] == 0.0
        and abs(perfect["pearson"] - 1.0) <= 1e-9
        and abs(perfect["spearman"] - 1.0) <= 1e-9
    )
    anti = regression_metrics([1.0, 2.0, 3.0], [9.0, 5.0, 1.0])
    ok = ok and abs(anti["spearman"] + 1.0) <= 1e-9
    triple = regression_metrics([10.0, 20.0, 30.0], [20.0, 40.0, 60.0])
    ok = (
        ok
        and abs(triple["mae"] - 20.0) <= 1e-9
        and abs(triple["mse"] - 1400.0 / 3.0) <= 1e-9
        and abs(triple["pearson"] - 1.0) <= 1e-9
        and abs(triple["spearman"] - 1.0) <= 1e-9
    )

    a = mask_of(["####", "####"])
    empty = BitMask.zeros(4, 2)
    ok = ok and ciou([(a, a)]) == 1.0 and ciou([(a, a), (empty, a)]) == 0.5

    noc_ok = 0
    fixtures = [
        mask_of(["###.", "###."]),
        mask_of(["#..#", "#..#"]),
        mask_of(["#.#.#"]),
    ]
    for target in fixtures:
        img = GrayImage(np.where(target.data, 220, 30).astype(np.uint8))
        task = Task(id="m", image=img, target=target, prompt="the blobs")
        k = len(flood_components(target.data))
        noc_ok += int(noc(task, OracleSegmenter(), target_iou=1.0) == (k, True))
    check(
        "metric fixtures",
        ok and noc_ok == len(fixtures),
        "regression fixtures at 1e-9, ciou hand cases exact, noc equals component count",
    )


def test_action_grammar_round_trip():
    rng = np.random.default_rng(90210)
    worst = {"general": 0.0, "top_sliver": 0.0}
    sliver_hits = 0
    n = 1000
    for _ in range(n):
        r = rng.random()
        if r < 0.45:
            action = Action.positive(rng.random(), rng.random())
        elif r < 0.9:
            action = Action.negative(rng.random(), rng.random())
        else:
            x1, y1 = rng.random() * 0.6, rng.random() * 0.6
            action = Action.box_prompt(NormBox(x1, y1, x1 + rng.random() * 0.3, y1 + rng.random() * 0.3))
        for fmt in (COORD_DECIMAL, COORD_INT):
            _, back = parse_action(format_action(action, fmt), fmt)
            if action.is_click:
                coords = [(back.point.x, action.point.x), (back.point.y, action.point.y)]
            else:
                coords = [
                    (back.box.x1, action.box.x1),
                    (back.box.y1, action.box.y1),
                    (back.box.x2, action.box.x2),
                    (back.box.y2, action.box.y2),
                ]
            for got, want in coords:
                err = abs(got - want)
                if want > 0.9995:
                    # both formats clamp the final half-step to 0.999, so
                    # the error there can legitimately reach 1e-3
                    sliver_hits += 1
                    worst["top_sliver"] = max(worst["top_sliver"], err)
                    assert err <= 0.001 + 1e-12
                else:
                    worst["general"] = max(worst["general"], err)
                    assert err <= 0.0005 + 1e-12

    stated, action = parse_action("Positive point: (175,483)", COORD_INT)
    literal_ok = (
        stated is None
        and action.sign == 1
        and action.point.x == 0.175
        and action.point.y == 0.483
    )
    check(
        "action grammar",
        literal_ok,
        f"{n} actions x 2 formats round trip, max err {worst['general']:.2e} "
        f"(<= 5e-4/axis; {sliver_hits} draws in the clamped top half-step, max {worst['top_sliver']:.2e} <= 1e-3); "
        "integer literal parses exactly",
    )


def test_render_ablations_do_not_change_outcomes(mock_factory):
    tasks = synth_tasks(16, side=64, seed=77)

    def run_remote(prompt_config):
        endpoint = mock_factory(tasks, prompt_config)
        policy = RemotePolicy(endpoint, prompt_config)
        seg = RemoteSegmenter(endpoint)
        trajs, failures = rollout(policy, tasks, seg)
        assert failures == {}
        return trajs

    green = run_remote(PromptConfig(mask_color=(0, 255, 0)))
    red = run_remote(PromptConfig(mask_color=(255, 0, 64)))
    color_same = green == red

    decimal = run_remote(PromptConfig(coord_format=COORD_DECIMAL))
    integer = run_remote(PromptConfig(coord_format=COORD_INT))
    max_iou_diff = 0.0
    pixel_shift_ok = True
    for td, ti in zip(decimal, integer):
        max_iou_diff = max(max_iou_diff, abs(td.final_reward - ti.final_reward))
        for sd, si in zip(td.steps, ti.steps):
            pd = point_to_pixel(sd.action.point, 64, 64)
            pi = point_to_pixel(si.action.point, 64, 64)
            if abs(pd[0] - pi[0]) > 1 or abs(pd[1] - pi[1]) > 1:
                pixel_shift_ok = False
    check(
        "render ablations",
        color_same and pixel_shift_ok and max_iou_diff <= 1e-12,
        f"mask-color change: trajectories bit-identical over {len(tasks)} tasks; "
        f"coordinate formats: clicks within 1px, max final IoU diff {max_iou_diff:.1e}",
    )


def test_mock_service_matches_local_oracles(mock_factory):
    t0 = time.monotonic()
    tasks = synth_tasks(50, side=64, seed=88)
    endpoint = mock_factory(tasks)
    policy = RemotePolicy(endpoint)
    seg = RemoteSegmenter(endpoint)
    prm = RemotePrm(endpoint)

    remote_trajs, failures = rollout(policy, tasks, seg)
    assert failures == {}
    by_id = {t.id: t for t in tasks}
    mask_mismatches = 0
    prm_worst = 0.0
    episodes = 0
    for traj in remote_trajs:
        task = by_id[traj.task_id]
        episodes += 1
        local = generate_trajectory(task, OracleSegmenter())
        if len(local.steps) != len(traj.steps):
            mask_mismatches += 1
            continue
        for sr, sl in zip(traj.steps, local.steps):
            if rle_decode(sr.mask_after) != rle_decode(sl.mask_after):
                mask_mismatches += 1
        for st in traj.steps:
            mask = rle_decode(st.mask_after)
            prm_worst = max(prm_worst, abs(prm.score(task, mask) - iou(mask, task.target)))
    elapsed = time.monotonic() - t0
    check(
        "mock service parity",
        mask_mismatches == 0 and prm_worst <= 0.005 + 1e-12 and elapsed < 30.0,
        f"{episodes} remote episodes bit-match the local oracle; PRM max error {prm_worst:.4f} <= 0.005, "
        f"{elapsed:.1f}s (budget 30s)",
    )
