"""The benchmark's own tests; not part of the repo's tier-1 suite.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each output check must pass on real outputs and fail on a corrupted copy
(one flipped mask pixel, one altered reward, one moved click), and each
workload must complete a tiny run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks as ck  # noqa: E402
from maskloop.cli import dispatch  # noqa: E402

SIDE = 64


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(list(argv)) == 0, argv


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small copy of every output the checks read, made through the CLI."""
    d = tmp_path_factory.mktemp("bench")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        run("synth", "--n", "6", "--side", str(SIDE), "--out", "tasks", "--seed", "5")
        t = "tasks/manifest.json"
        run("gen-traj", "--tasks", t, "--out", "traj.jsonl", "--init", "mix", "--seed", "5")
        run("render-sft", "--traj", "traj.jsonl", "--tasks", t, "--out", "sft")
        run("star", "--tasks", t, "--seed-data", "traj.jsonl.manifest.json", "--out", "star",
            "--policy", "noisy_expert", "--noise-flip", "0.2", "--seed", "5")
        run("eval-noc", "--tasks", t, "--hist-out", "noc.csv")
        run("rollout", "--tasks", t, "--out", "rollout.jsonl", "--policy", "expert")
        run("search", "--tasks", t, "--out", "search.json", "--k", "3", "--max-steps", "5",
            "--segmenter", "region_grow", "--policy", "noisy_expert", "--noise-flip", "0.2",
            "--prm", "noisy", "--trace", "--masks-out", "masks", "--seed", "5")
        run("search", "--tasks", t, "--out", "osearch.json", "--k", "2", "--max-steps", "5",
            "--policy", "noisy_expert", "--trace", "--masks-out", "omasks", "--seed", "5")
    finally:
        os.chdir(cwd)
    return d


@pytest.fixture(scope="module")
def tasks(outputs):
    return ck.load_task_set(str(outputs / "tasks" / "manifest.json"))


def rle_of(mask: np.ndarray) -> dict:
    flat = mask.ravel()
    counts, value, run_len = [], False, 0
    for v in flat.tolist():
        if v == value:
            run_len += 1
        else:
            counts.append(run_len)
            value, run_len = v, 1
    counts.append(run_len)
    return {"size": list(mask.shape), "counts": counts}


def first_step(trajs):
    return next(t for t in trajs if t["steps"])["steps"][0]


# -- episodes: gen-traj and star_plus -----------------------------------------


def test_episode_checks_pass_on_real_outputs(outputs, tasks):
    traj = ck.read_trajectories(str(outputs / "traj.jsonl"))
    refined = ck.read_trajectories(str(outputs / "star" / "iter01_refined.jsonl"))
    assert ck.check_episodes(traj, tasks, expert_only=True, min_gain=0.01) == []
    assert ck.check_episodes(refined, tasks, expert_only=False, min_gain=0.0) == []


def test_episode_check_fails_on_a_flipped_mask_pixel(outputs, tasks):
    traj = ck.read_trajectories(str(outputs / "traj.jsonl"))
    st = first_step(traj)
    mask = ck.rle_to_mask(st["mask_after"])
    mask[0, 0] = ~mask[0, 0]
    st["mask_after"] = rle_of(mask)
    assert any("stored mask" in p for p in ck.check_episodes(traj, tasks, True, 0.01))


def test_episode_check_fails_on_an_altered_reward(outputs, tasks):
    traj = ck.read_trajectories(str(outputs / "traj.jsonl"))
    first_step(traj)["reward_after"] += 1e-9
    assert any("reward_after" in p for p in ck.check_episodes(traj, tasks, True, 0.01))


def test_episode_check_fails_on_a_moved_click(outputs, tasks):
    traj = ck.read_trajectories(str(outputs / "traj.jsonl"))
    action = first_step(traj)["action"]
    action["x"] = action["x"] + 1.0 / SIDE if action["x"] < 0.5 else action["x"] - 1.0 / SIDE
    assert any("expert click" in p for p in ck.check_episodes(traj, tasks, True, 0.01))


def test_star_check_fails_on_a_moved_expert_continuation_click(outputs, tasks):
    refined = ck.read_trajectories(str(outputs / "star" / "iter01_refined.jsonl"))
    # the last step of a repaired episode is an expert click when the
    # expert finished it; move it one pixel off the expert's choice
    traj = next(t for t in refined if t["steps"] and len(t["steps"]) > 1)
    action = traj["steps"][-1]["action"]
    action["y"] = action["y"] + 1.0 / SIDE if action["y"] < 0.5 else action["y"] - 1.0 / SIDE
    assert ck.check_episodes(refined, tasks, expert_only=False, min_gain=0.0) != []


# -- render-sft ---------------------------------------------------------------


def test_sft_check_fails_on_a_flipped_overlay_pixel(outputs, tasks, tmp_path):
    traj = ck.read_trajectories(str(outputs / "traj.jsonl"))
    assert ck.check_sft(str(outputs / "sft"), traj, tasks) == []
    tid = next(t["task_id"] for t in traj if t["steps"])
    sft = tmp_path / "sft"
    sft.mkdir()
    (sft / "samples.jsonl").write_bytes((outputs / "sft" / "samples.jsonl").read_bytes())
    for t in traj:
        (sft / t["task_id"]).mkdir()
        for i in range(len(t["steps"])):
            src = outputs / "sft" / t["task_id"] / f"step_{i}.ppm"
            (sft / t["task_id"] / f"step_{i}.ppm").write_bytes(src.read_bytes())
    path = sft / tid / "step_0.ppm"
    buf = bytearray(path.read_bytes())
    buf[-1] ^= 0x01
    path.write_bytes(bytes(buf))
    assert any("overlay differs" in p for p in ck.check_sft(str(sft), traj, tasks))


# -- search -------------------------------------------------------------------


def grow_segment():
    grow = ck.RegionGrow()
    return lambda tid, gray, gt, clicks: grow.segment(tid, gray, clicks)


def copy_search(outputs, tmp_path, name="search.json", masks="masks"):
    res = json.loads((outputs / name).read_text())
    (tmp_path / "m").mkdir()
    for f in os.listdir(outputs / masks):
        (tmp_path / "m" / f).write_bytes((outputs / masks / f).read_bytes())
    return res


def write_search(tmp_path, res):
    (tmp_path / "s.json").write_text(json.dumps(res))
    return str(tmp_path / "s.json"), str(tmp_path / "m")


def test_search_checks_pass_on_real_outputs(outputs, tasks):
    assert ck.check_search(str(outputs / "search.json"), str(outputs / "masks"), tasks, grow_segment()) == []
    assert ck.check_search(str(outputs / "osearch.json"), str(outputs / "omasks"), tasks,
                           lambda tid, gray, gt, c: ck.oracle(gt, c)) == []


def test_search_check_fails_on_a_flipped_mask_pixel(outputs, tasks, tmp_path):
    res = copy_search(outputs, tmp_path)
    path = tmp_path / "m" / f"{res['results'][0]['task_id']}.pgm"
    buf = bytearray(path.read_bytes())
    buf[-1] ^= 0xFF
    path.write_bytes(bytes(buf))
    problems = ck.check_search(*write_search(tmp_path, res), tasks, grow_segment())
    assert any("best mask" in p for p in problems)


def test_search_check_fails_on_an_altered_reward(outputs, tasks, tmp_path):
    res = copy_search(outputs, tmp_path)
    res["results"][0]["best_reward"] += 1e-9
    problems = ck.check_search(*write_search(tmp_path, res), tasks, grow_segment())
    assert any("best_reward" in p for p in problems)


def test_search_check_fails_on_a_moved_click(outputs, tasks, tmp_path):
    res = copy_search(outputs, tmp_path, "osearch.json", "omasks")
    rec = next(r for r in res["results"] if r["best_step"] > 0)
    step = rec["trace"]["steps"][0]
    action = step["candidates"][step["chosen"]]
    action["kind"] = "negative_click" if action["kind"] == "positive_click" else "positive_click"
    problems = ck.check_search(*write_search(tmp_path, res), tasks, lambda tid, gray, gt, c: ck.oracle(gt, c))
    assert any("best mask" in p for p in problems)


# -- eval-noc and mock parity -------------------------------------------------


def test_noc_check_fails_on_an_altered_count(outputs, tasks):
    counts = [ck.noc(gt, lambda c, gt=gt: ck.oracle(gt, c)) for _, gt in tasks.values()]
    assert ck.check_noc_hist(str(outputs / "noc.csv"), counts) == []
    counts[0] += 1
    assert ck.check_noc_hist(str(outputs / "noc.csv"), counts) != []


def test_parity_check_fails_on_a_flipped_pixel_or_reward(outputs, tasks):
    # a local expert + oracle rollout is what the mock must reproduce
    trajs = ck.read_trajectories(str(outputs / "rollout.jsonl"))
    assert ck.check_mock_parity(trajs, tasks) == []
    st = first_step(trajs)
    mask = ck.rle_to_mask(st["mask_after"])
    mask[-1, -1] = ~mask[-1, -1]
    st["mask_after"] = rle_of(mask)
    st["reward_after"] -= 1e-9
    problems = ck.check_mock_parity(trajs, tasks)
    assert any("mask differs" in p for p in problems)
    assert any("reward" in p for p in problems)


# -- smoke runs ---------------------------------------------------------------


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize(
    "workload,trace",
    [("dataset-256", 0), ("dataset-256", 1), ("search-128", 0), ("remote-64", 0), ("remote-64", 1)],
)
def test_workload_completes_a_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.strip().splitlines()[-2][:3000]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "bench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dataset-256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
