from __future__ import annotations

import json
import os

import pytest

from maskloop.cli import dispatch
from maskloop.raster import read_pgm_mask, write_pgm
from maskloop.trajgen import read_jsonl


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def task_manifest(tmp_path, capsys):
    code, out = run(capsys, "synth", "--n", "6", "--side", "32", "--out", str(tmp_path / "tasks"))
    assert code == 0
    return out["manifest"]


def test_synth_reports_manifest_and_count(tmp_path, capsys):
    code, out = run(capsys, "synth", "--n", "5", "--side", "32", "--out", str(tmp_path / "t"))
    assert code == 0
    assert out["n_tasks"] == 5
    assert os.path.exists(out["manifest"])


def test_gen_traj_pipeline(tmp_path, capsys, task_manifest):
    traj_path = str(tmp_path / "trajs.jsonl")
    code, out = run(capsys, "gen-traj", "--tasks", task_manifest, "--out", traj_path)
    assert code == 0
    assert out["n_trajectories"] == 6
    trajs = read_jsonl(traj_path)
    assert len(trajs) == 6
    assert out["n_steps"] == sum(len(t.steps) for t in trajs)
    manifest = json.loads(open(out["manifest"]).read())
    assert manifest["provenance"] == "generated"
    assert manifest["header"]["command"] == "gen-traj"
    assert manifest["header"]["seed"] == 0


def test_unknown_subcommand_is_usage_error(capsys):
    code, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_option_is_usage_error(capsys):
    code, _ = run(capsys, "synth", "--n", "5")
    assert code == 2


def test_unreadable_tasks_path_is_runtime_error(tmp_path, capsys):
    code, _ = run(capsys, "gen-traj", "--tasks", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.jsonl"))
    assert code == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "side": 32}))
    code, out = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert code == 0
    assert out["n_tasks"] == 7
    code, out = run(capsys, "synth", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "b"))
    assert code == 0
    assert out["n_tasks"] == 4


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "sides": 32}))
    code, _ = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert code == 2


def test_rerun_produces_identical_bytes(tmp_path, capsys, task_manifest):
    traj_path = str(tmp_path / "trajs.jsonl")
    argv = ("gen-traj", "--tasks", task_manifest, "--out", traj_path, "--seed", "3")
    assert run(capsys, *argv)[0] == 0
    first = open(traj_path, "rb").read()
    first_manifest = open(traj_path + ".manifest.json", "rb").read()
    assert run(capsys, *argv)[0] == 0
    assert open(traj_path, "rb").read() == first
    assert open(traj_path + ".manifest.json", "rb").read() == first_manifest


def test_jobs_do_not_change_output(tmp_path, capsys, task_manifest):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", a, "--jobs", "1")[0] == 0
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", b, "--jobs", "3")[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    sft = {}
    for jobs in ("1", "3"):
        out_dir = tmp_path / f"sft{jobs}"
        argv = ("render-sft", "--traj", a, "--tasks", task_manifest, "--out", str(out_dir), "--jobs", jobs)
        assert run(capsys, *argv)[0] == 0
        sft[jobs] = {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    assert len(sft["1"]) > 1
    assert sft["1"] == sft["3"]


def test_star_refuses_parallel_jobs(tmp_path, capsys, task_manifest):
    seed_path = str(tmp_path / "seed.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", seed_path)[0] == 0
    code, _ = run(
        capsys, "star", "--tasks", task_manifest, "--seed-data", seed_path + ".manifest.json",
        "--out", str(tmp_path / "star"), "--jobs", "2",
    )
    assert code == 2


def test_rollout_expert_solves_everything(tmp_path, capsys, task_manifest):
    out_path = str(tmp_path / "roll.jsonl")
    code, out = run(capsys, "rollout", "--tasks", task_manifest, "--out", out_path, "--policy", "expert")
    assert code == 0
    assert out["n_failures"] == 0
    assert out["mean_final_reward"] == 1.0
    assert os.path.exists(out_path + ".manifest.json")


def test_star_command_writes_reports(tmp_path, capsys, task_manifest):
    seed_path = str(tmp_path / "seed.jsonl")
    code, out = run(capsys, "gen-traj", "--tasks", task_manifest, "--out", seed_path, "--init", "empty")
    assert code == 0
    run_dir = str(tmp_path / "star")
    code, out = run(
        capsys,
        "star",
        "--tasks", task_manifest,
        "--seed-data", seed_path + ".manifest.json",
        "--out", run_dir,
        "--n-iters", "2",
        "--noise-sigma", "0.2",
        "--noise-flip", "0.2",
    )
    assert code == 0
    assert len(out["reports"]) == 2
    for rep in out["reports"]:
        assert rep["mean_reward_refined"] >= rep["mean_reward_raw"]
    reports = json.loads(open(os.path.join(run_dir, "reports.json")).read())
    assert reports["header"]["command"] == "star"
    assert os.path.exists(os.path.join(run_dir, "iter02_manifest.json"))


def test_search_command_with_masks_out(tmp_path, capsys, task_manifest):
    results_path = str(tmp_path / "search.json")
    masks_dir = str(tmp_path / "masks")
    code, out = run(
        capsys,
        "search",
        "--tasks", task_manifest,
        "--out", results_path,
        "--masks-out", masks_dir,
        "--k", "3",
        "--policy", "expert",
        "--trace",
    )
    assert code == 0
    assert out["mean_best_reward"] == 1.0
    payload = json.loads(open(results_path).read())
    assert len(payload["results"]) == 6
    for rec in payload["results"]:
        assert rec["final_iou"] == 1.0
        assert rec["trace"]["best_reward"] == rec["best_reward"]
        assert os.path.exists(os.path.join(masks_dir, rec["task_id"] + ".pgm"))


def test_search_records_remote_failures_per_task(tmp_path, capsys, task_manifest):
    results_path = str(tmp_path / "search.json")
    code, out = run(
        capsys,
        "search",
        "--tasks", task_manifest,
        "--out", results_path,
        "--policy", "expert",
        "--segmenter", "remote",
        "--segmenter-url", "http://127.0.0.1:9",
        "--timeout", "0.2",
        "--max-retries", "0",
        "--jobs", "2",
    )
    assert code == 0
    assert out["n_tasks"] == 0
    assert out["n_failures"] == 6
    payload = json.loads(open(results_path).read())
    assert payload["results"] == []
    failures = payload["header"]["failures"]
    assert len(failures) == 6
    assert all("POST http://127.0.0.1:9/v1/segment" in msg for msg in failures.values())


def test_render_sft_command(tmp_path, capsys, task_manifest):
    traj_path = str(tmp_path / "trajs.jsonl")
    code, gen = run(capsys, "gen-traj", "--tasks", task_manifest, "--out", traj_path, "--init", "empty")
    assert code == 0
    out_dir = str(tmp_path / "sft")
    code, out = run(capsys, "render-sft", "--traj", traj_path, "--tasks", task_manifest, "--out", out_dir)
    assert code == 0
    assert out["n_samples"] == gen["n_steps"]
    lines = open(os.path.join(out_dir, "samples.jsonl")).read().splitlines()
    assert len(lines) == out["n_samples"]
    rec = json.loads(lines[0])
    assert os.path.exists(os.path.join(out_dir, rec["image_path"]))
    assert rec["target"].split(":")[0] in ("Positive point", "Negative point", "Box")


def test_eval_ciou_identical_dirs(tmp_path, capsys, task_manifest):
    from maskloop.env import load_tasks

    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for task in load_tasks(task_manifest):
        write_pgm(task.target, str(pred_dir / f"{task.id}.pgm"))
        write_pgm(task.target, str(gt_dir / f"{task.id}.pgm"))
    code, out = run(capsys, "eval", "ciou", "--pred", str(pred_dir), "--gt", str(gt_dir))
    assert code == 0
    assert out["ciou"] == 1.0
    assert out["n_pairs"] == 6


def test_eval_ciou_rejects_mismatched_file_sets(tmp_path, capsys, task_manifest):
    from maskloop.env import load_tasks

    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    tasks = load_tasks(task_manifest)
    for task in tasks:
        write_pgm(task.target, str(gt_dir / f"{task.id}.pgm"))
    write_pgm(tasks[0].target, str(pred_dir / f"{tasks[0].id}.pgm"))
    code, _ = run(capsys, "eval-ciou", "--pred", str(pred_dir), "--gt", str(gt_dir))
    assert code == 2


def test_eval_noc_with_histogram(tmp_path, capsys, task_manifest):
    hist_path = str(tmp_path / "hist.csv")
    code, out = run(
        capsys, "eval-noc", "--tasks", task_manifest, "--target-iou", "0.95", "--hist-out", hist_path
    )
    assert code == 0
    assert out["reached_fraction"] == 1.0
    assert out["n_tasks"] == 6
    lines = open(hist_path).read().splitlines()
    assert lines[0] == "click_count,frequency"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 6


def test_eval_regression_fixture(tmp_path, capsys):
    data = tmp_path / "scores.json"
    data.write_text(json.dumps({"pred": [10, 20, 30], "truth": [20, 40, 60]}))
    code, out = run(capsys, "eval", "regression", "--data", str(data))
    assert code == 0
    assert out["mae"] == pytest.approx(20.0)
    assert out["mse"] == pytest.approx(1400.0 / 3.0)
    assert out["pearson"] == pytest.approx(1.0)


def test_eval_regression_rejects_wrong_shape(tmp_path, capsys):
    data = tmp_path / "scores.json"
    data.write_text(json.dumps([1, 2, 3]))
    code, _ = run(capsys, "eval-regression", "--data", str(data))
    assert code == 2


def test_eval_filter_splits_by_score(tmp_path, capsys, task_manifest):
    from maskloop.env import load_tasks
    from maskloop.raster import BitMask

    masks_dir = tmp_path / "masks"
    masks_dir.mkdir()
    tasks = load_tasks(task_manifest)
    for i, task in enumerate(tasks):
        mask = task.target if i % 2 == 0 else BitMask.zeros(task.image.width, task.image.height)
        write_pgm(mask, str(masks_dir / f"{task.id}.pgm"))
    code, out = run(
        capsys, "eval-filter", "--tasks", task_manifest, "--masks", str(masks_dir), "--threshold", "0.5"
    )
    assert code == 0
    assert out["kept"] == [t.id for i, t in enumerate(tasks) if i % 2 == 0]
    assert out["rejected"] == [t.id for i, t in enumerate(tasks) if i % 2 == 1]


def test_masks_written_by_search_read_back_as_masks(tmp_path, capsys, task_manifest):
    masks_dir = str(tmp_path / "masks")
    code, _ = run(
        capsys,
        "search",
        "--tasks", task_manifest,
        "--out", str(tmp_path / "s.json"),
        "--masks-out", masks_dir,
        "--policy", "expert",
    )
    assert code == 0
    from maskloop.env import load_tasks

    for task in load_tasks(task_manifest):
        assert read_pgm_mask(os.path.join(masks_dir, f"{task.id}.pgm")) == task.target
