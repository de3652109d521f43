from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from maskloop import mock_server
from maskloop.cli import COMMANDS, DEFAULTS, _add_opts, _merge_config, _Options, build_parser, dispatch
from maskloop.env import load_tasks, write_task_dir
from maskloop.raster import GREEN, BitMask, read_pgm_mask, read_ppm, render_overlay, rle_decode, write_pgm
from maskloop.policy import PromptConfig
from maskloop.trajgen import read_jsonl, render_sft, synth_tasks


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
    # the manifest names its file by absolute path, so compare it at one path
    manifest = {}
    for jobs in ("1", "3"):
        assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", a, "--jobs", jobs)[0] == 0
        manifest[jobs] = (tmp_path / "a.jsonl.manifest.json").read_bytes()
    assert manifest["1"] == manifest["3"]
    sft = {}
    for jobs in ("1", "3"):
        out_dir = tmp_path / f"sft{jobs}"
        argv = ("render-sft", "--traj", a, "--tasks", task_manifest, "--out", str(out_dir), "--jobs", jobs)
        assert run(capsys, *argv)[0] == 0
        sft[jobs] = {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    assert len(sft["1"]) > 1
    assert sft["1"] == sft["3"]
    roll = {}
    for jobs in ("1", "3"):
        path = tmp_path / f"roll{jobs}.jsonl"
        argv = ("rollout", "--tasks", task_manifest, "--out", str(path), "--jobs", jobs,
                "--policy", "noisy_expert", "--noise-flip", "0.3", "--init", "mix:0.34,0.33,0.33")
        assert run(capsys, *argv)[0] == 0
        roll[jobs] = path.read_bytes()
    assert roll["1"] == roll["3"]
    assert len({t.init.variant for t in read_jsonl(str(tmp_path / "roll1.jsonl"))}) > 1


def test_star_jobs_do_not_change_output(tmp_path, capsys, task_manifest):
    seed_path = str(tmp_path / "seed.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", seed_path)[0] == 0
    files, reports = {}, {}
    out_dir = tmp_path / "star"
    for jobs in ("1", "3"):
        code, out = run(
            capsys, "star", "--tasks", task_manifest, "--seed-data", seed_path + ".manifest.json",
            "--out", str(out_dir), "--n-iters", "2", "--noise-sigma", "0.1", "--noise-flip", "0.3",
            "--jobs", jobs,
        )
        assert code == 0
        files[jobs] = {p.name: p.read_bytes() for p in out_dir.glob("iter*")}
        reports[jobs] = (out_dir / "reports.json").read_bytes()
        assert out["reports"] == json.loads(reports[jobs])["reports"]
    assert sorted(files["1"]) == [
        f"iter0{i}_{kind}" for i in (1, 2) for kind in ("manifest.json", "refined.jsonl", "train.jsonl")
    ]
    assert files["1"] == files["3"]
    assert reports["1"] == reports["3"]
    assert sum(r["n_corrections"] for r in json.loads(reports["1"])["reports"]) > 0


def test_runs_into_two_directories_write_the_same_bytes(tmp_path, capsys, task_manifest):
    # output paths stay out of config_hash (input paths are still hashed,
    # so both runs read the same files)
    seed_data = str(tmp_path / "seed.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", seed_data)[0] == 0
    trees = []
    for name in ("a", "b"):
        d = tmp_path / name
        for argv in (
            ["synth", "--n", "4", "--side", "32", "--out", str(d / "tasks")],
            ["gen-traj", "--tasks", task_manifest, "--out", str(d / "g.jsonl")],
            ["rollout", "--tasks", task_manifest, "--out", str(d / "r.jsonl"), "--policy", "noisy_expert",
             "--noise-flip", "0.3"],
            ["star", "--tasks", task_manifest, "--seed-data", seed_data + ".manifest.json", "--out", str(d / "star"),
             "--noise-flip", "0.3", "--n-iters", "2"],
            ["search", "--tasks", task_manifest, "--out", str(d / "s.json"), "--masks-out", str(d / "masks"),
             "--k", "2"],
        ):
            assert run(capsys, *argv)[0] == 0
        trees.append({str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*") if p.is_file()})
    assert trees[0] == trees[1]
    headers = {"tasks/manifest.json", "g.jsonl.manifest.json", "r.jsonl.manifest.json", "star/reports.json", "s.json"}
    assert headers <= set(trees[0])


def test_unknown_init_name_is_usage_error(tmp_path, capsys, task_manifest):
    # names compare exactly: no prefix of a name, and no arguments to empty or box
    for init in ("mixture", "randomly", "box:1"):
        argv = ["gen-traj", "--tasks", task_manifest, "--out", str(tmp_path / "t.jsonl"), "--init", init]
        assert dispatch(argv) == 2
        assert repr(init) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-traj", "rollout", "search"])
@pytest.mark.parametrize(
    "init",
    [
        ["--init", "mix:nan,0.5,0.5"],
        ["--init", "mix:inf,-inf,1"],
        ["--init", "mix:1.5,-0.5,0"],
        ["--init", "mix:0.5,0.5"],
        ["--init", "random:0,0"],
        ["--init", "random:-1,2"],
        ["--init", "random:1"],
        ["--init", "random", "--init-n-pos", "0", "--init-n-neg", "0"],
        ["--init", "mix", "--init-n-pos", "-1"],
    ],
    ids=" ".join,
)
def test_bad_init_is_usage_error_before_any_output(tmp_path, capsys, task_manifest, command, init):
    out = tmp_path / "new" / "out.json"
    argv = [command, "--tasks", task_manifest, "--out", str(out), *init]
    if command == "search":
        argv += ["--masks-out", str(tmp_path / "masks")]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad init {init[1]!r}" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tasks"]


_URL = "http://127.0.0.1:9"  # never contacted: every case fails before any request


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--n", "0"],
        ["synth", "--side", "8"],
        ["gen-traj", "--max-steps", "0"],
        ["gen-traj", "--tau-stop", "7"],
        ["gen-traj", "--tau-diff", "5"],
        ["gen-traj", "--r-neg", "-1"],
        ["gen-traj", "--segmenter", "region_grow", "--delta", "300"],
        ["gen-traj", "--segmenter", "region_grow", "--cap", "0"],
        ["gen-traj", "--segmenter", "remote", "--segmenter-url", "ftp://host"],
        ["render-sft", "--alpha", "2"],
        ["render-sft", "--coord-format", "polar"],
        ["render-sft", "--template", "bogus"],
        ["rollout", "--max-steps", "0"],
        ["rollout", "--tau-stop", "7"],
        ["rollout", "--policy", "noisy_expert", "--noise-sigma", "-1"],
        ["rollout", "--policy", "noisy_expert", "--noise-flip", "2"],
        ["rollout", "--policy", "remote", "--policy-url", _URL, "--timeout", "0"],
        ["rollout", "--policy", "remote", "--policy-url", _URL, "--max-retries", "-1"],
        ["rollout", "--policy", "remote", "--policy-url", _URL, "--coord-format", "polar"],
        ["star", "--mode", "star", "--tau-star", "7"],
        ["star", "--mode", "bogus"],
        ["star", "--hook-cmd", "echo"],
        ["star", "--tau-diff", "5"],
        ["star", "--keep-rule", "bogus"],
        ["star", "--n-iters", "-1"],
        ["search", "--k", "0"],
        ["search", "--eps", "-1"],
        ["search", "--patience", "0"],
        ["search", "--max-steps", "0"],
        ["search", "--prm", "noisy", "--prm-sigma", "-1"],
        ["search", "--prm", "remote", "--prm-url", _URL, "--alpha", "2"],
        ["search", "--prm", "remote", "--prm-url", _URL, "--template", "bogus"],
        ["eval-noc", "--target-iou", "0"],
        ["eval-noc", "--cap-clicks", "0"],
        ["eval-filter", "--threshold", "2"],
        ["serve-mock", "--alpha", "2"],
        ["serve-mock", "--port", "-5"],
        ["serve-mock", "--port", "70000"],
        ["serve-mock", "--r-neg", "-1"],
    ],
    ids=" ".join,
)
def test_a_bad_option_value_is_a_usage_error_before_any_file(tmp_path, capsys, task_manifest, argv):
    new = tmp_path / "new"
    files = {  # each command's required options; no input but the tasks exists
        "synth": ["--out", new / "tasks"],
        "gen-traj": ["--tasks", task_manifest, "--out", new / "t.jsonl"],
        "render-sft": ["--traj", tmp_path / "t.jsonl", "--tasks", task_manifest, "--out", new / "sft"],
        "rollout": ["--tasks", task_manifest, "--out", new / "r.jsonl"],
        "star": ["--tasks", task_manifest, "--seed-data", tmp_path / "seed.json", "--out", new / "star"],
        "search": ["--tasks", task_manifest, "--out", new / "s.json", "--masks-out", new / "masks"],
        "eval-noc": ["--tasks", task_manifest, "--hist-out", new / "noc.csv"],
        "eval-filter": ["--tasks", task_manifest, "--masks", tmp_path / "masks"],
        "serve-mock": ["--tasks", task_manifest, "--port", "0"],
    }[argv[0]]
    # the bad value comes last, so it overrides a required option's value
    assert dispatch([argv[0], *map(str, files), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), lines
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tasks"]


def test_render_sft_gives_each_repeat_of_a_task_its_own_images(tmp_path, capsys):
    # task "a" is listed twice (two starts) beside a task whose id is "a__1"
    disk, *_, scatter = synth_tasks(5, side=32, seed=5)
    tasks = [replace(scatter, id="a"), replace(disk, id="a__1")]
    manifest = write_task_dir(tasks, str(tmp_path / "tasks"))
    parts = []
    for name, task_id, init in [("empty", "a", "empty"), ("random", "a", "random:1,0"), ("other", "a__1", "empty")]:
        path = str(tmp_path / f"{name}.jsonl")
        assert run(capsys, "gen-traj", "--tasks", manifest, "--out", path, "--init", init)[0] == 0
        parts += [line for line in open(path) if json.loads(line)["task_id"] == task_id]
    traj = tmp_path / "traj.jsonl"
    traj.write_text("".join(parts))
    out = tmp_path / "sft"
    assert run(capsys, "render-sft", "--traj", str(traj), "--tasks", manifest, "--out", str(out))[0] == 0
    records = [json.loads(line) for line in open(out / "samples.jsonl")]
    by_id = {t.id: t for t in tasks}
    expected = [s for t in read_jsonl(str(traj)) for s in render_sft(t, by_id[t.task_id], PromptConfig())]
    assert len(records) == len(expected) == 4
    assert expected[0].image != expected[2].image  # the two starts of "a" differ
    assert len({rec["image_path"] for rec in records}) == len(records)
    for rec, sample in zip(records, expected):
        assert read_ppm(str(out / rec["image_path"])) == sample.image


def test_render_sft_refuses_a_repeated_task_id(tmp_path, capsys, task_manifest):
    traj = str(tmp_path / "t.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", traj, "--init", "empty")[0] == 0
    with open(task_manifest) as fh:
        data = json.load(fh)
    data["tasks"][1]["id"] = data["tasks"][0]["id"]
    with open(task_manifest, "w") as fh:
        json.dump(data, fh)
    out = tmp_path / "sft"
    assert dispatch(["render-sft", "--traj", traj, "--tasks", task_manifest, "--out", str(out)]) == 1
    assert "listed more than once" in capsys.readouterr().err
    assert not out.exists()


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


_UNREACHABLE = ["--timeout", "0.2", "--max-retries", "0"]
_NO_SEGMENTER = ["--segmenter", "remote", "--segmenter-url", "http://127.0.0.1:9", *_UNREACHABLE]


def _header_failures(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["header"]["failures"]


@pytest.mark.parametrize(
    "argv, failures_of",
    [
        (["gen-traj", "--out", "{d}/g.jsonl", *_NO_SEGMENTER], lambda out, d: _header_failures(f"{d}/g.jsonl.manifest.json")),
        (["rollout", "--out", "{d}/r.jsonl", *_NO_SEGMENTER], lambda out, d: _header_failures(f"{d}/r.jsonl.manifest.json")),
        (["eval-noc", *_NO_SEGMENTER], lambda out, d: out["failures"]),
        (["search", "--out", "{d}/s.json", *_NO_SEGMENTER], lambda out, d: _header_failures(f"{d}/s.json")),
        (["star", "--mode", "star", "--seed-data", "{seed}", "--out", "{d}/star", *_NO_SEGMENTER], lambda out, d: out["reports"][0]["failures"]),
        (["star", "--mode", "star_plus", "--seed-data", "{seed}", "--out", "{d}/star", *_NO_SEGMENTER], lambda out, d: out["reports"][0]["failures"]),
        (["eval-filter", "--masks", "{masks}", "--prm", "remote", "--prm-url", "http://127.0.0.1:9", *_UNREACHABLE], lambda out, d: out["failures"]),
    ],
    ids=["gen-traj", "rollout", "eval-noc", "search", "star", "star_plus", "eval-filter"],
)
def test_every_command_that_runs_tasks_names_each_task_whose_remote_call_fails(
    tmp_path, capsys, task_manifest, argv, failures_of
):
    seed = str(tmp_path / "seed.jsonl")
    if "{seed}" in argv:
        assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", seed)[0] == 0
    where = {"d": str(tmp_path), "seed": seed + ".manifest.json", "masks": str(tmp_path / "tasks" / "targets")}
    code, out = run(capsys, argv[0], "--tasks", task_manifest, *(arg.format(**where) for arg in argv[1:]))
    assert code == 0
    failures = failures_of(out, str(tmp_path))
    assert sorted(failures) == sorted(task.id for task in load_tasks(task_manifest))
    assert all("POST http://127.0.0.1:9/v1/" in msg for msg in failures.values())


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


def test_render_sft_renders_a_random_init_from_its_record(tmp_path, capsys, task_manifest):
    # region grow opens on other masks than the oracle would; render-sft
    # takes no segmenter and draws the masks the record holds
    traj_path = str(tmp_path / "trajs.jsonl")
    argv = ["--tasks", task_manifest, "--out", traj_path, "--init", "random:1,1", "--segmenter", "region_grow"]
    assert run(capsys, "gen-traj", *argv)[0] == 0
    out_dir = tmp_path / "sft"
    code, out = run(capsys, "render-sft", "--traj", traj_path, "--tasks", task_manifest, "--out", str(out_dir))
    assert code == 0
    tasks = {t.id: t for t in load_tasks(task_manifest)}
    trajs = [t for t in read_jsonl(traj_path) if t.steps]
    assert trajs and out["n_samples"] == sum(len(t.steps) for t in trajs)
    for traj in trajs:
        task = tasks[traj.task_id]
        first = read_ppm(str(out_dir / traj.task_id / "step_0.ppm"))
        assert first == render_overlay(task.image, rle_decode(traj.opening_mask), GREEN, 0.5)


@pytest.mark.parametrize("init", ["random:1,1", "empty"])
def test_render_sft_refuses_a_record_whose_opening_mask_does_not_fit_its_init(tmp_path, capsys, task_manifest, init):
    traj_path = tmp_path / "trajs.jsonl"
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", str(traj_path), "--init", init)[0] == 0
    records = [json.loads(line) for line in traj_path.read_text().splitlines()]
    if init == "empty":  # a record that carries an opening mask its init does not make
        records[2] = {"task_id": records[2]["task_id"], "init": records[2]["init"],
                      "opening_mask": records[2]["steps"][0]["mask_after"], **records[2]}
    else:  # a random-init record written without its opening mask
        del records[2]["opening_mask"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "sft"
    assert dispatch(["render-sft", "--traj", str(bad), "--tasks", task_manifest, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: line 3: invalid trajectory record: opening_mask: " in err, err
    assert not out.exists()


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
    # a bad data file is a runtime failure, whether or not it decodes
    data = tmp_path / "scores.json"
    data.write_text(json.dumps([1, 2, 3]))
    assert dispatch(["eval-regression", "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"error: {data}: expected an object, got [1, 2, 3]\n"


@pytest.mark.parametrize("content", ['{"pred": [0.1, }', "[" * 100_000 + "]" * 100_000], ids=["invalid", "too-deep"])
@pytest.mark.parametrize("reader", ["config", "tasks", "seed-data", "data"])
def test_a_json_file_that_does_not_decode_is_named(tmp_path, capsys, task_manifest, reader, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    traj = str(tmp_path / "t.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", traj, "--init", "empty")[0] == 0
    argv = {
        "config": ["synth", "--out", str(tmp_path / "s"), "--config", str(bad)],
        "tasks": ["eval-noc", "--tasks", str(bad)],
        "seed-data": ["star", "--tasks", task_manifest, "--seed-data", str(bad), "--out", str(tmp_path / "star")],
        "data": ["eval-regression", "--data", str(bad)],
    }[reader]
    code = dispatch(argv)
    err = capsys.readouterr().err
    # a config file is part of the invocation; the other files are data
    assert code == (2 if reader == "config" else 1)
    prefix = "usage error" if reader == "config" else "error"
    assert err.startswith(f"{prefix}: {bad}: invalid JSON: "), err


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


# --- parser: one command's flags only -----------------------------------------


def _full_tree() -> argparse.ArgumentParser:
    """The reference: every command as a subparser of `maskloop`, each with
    all its flags, which every dispatch used to build."""
    parser = argparse.ArgumentParser(prog="maskloop", description="Click-driven mask annotation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        _add_opts(sub.add_parser(name, help=cmd.help), DEFAULTS[name])
    return parser


def _full_argv(command: str, config_path: str) -> list[str]:
    """Every flag of the command, each set to a value other than its default."""
    argv = [command]
    for key, default in DEFAULTS[command].items():
        flag = "--" + key.replace("_", "-")
        if key == "config":
            argv += [flag, config_path]
        elif isinstance(default, bool):
            argv.append(flag)
        elif isinstance(default, int):
            argv += [flag, str(default + 3)]
        elif isinstance(default, float):
            argv += [flag, repr(default + 0.25)]
        else:
            argv += [flag, f"value-of-{key}"]
    return argv


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_per_command_parser_gives_the_full_parsers_config(tmp_path, command):
    config_path = str(tmp_path / "cfg.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write("{}")
    argv = _full_argv(command, config_path)
    full = _merge_config(_full_tree().parse_args(argv), DEFAULTS[command])
    own = _merge_config(build_parser(command).parse_args(argv[1:]), DEFAULTS[command])
    assert own == full
    assert all(full[key] != default for key, default in DEFAULTS[command].items())


def _first_typed_flag(command: str) -> str | None:
    """The flag of the command's first integer or real option."""
    for key, default in DEFAULTS[command].items():
        if isinstance(default, (int, float)) and not isinstance(default, bool):
            return "--" + key.replace("_", "-")
    return None


_HELP_AND_ERRORS = (
    [["--help"], ["frobnicate"], []]
    + [[command, "--help"] for command in sorted(DEFAULTS)]
    # a bad typed value, and a command after an unknown top-level option
    + [[command, flag, "x"] for command in sorted(DEFAULTS) if (flag := _first_typed_flag(command))]
    + [["--frobnicate", "synth", "--help"], ["--frobnicate", "synth", "--seed", "1"], ["-h", "synth"], ["eval"]]
)


@pytest.mark.parametrize("argv", _HELP_AND_ERRORS)
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as e:
        _full_tree().parse_args(argv)
    full = capsys.readouterr()
    assert dispatch(argv) == e.value.code
    assert capsys.readouterr() == full
    assert full.out if "--help" in argv or "-h" in argv else full.err


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_an_unrecognized_flag_shows_the_commands_own_usage(capsys, command):
    assert dispatch([command, "--frobnicate", "1"]) == 2
    err = capsys.readouterr().err
    usage = build_parser(command).format_usage()
    assert usage.startswith(f"usage: maskloop {command} [-h]")
    assert err == usage + f"maskloop {command}: error: unrecognized arguments: --frobnicate 1\n"


def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    data = tmp_path / "scores.json"
    data.write_text(json.dumps({"pred": [1, 2], "truth": [1, 3]}))
    assert dispatch(["eval", "regression", "--data", str(data)]) == 0
    assert built == ["maskloop eval-regression"]
    capsys.readouterr()


# --- each command takes exactly the options it reads --------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small task set with the inputs every command needs, and the mock serving it."""
    root = tmp_path_factory.mktemp("served")
    tasks = synth_tasks(4, side=32, seed=1)
    manifest = write_task_dir(tasks, str(root / "tasks"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["gen-traj", "--tasks", manifest, "--out", str(root / "traj.jsonl"), "--init", "random"]) == 0
    _write_masks(root / "masks", tasks)
    (root / "scores.json").write_text(json.dumps({"pred": [1, 2, 4], "truth": [1, 3, 2]}))
    server, thread = mock_server.serve(tasks)
    url = "http://%s:%d" % server.server_address[:2]
    yield root, manifest, url
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


def _write_masks(directory, tasks) -> None:
    """The target for even task positions (IoU 1), an empty mask for odd (IoU 0)."""
    directory.mkdir(exist_ok=True)
    for i, task in enumerate(tasks):
        mask = task.target if i % 2 == 0 else BitMask.zeros(task.image.width, task.image.height)
        write_pgm(mask, str(directory / f"{task.id}.pgm"))


def _variants(command: str, root, t: str, url: str) -> list[list[str]]:
    """Argument lists that between them take every code path reading options."""
    segs = [[], ["--segmenter", "region_grow"], ["--segmenter", "remote", "--segmenter-url", url]]
    o = str(root / "out" / command)
    traj, masks = str(root / "traj.jsonl"), str(root / "masks")
    return {
        "synth": [["--out", o]],
        "gen-traj": [["--tasks", t, "--out", o, *v] for v in segs + [["--init", "random"]]],
        "render-sft": [["--traj", traj, "--tasks", t, "--out", o]],
        "rollout": [
            ["--tasks", t, "--out", o, *v]
            for v in segs + [["--policy", "noisy_expert", "--init", "random"], ["--policy", "remote", "--policy-url", url]]
        ],
        "star": [
            ["--tasks", t, "--seed-data", traj + ".manifest.json", "--out", o, *v]
            for v in segs + [["--policy", "remote", "--policy-url", url], ["--mode", "star"]]
        ],
        "search": [
            ["--tasks", t, "--out", o, *v]
            for v in segs + [
                ["--policy", "noisy_expert", "--prm", "noisy", "--init", "random"],
                ["--policy", "remote", "--policy-url", url, "--prm", "remote", "--prm-url", url],
            ]
        ],
        "eval-ciou": [["--pred", masks, "--gt", masks]],
        "eval-noc": [["--tasks", t, *v] for v in segs],
        "eval-regression": [["--data", str(root / "scores.json")]],
        "eval-filter": [
            ["--tasks", t, "--masks", masks, *v]
            for v in ([], ["--prm", "noisy"], ["--prm", "remote", "--prm-url", url])
        ],
        "serve-mock": [["--tasks", t, "--port", "0"]],
    }[command]


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_every_option_of_a_command_is_read(served, capsys, monkeypatch, command):
    root, t, url = served
    (root / "out").mkdir(exist_ok=True)

    class _Idle:
        server_address = ("127.0.0.1", 0)

        def join(self):
            pass

    monkeypatch.setattr(mock_server, "serve", lambda *a, **kw: (_Idle(), _Idle()))
    read: set[str] = set()
    for argv in _variants(command, root, t, url):
        cfg = _Options(_merge_config(build_parser(command).parse_args(argv), DEFAULTS[command]))
        COMMANDS[command].run(cfg)
        read |= cfg.read
    capsys.readouterr()
    assert sorted(set(DEFAULTS[command]) - {"config"} - read) == []


REMOVED_FLAGS = [
    ("synth", "--jobs"),
    ("render-sft", "--seed"),
    ("render-sft", "--segmenter"),
    ("render-sft", "--r-neg"),
    ("render-sft", "--delta"),
    ("render-sft", "--cap"),
    ("render-sft", "--segmenter-url"),
    ("render-sft", "--timeout"),
    ("render-sft", "--max-retries"),
    ("rollout", "--tau-diff"),
    ("rollout", "--miou-line"),
    ("star", "--miou-line"),
    ("search", "--tau-stop"),
    ("search", "--tau-diff"),
    ("search", "--miou-line"),
    ("eval-ciou", "--seed"),
    ("eval-ciou", "--jobs"),
    ("eval-noc", "--seed"),
    ("eval-regression", "--seed"),
    ("eval-regression", "--jobs"),
    ("eval-filter", "--seed"),
    ("eval-filter", "--jobs"),
    ("serve-mock", "--seed"),
    ("serve-mock", "--jobs"),
    ("serve-mock", "--template"),
    ("serve-mock", "--miou-line"),
]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, command, flag):
    value = [] if flag == "--miou-line" else ["1"]
    assert dispatch([command, flag, *value]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert flag[2:].replace("-", "_") not in DEFAULTS[command]


def test_eval_filter_with_remote_prm_matches_oracle(served, tmp_path, capsys):
    _, t, url = served
    _write_masks(tmp_path / "masks", load_tasks(t))
    argv = ["eval-filter", "--tasks", t, "--masks", str(tmp_path / "masks")]
    code, oracle = run(capsys, *argv, "--prm", "oracle")
    assert code == 0
    code, remote = run(capsys, *argv, "--prm", "remote", "--prm-url", url, "--timeout", "5", "--max-retries", "0")
    assert code == 0
    assert remote == oracle
    assert len(oracle["kept"]) == 2 and len(oracle["rejected"]) == 2


def test_a_remote_rollout_in_another_overlay_style_names_both_styles(served, tmp_path, capsys, caplog):
    _, t, url = served
    out = str(tmp_path / "rollout.jsonl")
    remote = ["--policy", "remote", "--policy-url", url, "--segmenter", "remote", "--segmenter-url", url]
    code, reply = run(capsys, "rollout", "--tasks", t, "--out", out, *remote, "--alpha", "0.4", "--max-retries", "0")
    assert code == 0
    assert reply["n_trajectories"] == 0 and reply["n_failures"] == 4
    named = "overlay style mask_color [0, 255, 0], alpha 0.4 is not this server's: mask_color [0, 255, 0], alpha 0.5"
    with open(reply["manifest"], encoding="utf-8") as fh:
        failures = json.load(fh)["header"]["failures"]
    assert len(failures) == 4 and all("/v1/act -> 400" in m and named in m for m in failures.values())
    assert caplog.text.count(named) == 4  # each failed task is logged


# run in a fresh interpreter with a scratch directory as argv[1]: which of
# the deferred modules each stage has loaded
_DEFERRED_IMPORTS = """
import contextlib, io, json, os, sys
deferred = ("scipy.ndimage", "maskloop.mock_server")
seen = {}
import maskloop
seen["import maskloop"] = sorted(n for n in sys.modules if n.startswith("maskloop."))
from maskloop.cli import dispatch
seen["import maskloop.cli"] = [n for n in deferred if n in sys.modules]
d = sys.argv[1]
tasks = os.path.join(d, "tasks")
with open(os.path.join(d, "regression.json"), "w") as fh:
    json.dump({"pred": [0.1, 0.5, 0.9], "truth": [0.2, 0.4, 0.8]}, fh)
runs = {
    "synth, eval-ciou, eval-regression": [
        ["synth", "--n", "3", "--side", "32", "--out", tasks],
        ["eval-ciou", "--pred", os.path.join(tasks, "targets"), "--gt", os.path.join(tasks, "targets")],
        ["eval-regression", "--data", os.path.join(d, "regression.json")],
    ],
    "gen-traj": [["gen-traj", "--tasks", os.path.join(tasks, "manifest.json"), "--out", os.path.join(d, "t.jsonl")]],
}
for stage, argvs in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(dispatch(argv) == 0 for argv in argvs)
    seen[stage] = [n for n in deferred if n in sys.modules]
print(json.dumps(seen))
"""


def test_importing_the_cli_leaves_the_mock_server_out(tmp_path):
    # the package root imports no submodule, scipy.ndimage loads with the
    # first command that computes a distance transform or labels, and only
    # serve-mock loads the mock server
    src = os.path.dirname(os.path.dirname(os.path.abspath(mock_server.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", _DEFERRED_IMPORTS, str(tmp_path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "import maskloop": [],
        "import maskloop.cli": [],
        "synth, eval-ciou, eval-regression": [],
        "gen-traj": ["scipy.ndimage"],
    }


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("render-sft", "miou_line", "false"),  # bool keys take a JSON bool
        ("synth", "n", True),  # int keys take an int, not a bool
        ("synth", "n", 5.0),
        ("rollout", "timeout", "10"),  # float keys take an int or a float
        ("rollout", "alpha", False),
        ("gen-traj", "out", 5),  # string keys take a string
        ("gen-traj", "init", ["empty"]),
        ("rollout", "policy_url", None),  # so do keys without a default
        ("render-sft", "mask_color", [0, 255]),  # mask_color takes R,G,B
        ("render-sft", "mask_color", "0,255,green"),
        ("render-sft", "mask_color", None),
        ("render-sft", "mask_color", "red"),  # and each channel is in [0, 255]
        ("render-sft", "mask_color", "300,0,0"),
        ("render-sft", "mask_color", [0, 0, 256]),
        ("search", "mask_color", "0,-1,0"),
    ],
)
def test_config_file_values_must_have_the_flags_type(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert dispatch([command, "--config", str(cfg)]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render-sft", "rollout", "search", "serve-mock"])
@pytest.mark.parametrize("value", ["red", "300,0,0", "0,255", "0,-1,0"])
def test_bad_mask_color_flags_are_usage_errors(capsys, command, value):
    # checked by the same rule as a config-file value, whether or not the
    # run would render an overlay
    assert dispatch([command, "--mask-color", value]) == 2
    assert "'mask_color'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-traj", "--out", "g.jsonl"],
        ["rollout", "--out", "r.jsonl"],
        ["search", "--out", "s.json"],
        ["eval-noc", "--hist-out", "h.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_create_the_directory_of_each_output_file(tmp_path, capsys, task_manifest, argv):
    command, flag, name = argv
    path = tmp_path / "not" / "yet" / name
    assert run(capsys, command, "--tasks", task_manifest, flag, str(path))[0] == 0
    assert path.is_file()


def test_config_file_values_are_typed_like_flags(tmp_path, capsys, task_manifest):
    traj = str(tmp_path / "t.jsonl")
    assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", traj, "--init", "empty")[0] == 0
    targets = {}
    for name, cfg in [
        ("off", {"miou_line": False, "alpha": 1, "mask_color": [255, 0, 0]}),
        ("on", {"miou_line": True, "alpha": 1.0, "mask_color": "255,0,0"}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        code, _ = run(capsys, "render-sft", "--config", str(path), "--traj", traj, "--tasks", task_manifest,
                      "--out", str(out))
        assert code == 0
        lines = (out / "samples.jsonl").read_text().splitlines()
        targets[name] = [json.loads(line)["target"] for line in lines]
        assert (out / json.loads(lines[0])["image_path"]).read_bytes() == (
            tmp_path / "off" / json.loads(lines[0])["image_path"]
        ).read_bytes()
    assert not any(x.startswith("Current mIoU") for x in targets["off"])
    assert all(x.startswith("Current mIoU") for x in targets["on"])
    assert [x.split("\n")[-1] for x in targets["on"]] == targets["off"]


def test_config_file_stays_out_of_the_header(tmp_path, capsys, task_manifest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    out, manifest = str(tmp_path / "t.jsonl"), tmp_path / "t.jsonl.manifest.json"
    headers = []
    for extra in ([], ["--config", str(cfg)], ["--seed", "1"]):
        assert run(capsys, "gen-traj", "--tasks", task_manifest, "--out", out, *extra)[0] == 0
        headers.append(json.loads(manifest.read_text())["header"])
    assert headers[0] == headers[1]
    assert headers[2]["config_hash"] != headers[0]["config_hash"]


def _files(root) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}


def test_a_task_id_that_is_not_a_plain_file_name_writes_nothing_outside_out(tmp_path, capsys):
    run_dir = tmp_path / "run"
    tasks = run(capsys, "synth", "--n", "2", "--side", "16", "--out", str(run_dir / "tasks"))[1]["manifest"]
    traj = str(run_dir / "traj.jsonl")
    assert run(capsys, "gen-traj", "--tasks", tasks, "--out", traj, "--init", "empty")[0] == 0
    # the first task, and its trajectory, renamed two directories up
    manifest = json.loads(open(tasks).read())
    manifest["tasks"][0]["id"] = "../../escaped"
    with open(tasks, "w") as fh:
        json.dump(manifest, fh)
    lines = open(traj).read().replace('"synth-0000"', '"../../escaped"')
    with open(traj, "w") as fh:
        fh.write(lines)
    before = _files(tmp_path)
    for argv, outs in [
        (["search", "--tasks", tasks, "--out", str(run_dir / "s.json"), "--masks-out", str(run_dir / "masks")],
         ("run/s.json", "run/masks")),
        (["render-sft", "--traj", traj, "--tasks", tasks, "--out", str(run_dir / "sft")], ("run/sft",)),
    ]:
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tasks}: tasks[0].id: expected a plain file name, got '../../escaped'\n"
        assert {f for f in _files(tmp_path) - before if not f.startswith(outs)} == set()
