"""Command line front end.

Subcommands cover the whole pipeline: synth (make tasks), gen-traj
(expert datasets), render-sft (training samples), rollout (policy
episodes), star (improvement iterations), search (reward-guided greedy),
eval (ciou / noc / regression / filter), and serve-mock (local stand-in
for the remote services).

Every option can also come from a JSON config file (--config); explicit
flags win over the file, the file wins over defaults. Successful
commands print a single JSON object on stdout; output manifests carry a
reproducibility header (config hash and seed) and no timestamps, so
identical runs produce identical bytes. Exit codes: 0 ok, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from . import mock_server
from .env import EnvConfig, InitSpec, Task, load_tasks, write_task_dir
from .errors import MaskLoopError, ProtocolError, RemoteError
from .improve import DatasetManifest, TrainHook
from .improve import rollout as run_rollout
from .improve import star_iteration
from .metrics import ciou, filter_masks, noc, noc_histogram, regression_metrics
from .policy import (
    COORD_DECIMAL,
    ExpertPolicy,
    NoiseConfig,
    NoisyExpertPolicy,
    NoisyPrm,
    OraclePrm,
    Policy,
    Prm,
    PromptConfig,
    RemotePolicy,
    RemotePrm,
)
from .raster import bbox, iou, read_pgm_mask, write_pgm, write_ppm
from .remote import RemoteEndpoint
from .search import SearchConfig, prm_greedy
from .segmenters import SegmenterSpec
from .trajgen import (
    generate_trajectory,
    read_jsonl,
    render_sft,
    synth_tasks,
    write_jsonl,
)
from .util import mix_seed


log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation detected after argument parsing."""


# ---------------------------------------------------------------------------
# option plumbing


def _parse_color(v) -> tuple[int, int, int]:
    if isinstance(v, (list, tuple)) and len(v) == 3:
        return tuple(int(c) for c in v)
    parts = str(v).split(",")
    if len(parts) != 3:
        raise ValueError(f"expected R,G,B, got {v!r}")
    return tuple(int(p) for p in parts)


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    effective = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise UsageError(f"{config_path}: unknown config keys {sorted(unknown)}")
        effective.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _config_hash(command: str, effective: dict) -> str:
    blob = json.dumps({"command": command, "config": effective}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _header(command: str, effective: dict) -> dict:
    return {
        "command": command,
        "config_hash": _config_hash(command, effective),
        "seed": effective.get("seed"),
    }


def _require(effective: dict, *keys: str) -> None:
    missing = [k for k in keys if effective.get(k) in (None, "")]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _segmenter_spec(cfg: dict) -> SegmenterSpec:
    kind = cfg["segmenter"]
    endpoint = None
    if kind == "remote":
        _require(cfg, "segmenter_url")
        endpoint = RemoteEndpoint(cfg["segmenter_url"], timeout=cfg["timeout"], max_retries=cfg["max_retries"])
    return SegmenterSpec(
        kind=kind,
        r_neg=int(cfg["r_neg"]),
        delta=int(cfg["delta"]),
        cap=int(cfg["cap"]),
        endpoint=endpoint,
    )


def _prompt_config(cfg: dict) -> PromptConfig:
    return PromptConfig(
        coord_format=cfg["coord_format"],
        mask_color=_parse_color(cfg["mask_color"]),
        alpha=float(cfg["alpha"]),
        template_id=cfg["template"],
        miou_line=bool(cfg.get("miou_line", False)),
    )


def _policy_factory(cfg: dict) -> Callable[[], Policy]:
    kind = cfg["policy"]
    if kind == "expert":
        return ExpertPolicy
    if kind == "noisy_expert":
        noise = NoiseConfig(
            sigma=float(cfg["noise_sigma"]),
            flip_prob=float(cfg["noise_flip"]),
            seed=int(cfg["noise_seed"]),
        )
        return lambda: NoisyExpertPolicy(noise)
    if kind == "remote":
        _require(cfg, "policy_url")
        endpoint = RemoteEndpoint(cfg["policy_url"], timeout=cfg["timeout"], max_retries=cfg["max_retries"])
        prompt_config = _prompt_config(cfg)
        return lambda: RemotePolicy(endpoint, prompt_config)
    raise UsageError(f"unknown policy {kind!r}")


def _prm(cfg: dict) -> Prm:
    kind = cfg["prm"]
    if kind == "oracle":
        return OraclePrm()
    if kind == "noisy":
        return NoisyPrm(sigma=float(cfg["prm_sigma"]), seed=int(cfg["prm_seed"]))
    if kind == "remote":
        _require(cfg, "prm_url")
        endpoint = RemoteEndpoint(cfg["prm_url"], timeout=cfg["timeout"], max_retries=cfg["max_retries"])
        return RemotePrm(endpoint, _prompt_config(cfg))
    raise UsageError(f"unknown prm {kind!r}")


def _env_config(cfg: dict) -> EnvConfig:
    return EnvConfig(
        max_steps=int(cfg["max_steps"]),
        tau_stop=float(cfg["tau_stop"]),
        tau_diff=float(cfg["tau_diff"]),
    )


def _init_spec(cfg: dict, task: Task, seed: int) -> InitSpec:
    """Resolve the --init choice for one task, deterministically."""
    import numpy as np

    choice = cfg["init"]
    if choice.startswith("mix"):
        if ":" in choice:
            parts = [float(p) for p in choice.split(":", 1)[1].split(",")]
            if len(parts) != 3 or abs(sum(parts) - 1.0) > 1e-9:
                raise UsageError(f"init mix needs three ratios summing to 1, got {choice!r}")
            p_empty, p_box, _ = parts
        else:
            p_empty, p_box = 0.8, 0.1
        u = np.random.default_rng(mix_seed(seed, task.id, "init")).random()
        if u < p_empty:
            choice = "empty"
        elif u < p_empty + p_box:
            choice = "box"
        else:
            choice = "random"
    if choice == "empty":
        return InitSpec.empty()
    if choice == "box":
        return InitSpec.from_box(bbox(task.target))
    if choice.startswith("random"):
        n_pos, n_neg = int(cfg["init_n_pos"]), int(cfg["init_n_neg"])
        if ":" in choice:
            parts = choice.split(":", 1)[1].split(",")
            if len(parts) != 2:
                raise UsageError(f"random init takes NP,NN, got {choice!r}")
            n_pos, n_neg = int(parts[0]), int(parts[1])
        return InitSpec.from_random_clicks(n_pos, n_neg, mix_seed(seed, task.id, "init-seed"))
    raise UsageError(f"unknown init {choice!r}")


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# shared defaults

_COMMON = {
    "config": None,
    "seed": 0,
    "jobs": 1,
}

_SEG = {
    "segmenter": "oracle",
    "r_neg": 2,
    "delta": 16,
    "cap": 10_000,
    "segmenter_url": None,
    "timeout": 10.0,
    "max_retries": 2,
}

_ENV = {
    "max_steps": 7,
    "tau_stop": 0.95,
    "tau_diff": 0.01,
}

_PROMPT = {
    "coord_format": COORD_DECIMAL,
    "mask_color": "0,255,0",
    "alpha": 0.5,
    "template": "default",
    "miou_line": False,
}

_POLICY = {
    "policy": "expert",
    "noise_sigma": 0.1,
    "noise_flip": 0.0,
    "noise_seed": 0,
    "policy_url": None,
}

_PRM = {
    "prm": "oracle",
    "prm_sigma": 0.05,
    "prm_seed": 0,
    "prm_url": None,
}

_INIT = {
    "init": "empty",
    "init_n_pos": 1,
    "init_n_neg": 1,
}

DEFAULTS: dict[str, dict] = {
    "synth": {**_COMMON, "n": 100, "side": 64, "out": None},
    "gen-traj": {
        **_COMMON,
        **_SEG,
        **_ENV,
        **_INIT,
        "init": "mix",
        "tasks": None,
        "out": None,
    },
    "render-sft": {
        **_COMMON,
        **_SEG,
        **_PROMPT,
        "traj": None,
        "tasks": None,
        "out": None,
    },
    "rollout": {
        **_COMMON,
        **_SEG,
        **_ENV,
        **_POLICY,
        **_PROMPT,
        **_INIT,
        "tasks": None,
        "out": None,
    },
    "star": {
        **_COMMON,
        **_SEG,
        **_ENV,
        **_POLICY,
        **_PROMPT,
        "policy": "noisy_expert",
        "tasks": None,
        "seed_data": None,
        "out": None,
        "mode": "star_plus",
        "n_iters": 1,
        "tau_star": 0.95,
        "keep_rule": "positive",
        "hook_cmd": None,
    },
    "search": {
        **_COMMON,
        **_SEG,
        **_ENV,
        **_POLICY,
        **_PROMPT,
        **_PRM,
        **_INIT,
        "tasks": None,
        "out": None,
        "k": 1,
        "eps": 1e-3,
        "patience": 2,
        "trace": False,
        "masks_out": None,
    },
    "eval-ciou": {**_COMMON, "pred": None, "gt": None},
    "eval-noc": {
        **_COMMON,
        **_SEG,
        "tasks": None,
        "target_iou": 0.95,
        "cap_clicks": 20,
        "hist_out": None,
    },
    "eval-regression": {**_COMMON, "data": None},
    "eval-filter": {
        **_COMMON,
        **_PRM,
        "tasks": None,
        "masks": None,
        "threshold": 0.8,
    },
    "serve-mock": {**_COMMON, **_PROMPT, "tasks": None, "port": 8008, "r_neg": 2},
}


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "out")
    tasks = synth_tasks(int(cfg["n"]), side=int(cfg["side"]), seed=int(cfg["seed"]))
    path = write_task_dir(tasks, cfg["out"], header=_header("synth", cfg))
    _emit({"manifest": path, "n_tasks": len(tasks)})
    return 0


def cmd_gen_traj(cfg: dict) -> int:
    _require(cfg, "tasks", "out")
    tasks = load_tasks(cfg["tasks"])
    segmenter = _segmenter_spec(cfg).build()
    env_config = _env_config(cfg)
    seed = int(cfg["seed"])

    def one(task: Task):
        return generate_trajectory(task, segmenter, env_config, _init_spec(cfg, task, seed))

    trajectories = _parallel_map(one, tasks, int(cfg["jobs"]))
    write_jsonl(trajectories, cfg["out"])
    manifest = DatasetManifest(
        name=os.path.basename(cfg["out"]),
        files=(os.path.abspath(cfg["out"]),),
        provenance="generated",
        n_trajectories=len(trajectories),
    )
    manifest_path = cfg["out"] + ".manifest.json"
    manifest.save(manifest_path, header=_header("gen-traj", cfg))
    _emit(
        {
            "out": cfg["out"],
            "manifest": manifest_path,
            "n_trajectories": len(trajectories),
            "n_steps": sum(len(t.steps) for t in trajectories),
        }
    )
    return 0


def cmd_render_sft(cfg: dict) -> int:
    _require(cfg, "traj", "tasks", "out")
    trajectories = read_jsonl(cfg["traj"])
    tasks = {t.id: t for t in load_tasks(cfg["tasks"])}
    prompt_config = _prompt_config(cfg)
    segmenter = _segmenter_spec(cfg).build()
    os.makedirs(cfg["out"], exist_ok=True)
    seen: dict[str, int] = {}
    work = []
    for traj in trajectories:
        task = tasks.get(traj.task_id)
        if task is None:
            raise UsageError(f"trajectory references unknown task {traj.task_id!r}")
        n = seen.get(traj.task_id, 0)
        seen[traj.task_id] = n + 1
        work.append((traj, task, traj.task_id if n == 0 else f"{traj.task_id}__{n}"))

    def one(item) -> list[dict]:
        traj, task, sub = item
        os.makedirs(os.path.join(cfg["out"], sub), exist_ok=True)
        recs = []
        for sample in render_sft(traj, task, prompt_config, segmenter):
            rel = os.path.join(sub, f"step_{sample.step_index}.ppm")
            write_ppm(sample.image, os.path.join(cfg["out"], rel))
            recs.append({"image_path": rel, "prompt": sample.prompt, "target": sample.target})
        return recs

    records = [rec for recs in _parallel_map(one, work, int(cfg["jobs"])) for rec in recs]
    samples_path = os.path.join(cfg["out"], "samples.jsonl")
    with open(samples_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
    _emit({"out": cfg["out"], "samples": samples_path, "n_samples": len(records)})
    return 0


def cmd_rollout(cfg: dict) -> int:
    _require(cfg, "tasks", "out")
    tasks = load_tasks(cfg["tasks"])
    segmenter = _segmenter_spec(cfg).build()
    env_config = _env_config(cfg)
    make_policy = _policy_factory(cfg)
    seed = int(cfg["seed"])

    def one(task: Task):
        return run_rollout(
            make_policy(), [task], segmenter, env_config, seed=seed,
            init=_init_spec(cfg, task, seed),
        )

    results = _parallel_map(one, tasks, int(cfg["jobs"]))
    trajectories = [t for trajs, _ in results for t in trajs]
    failures: dict[str, str] = {}
    for _, fail in results:
        failures.update(fail)
    write_jsonl(trajectories, cfg["out"])
    manifest = DatasetManifest(
        name=os.path.basename(cfg["out"]),
        files=(os.path.abspath(cfg["out"]),),
        provenance="rollout",
        n_trajectories=len(trajectories),
    )
    manifest_path = cfg["out"] + ".manifest.json"
    header = _header("rollout", cfg)
    if failures:
        header["failures"] = failures
    manifest.save(manifest_path, header=header)
    _emit(
        {
            "out": cfg["out"],
            "manifest": manifest_path,
            "n_trajectories": len(trajectories),
            "n_failures": len(failures),
            "mean_final_reward": (
                sum(t.final_reward for t in trajectories) / len(trajectories)
                if trajectories
                else 0.0
            ),
        }
    )
    return 0


def cmd_star(cfg: dict) -> int:
    _require(cfg, "tasks", "seed_data", "out")
    if int(cfg["jobs"]) > 1:
        # every task shares one policy, so the tasks cannot run in parallel
        raise UsageError(f"star runs serially; --jobs must be 1, got {cfg['jobs']}")
    tasks = load_tasks(cfg["tasks"])
    seed_data = DatasetManifest.load(cfg["seed_data"])
    segmenter = _segmenter_spec(cfg).build()
    env_config = _env_config(cfg)
    policy = _policy_factory(cfg)()
    hook = (
        TrainHook("external_command", cfg["hook_cmd"])
        if cfg.get("hook_cmd")
        else TrainHook("emit_only")
    )
    final, reports = star_iteration(
        mode=cfg["mode"],
        policy=policy,
        seed_data=seed_data,
        tasks=tasks,
        n_iters=int(cfg["n_iters"]),
        hook=hook,
        segmenter=segmenter,
        config=env_config,
        out_dir=cfg["out"],
        tau_star=float(cfg["tau_star"]),
        seed=int(cfg["seed"]),
        keep_rule=cfg["keep_rule"],
    )
    reports_path = os.path.join(cfg["out"], "reports.json")
    os.makedirs(cfg["out"], exist_ok=True)
    with open(reports_path, "w", encoding="utf-8") as fh:
        json.dump({"header": _header("star", cfg), "reports": reports}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(
        {
            "final_manifest_name": final.name,
            "n_trajectories": final.n_trajectories,
            "reports": reports,
            "reports_path": reports_path,
        }
    )
    return 0


def cmd_search(cfg: dict) -> int:
    _require(cfg, "tasks", "out")
    tasks = load_tasks(cfg["tasks"])
    segmenter = _segmenter_spec(cfg).build()
    prm = _prm(cfg)
    make_policy = _policy_factory(cfg)
    search_config = SearchConfig(
        k=int(cfg["k"]),
        max_steps=int(cfg["max_steps"]),
        convergence_eps=float(cfg["eps"]),
        convergence_patience=int(cfg["patience"]),
    )
    seed = int(cfg["seed"])
    masks_out = cfg.get("masks_out")
    if masks_out:
        os.makedirs(masks_out, exist_ok=True)

    def one(task: Task) -> dict:
        try:
            best_mask, best_score, trace = prm_greedy(
                task, make_policy(), prm, segmenter, search_config,
                init=_init_spec(cfg, task, seed), seed=seed,
            )
        except (RemoteError, ProtocolError) as e:
            log.warning("search failed for task %s: %s", task.id, e)
            return {"task_id": task.id, "error": str(e)}
        if masks_out:
            write_pgm(best_mask, os.path.join(masks_out, f"{task.id}.pgm"))
        rec = {
            "task_id": task.id,
            "best_reward": best_score,
            "best_step": trace.best_step,
            "n_steps": len(trace.steps),
            "final_iou": iou(best_mask, task.target),
        }
        if cfg.get("trace"):
            rec["trace"] = trace.to_dict()
        return rec

    outcomes = _parallel_map(one, tasks, int(cfg["jobs"]))
    results = [r for r in outcomes if "error" not in r]
    header = _header("search", cfg)
    if len(results) < len(outcomes):
        header["failures"] = {r["task_id"]: r["error"] for r in outcomes if "error" in r}
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump({"header": header, "results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(
        {
            "out": cfg["out"],
            "n_tasks": len(results),
            "n_failures": len(outcomes) - len(results),
            "mean_best_reward": (
                sum(r["best_reward"] for r in results) / len(results) if results else 0.0
            ),
        }
    )
    return 0


def _list_pgms(directory: str) -> dict[str, str]:
    return {
        os.path.splitext(name)[0]: os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".pgm")
    }


def cmd_eval_ciou(cfg: dict) -> int:
    _require(cfg, "pred", "gt")
    preds = _list_pgms(cfg["pred"])
    gts = _list_pgms(cfg["gt"])
    if set(preds) != set(gts):
        raise UsageError(
            f"pred/gt file sets differ: {sorted(set(preds) ^ set(gts))[:5]} ..."
        )
    pairs = [
        (read_pgm_mask(preds[k]), read_pgm_mask(gts[k])) for k in sorted(preds)
    ]
    _emit({"ciou": ciou(pairs), "n_pairs": len(pairs)})
    return 0


def cmd_eval_noc(cfg: dict) -> int:
    _require(cfg, "tasks")
    tasks = load_tasks(cfg["tasks"])
    segmenter = _segmenter_spec(cfg).build()
    target = float(cfg["target_iou"])
    cap = int(cfg["cap_clicks"])

    def one(task: Task) -> tuple[int, bool]:
        return noc(task, segmenter, target_iou=target, cap=cap)

    results = _parallel_map(one, tasks, int(cfg["jobs"]))
    counts = [c for c, _ in results]
    reached = [ok for _, ok in results]
    if cfg.get("hist_out"):
        with open(cfg["hist_out"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["click_count", "frequency"])
            for count, freq in noc_histogram(counts):
                writer.writerow([count, freq])
    _emit(
        {
            "mean_clicks": sum(counts) / len(counts) if counts else 0.0,
            "reached_fraction": sum(reached) / len(reached) if reached else 0.0,
            "n_tasks": len(counts),
        }
    )
    return 0


def cmd_eval_regression(cfg: dict) -> int:
    _require(cfg, "data")
    with open(cfg["data"], "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        pred, truth = data["pred"], data["truth"]
    except (KeyError, TypeError):
        raise UsageError(f"{cfg['data']}: expected an object with 'pred' and 'truth' arrays")
    _emit(regression_metrics(pred, truth))
    return 0


def cmd_eval_filter(cfg: dict) -> int:
    _require(cfg, "tasks", "masks")
    tasks = load_tasks(cfg["tasks"])
    prm = _prm(cfg)
    masks = _list_pgms(cfg["masks"])
    pairs = []
    for task in tasks:
        path = masks.get(task.id)
        if path is None:
            raise UsageError(f"no mask file for task {task.id!r} in {cfg['masks']}")
        pairs.append((task, read_pgm_mask(path)))
    kept, rejected = filter_masks(prm, pairs, float(cfg["threshold"]))
    _emit(
        {
            "kept": [t.id for t, _ in kept],
            "rejected": [t.id for t, _ in rejected],
            "threshold": float(cfg["threshold"]),
        }
    )
    return 0


def cmd_serve_mock(cfg: dict) -> int:
    _require(cfg, "tasks")
    tasks = load_tasks(cfg["tasks"])
    server, thread = mock_server.serve(
        tasks,
        port=int(cfg["port"]),
        prompt_config=_prompt_config(cfg),
        r_neg=int(cfg["r_neg"]),
    )
    host, port = server.server_address[:2]
    print(f"mock server on http://{host}:{port} with {len(tasks)} tasks", file=sys.stderr)
    try:
        thread.join()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


_HANDLERS: dict[str, Callable[[dict], int]] = {
    "synth": cmd_synth,
    "gen-traj": cmd_gen_traj,
    "render-sft": cmd_render_sft,
    "rollout": cmd_rollout,
    "star": cmd_star,
    "search": cmd_search,
    "eval-ciou": cmd_eval_ciou,
    "eval-noc": cmd_eval_noc,
    "eval-regression": cmd_eval_regression,
    "eval-filter": cmd_eval_filter,
    "serve-mock": cmd_serve_mock,
}


# ---------------------------------------------------------------------------
# parser construction


def _add_opts(sp: argparse.ArgumentParser, defaults: dict) -> None:
    """One flag per config key; all default to None so the merge can tell
    explicit flags from absent ones."""
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            sp.add_argument(flag, dest=key, action="store_const", const=True, default=None)
        elif isinstance(default, int) and not isinstance(default, bool):
            sp.add_argument(flag, dest=key, type=int, default=None)
        elif isinstance(default, float):
            sp.add_argument(flag, dest=key, type=float, default=None)
        else:
            sp.add_argument(flag, dest=key, type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskloop",
        description="Click-driven mask annotation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "synth": "generate a deterministic synthetic task set",
        "gen-traj": "record expert trajectories for a task set",
        "render-sft": "render trajectories into (image, prompt, target) samples",
        "rollout": "run greedy policy episodes and record everything",
        "star": "iterate rollout -> refine -> training hook",
        "search": "reward-guided greedy search over candidate actions",
        "eval-ciou": "cumulative IoU between mask directories",
        "eval-noc": "expert clicks-to-threshold per task",
        "eval-regression": "score regression metrics from a JSON file",
        "eval-filter": "split predicted masks by PRM score",
        "serve-mock": "serve mock segment/act/score endpoints from local oracles",
    }
    for command, defaults in DEFAULTS.items():
        sp = sub.add_parser(command, help=descriptions[command])
        _add_opts(sp, defaults)
        sp.set_defaults(command=command)
    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run the matching command; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow `eval ciou ...` as sugar for `eval-ciou ...`
    if argv[:1] == ["eval"] and len(argv) > 1:
        argv = [f"eval-{argv[1]}", *argv[2:]]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        effective = _merge_config(args, DEFAULTS[args.command])
        return _HANDLERS[args.command](effective)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except MaskLoopError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
