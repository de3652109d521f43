"""Command line front end.

Commands cover the whole pipeline: synth (make tasks), gen-traj
(expert datasets), render-sft (training samples), rollout (policy
episodes), star (improvement iterations), search (reward-guided greedy),
eval (ciou / noc / regression / filter), and serve-mock (local stand-in
for the remote services).

COMMANDS gives each command its help line and handler, DEFAULTS its
options. ``dispatch`` takes the command from the first argument and
parses the rest with that command's flags only, so a usage error shows
that command's usage; top-level help, no arguments or an unknown command
get the tree of every command.

Every option can also come from a JSON config file (--config); explicit
flags win over the file, the file wins over defaults. Successful
commands print a single JSON object on stdout; output manifests carry a
reproducibility header (the hash of the options the run read, their
names, and the seed) and no timestamps, so identical runs produce
identical bytes. Handlers return nothing;
``dispatch`` alone maps the outcome to the exit code: 0 ok, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import fields
from .env import EnvConfig, InitSpec, Task, load_tasks, write_task_dir
from .errors import FieldError, MaskLoopError
from .improve import DatasetManifest, TrainHook
from .improve import rollout as run_rollout
from .improve import check_star_options, named_keep_rule, star_filter, star_iteration
from .metrics import ciou, filter_masks, noc, noc_config, noc_histogram, regression_metrics
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
from .segmenters import OracleSegmenter, RegionGrowSegmenter, RemoteSegmenter, Segmenter
from .trajgen import (
    generate_trajectory,
    read_jsonl,
    render_sft,
    synth_tasks,
    write_jsonl,
)
from .util import map_tasks, mean, mix_seed, with_failures, write_json


class UsageError(Exception):
    """Bad invocation detected after argument parsing."""


@contextlib.contextmanager
def _option_values(what: str = ""):
    """Handlers build their components from the options in this block,
    before reading or writing any file: a ValueError raised here is a bad
    option value, a usage error (its message after ``what``)."""
    try:
        yield
    except ValueError as e:
        raise UsageError(f"{what}{e}") from None


# ---------------------------------------------------------------------------
# option plumbing


def _parse_color(value: str | list) -> tuple[int, int, int]:
    """mask_color from a flag or a config file: "R,G,B", or a list of three
    integers from a config file, each channel in [0, 255]."""
    parts = value if isinstance(value, list) else value.split(",")
    with contextlib.suppress(ValueError):
        rgb = tuple(int(p) for p in parts)
        if len(rgb) == 3 and all(0 <= c <= 255 for c in rgb):
            return rgb
    raise UsageError(f"option 'mask_color' takes R,G,B, each in [0, 255], got {value!r}")


def _file_value(cfg: dict, key: str, default):
    """A config-file value by its flag's rule: a bool key takes a JSON bool,
    an int key an integer, a float key a number (read as a float), any
    other key a string; mask_color also takes a list of three integers."""
    if key == "mask_color":
        value = (fields.integers if isinstance(cfg[key], list) else fields.string)(cfg, key)
        _parse_color(value)
        return value
    if isinstance(default, bool):
        return fields.choice(cfg, key, (True, False))
    return {int: fields.integer, float: fields.number}.get(type(default), fields.string)(cfg, key)


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    effective = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = fields.read_json(config_path)
        except FieldError as e:
            raise UsageError(str(e))
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise UsageError(f"{config_path}: unknown config keys {sorted(unknown)}")
        for key in file_cfg:
            try:
                effective[key] = _file_value(file_cfg, key, defaults[key])
            except FieldError as e:
                raise UsageError(f"{config_path}: config key {key!r}: {e.problem}")
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


# options that do not change what a run writes: where the options came
# from, how many threads run the per-task work, and where the outputs go
_UNHASHED = ("config", "jobs", "out", "masks_out", "hist_out")


class _Options(dict):
    """A command's effective options, recording each key read through ``[]``
    or ``get``. Once ``_header`` has hashed the keys read, reading any other
    key outside _UNHASHED raises: the header would not cover it."""

    def __init__(self, effective: dict):
        super().__init__(effective)
        self.read: set[str] = set()
        self.hashed: frozenset[str] | None = None

    def _note(self, key: str) -> None:
        if self.hashed is not None and key not in self.hashed and key not in _UNHASHED:
            raise RuntimeError(f"option {key!r} read after the header hashed {sorted(self.hashed)}")
        self.read.add(key)

    def __getitem__(self, key: str):
        self._note(key)
        return super().__getitem__(key)

    def get(self, key: str, default=None):
        self._note(key)
        return super().get(key, default)


def _header(command: str, cfg: _Options, failures: dict[str, str] | None = None) -> dict:
    """The reproducibility header: the seed, and the hash of the options the
    run has read, which it names in ``options``; no later read may widen them.
    It names the run's failed tasks (``util.map_tasks``) only when there are any."""
    seed = cfg["seed"]
    options = sorted(cfg.read - set(_UNHASHED))
    blob = json.dumps({"command": command, "config": {k: cfg[k] for k in options}}, sort_keys=True)
    cfg.hashed = frozenset(options)
    header = {
        "command": command,
        "config_hash": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
        "options": options,
        "seed": seed,
    }
    return with_failures(header, failures)


def _require(effective: dict, *keys: str) -> None:
    missing = [k for k in keys if effective.get(k) in (None, "")]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _make_parent(path: str | None) -> None:
    """Create the directory an output file goes in; commands call this
    before any work, so a missing directory costs nothing."""
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def _endpoint(cfg: dict, url_key: str) -> RemoteEndpoint:
    _require(cfg, url_key)
    return RemoteEndpoint(cfg[url_key], timeout=cfg["timeout"], max_retries=cfg["max_retries"])


def _prompt_config(cfg: dict, *keys: str) -> PromptConfig:
    """A PromptConfig from the named option keys; other fields keep their defaults."""
    fields = {"template_id" if key == "template" else key: cfg[key] for key in keys}
    if "mask_color" in fields:
        fields["mask_color"] = _parse_color(fields["mask_color"])
    return PromptConfig(**fields)


def _segmenter(cfg: dict) -> Segmenter:
    kind = cfg["segmenter"]
    if kind == "oracle":
        return OracleSegmenter(r_neg=cfg["r_neg"])
    if kind == "region_grow":
        return RegionGrowSegmenter(delta=cfg["delta"], cap=cfg["cap"])
    if kind == "remote":
        return RemoteSegmenter(_endpoint(cfg, "segmenter_url"))
    raise UsageError(f"unknown segmenter {kind!r}")


def _policy(cfg: dict) -> Policy:
    kind = cfg["policy"]
    if kind == "expert":
        return ExpertPolicy()
    if kind == "noisy_expert":
        noise = NoiseConfig(sigma=cfg["noise_sigma"], flip_prob=cfg["noise_flip"], seed=cfg["noise_seed"])
        return NoisyExpertPolicy(noise)
    if kind == "remote":
        return RemotePolicy(
            _endpoint(cfg, "policy_url"), _prompt_config(cfg, "coord_format", "mask_color", "alpha", "template")
        )
    raise UsageError(f"unknown policy {kind!r}")


def _prm(cfg: dict) -> Prm:
    kind = cfg["prm"]
    if kind == "oracle":
        return OraclePrm()
    if kind == "noisy":
        return NoisyPrm(sigma=cfg["prm_sigma"], seed=cfg["prm_seed"])
    if kind == "remote":
        return RemotePrm(_endpoint(cfg, "prm_url"), _prompt_config(cfg, "mask_color", "alpha", "template"))
    raise UsageError(f"unknown prm {kind!r}")


def _env_config(cfg: dict, **extra) -> EnvConfig:
    return EnvConfig(max_steps=cfg["max_steps"], tau_stop=cfg["tau_stop"], **extra)


# each --init name as (empty, box, random) ratios; a fixed start always wins the draw
_INIT_RATIOS = {"empty": [1.0, 0.0, 0.0], "box": [0.0, 1.0, 0.0], "random": [0.0, 0.0, 1.0], "mix": [0.8, 0.1, 0.1]}


def _init_rule(cfg: dict) -> Callable[[Task], InitSpec]:
    """Parse --init once, before any work, into the rule that gives each task
    its InitSpec from --seed and the task id. mix ratios must be finite, at
    least 0 and sum to 1; click counts must pass InitSpec's own check."""
    choice, seed = cfg["init"], cfg["seed"]
    name, sep, args = choice.partition(":")
    if name not in _INIT_RATIOS or (sep and name in ("empty", "box")):
        raise UsageError(f"unknown init {choice!r}: expected empty, box, random[:NP,NN] or mix[:PE,PB,PR]")
    with _option_values(f"bad init {choice!r}: "):
        ratios = [float(p) for p in args.split(",")] if sep and name == "mix" else _INIT_RATIOS[name]
        bad = len(ratios) != 3 or not all(math.isfinite(p) and p >= 0 for p in ratios)
        if bad or abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError("mix needs three finite ratios, each at least 0, summing to 1")
        if name in ("random", "mix"):  # a fixed start reads no click counts
            counts = args.split(",") if sep and name == "random" else (cfg["init_n_pos"], cfg["init_n_neg"])
            n_pos, n_neg = (int(c) for c in counts)
            InitSpec.from_random_clicks(n_pos, n_neg, seed=0)

    def init(task: Task) -> InitSpec:
        u = np.random.default_rng(mix_seed(seed, task.id, "init")).random()
        if u < ratios[0]:
            return InitSpec.empty()
        if u < ratios[0] + ratios[1]:
            return InitSpec.from_box(bbox(task.target))
        return InitSpec.from_random_clicks(n_pos, n_neg, mix_seed(seed, task.id, "init-seed"))

    return init


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# option groups: each holds exactly the keys its builder reads

_COMMON = {"config": None}

# read by _endpoint, for every component that can be remote
_REMOTE = {"timeout": 10.0, "max_retries": 2}

# read by the overlay rendering of remote policies, remote PRMs and the mock
_OVERLAY = {"mask_color": "0,255,0", "alpha": 0.5}

_SEG = {
    "segmenter": "oracle",
    "r_neg": 2,
    "delta": 16,
    "cap": 10_000,
    "segmenter_url": None,
    **_REMOTE,
}

_ENV = {
    "max_steps": 7,
    "tau_stop": 0.95,
}

_POLICY = {
    "policy": "expert",
    "noise_sigma": 0.1,
    "noise_flip": 0.0,
    "noise_seed": 0,
    "policy_url": None,
    **_REMOTE,
    "coord_format": COORD_DECIMAL,
    **_OVERLAY,
    "template": "default",
}

_PRM = {
    "prm": "oracle",
    "prm_sigma": 0.05,
    "prm_seed": 0,
    "prm_url": None,
    **_REMOTE,
    **_OVERLAY,
    "template": "default",
}

_INIT = {
    "init": "empty",
    "init_n_pos": 1,
    "init_n_neg": 1,
}

DEFAULTS: dict[str, dict] = {
    "synth": {**_COMMON, "seed": 0, "n": 100, "side": 64, "out": None},
    "gen-traj": {
        **_COMMON,
        "seed": 0, "jobs": 1,
        **_SEG,
        **_ENV,
        "tau_diff": 0.01,
        **_INIT,
        "init": "mix",
        "tasks": None,
        "out": None,
    },
    "render-sft": {
        **_COMMON,
        "jobs": 1,
        "coord_format": COORD_DECIMAL,
        **_OVERLAY,
        "template": "default",
        "miou_line": False,
        "traj": None,
        "tasks": None,
        "out": None,
    },
    "rollout": {
        **_COMMON,
        "seed": 0, "jobs": 1,
        **_SEG,
        **_ENV,
        **_POLICY,
        **_INIT,
        "tasks": None,
        "out": None,
    },
    "star": {
        **_COMMON,
        "seed": 0, "jobs": 1,
        **_SEG,
        **_ENV,
        "tau_diff": 0.01,
        **_POLICY,
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
        "seed": 0, "jobs": 1,
        **_SEG,
        "max_steps": 7,
        **_POLICY,
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
        "jobs": 1,
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
    "serve-mock": {
        **_COMMON,
        "coord_format": COORD_DECIMAL,
        **_OVERLAY,
        "tasks": None,
        "port": 8008,
        "r_neg": 2,
    },
}


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: dict) -> None:
    _require(cfg, "out")
    with _option_values():
        tasks = synth_tasks(cfg["n"], side=cfg["side"], seed=cfg["seed"])
    path = write_task_dir(tasks, cfg["out"], header=_header("synth", cfg))
    _emit({"manifest": path, "n_tasks": len(tasks)})


def _write_dataset(trajectories: list, out: str, provenance: str, header: dict) -> str:
    """Write ``out`` as JSONL plus ``<out>.manifest.json``; returns the manifest path."""
    write_jsonl(trajectories, out)
    manifest = DatasetManifest(
        name=os.path.basename(out),
        files=(os.path.abspath(out),),
        provenance=provenance,
        trajectories=tuple(trajectories),
    )
    manifest_path = out + ".manifest.json"
    manifest.save(manifest_path, header=header)
    return manifest_path


def cmd_gen_traj(cfg: dict) -> None:
    _require(cfg, "tasks", "out")
    with _option_values():
        init = _init_rule(cfg)
        segmenter = _segmenter(cfg)
        env_config = _env_config(cfg, tau_diff=cfg["tau_diff"])
    _make_parent(cfg["out"])
    tasks = load_tasks(cfg["tasks"])

    def one(task: Task):
        return generate_trajectory(task, segmenter, env_config, init(task))

    trajectories, failures = map_tasks("gen-traj", one, tasks, lambda task: task.id, cfg["jobs"])
    manifest_path = _write_dataset(trajectories, cfg["out"], "generated", _header("gen-traj", cfg, failures))
    _emit(
        {
            "out": cfg["out"],
            "manifest": manifest_path,
            "n_trajectories": len(trajectories),
            "n_steps": sum(len(t.steps) for t in trajectories),
        }
    )


def cmd_render_sft(cfg: dict) -> None:
    _require(cfg, "traj", "tasks", "out")
    with _option_values():
        prompt_config = _prompt_config(cfg, "coord_format", "mask_color", "alpha", "template", "miou_line")
    trajectories = read_jsonl(cfg["traj"])
    tasks = {t.id: t for t in load_tasks(cfg["tasks"])}
    os.makedirs(cfg["out"], exist_ok=True)
    seen: dict[str, int] = {}
    work = []
    for traj in trajectories:
        task = tasks.get(traj.task_id)
        if task is None:
            raise UsageError(f"trajectory references unknown task {traj.task_id!r}")
        n = seen.get(traj.task_id, 0)
        seen[traj.task_id] = n + 1
        # the n-th repeat of a task renders into <id>/<n>/, a path no task id
        # can take, since an id holds no "/"
        work.append((traj, task, os.path.join(traj.task_id, str(n)) if n else traj.task_id))

    def one(item) -> list[dict]:
        traj, task, sub = item
        os.makedirs(os.path.join(cfg["out"], sub), exist_ok=True)
        recs = []
        for sample in render_sft(traj, task, prompt_config):
            rel = os.path.join(sub, f"step_{sample.step_index}.ppm")
            write_ppm(sample.image, os.path.join(cfg["out"], rel))
            recs.append({"image_path": rel, "prompt": sample.prompt, "target": sample.target})
        return recs

    rendered, _ = map_tasks("render-sft", one, work, lambda item: item[0].task_id, cfg["jobs"])  # no remote call
    records = [rec for recs in rendered for rec in recs]
    samples_path = os.path.join(cfg["out"], "samples.jsonl")
    with open(samples_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
    _emit({"out": cfg["out"], "samples": samples_path, "n_samples": len(records)})


def cmd_rollout(cfg: dict) -> None:
    _require(cfg, "tasks", "out")
    with _option_values():
        init = _init_rule(cfg)
        segmenter = _segmenter(cfg)
        env_config = _env_config(cfg)
        policy = _policy(cfg)
    _make_parent(cfg["out"])
    tasks = load_tasks(cfg["tasks"])
    trajectories, failures = run_rollout(
        policy, tasks, segmenter, env_config, seed=cfg["seed"], init=init, jobs=cfg["jobs"]
    )
    manifest_path = _write_dataset(trajectories, cfg["out"], "rollout", _header("rollout", cfg, failures))
    _emit(
        {
            "out": cfg["out"],
            "manifest": manifest_path,
            "n_trajectories": len(trajectories),
            "n_failures": len(failures),
            "mean_final_reward": mean([t.final_reward for t in trajectories]),
        }
    )


def cmd_star(cfg: dict) -> None:
    _require(cfg, "tasks", "seed_data", "out")
    mode = cfg["mode"]
    with _option_values():
        segmenter = _segmenter(cfg)
        policy = _policy(cfg)
        hook = TrainHook(cfg["hook_cmd"] or None)
        check_star_options(mode, cfg["n_iters"])
        # star filters rollouts by tau_star; star_plus repairs them by keep_rule
        # and, past the first rejected action, by the generator's tau_diff margin
        if mode == "star_plus":
            config = _env_config(cfg, tau_diff=cfg["tau_diff"])
            by_mode = {"config": config, "keep": named_keep_rule(cfg["keep_rule"], config.tau_diff)}
        else:
            by_mode = {"config": _env_config(cfg), "tau_star": cfg["tau_star"]}
            star_filter([], cfg["tau_star"])  # checks tau_star's range
    os.makedirs(cfg["out"], exist_ok=True)
    tasks = load_tasks(cfg["tasks"])
    seed_data = DatasetManifest.load(cfg["seed_data"])
    final, reports = star_iteration(
        mode=mode,
        policy=policy,
        seed_data=seed_data,
        tasks=tasks,
        n_iters=cfg["n_iters"],
        hook=hook,
        segmenter=segmenter,
        out_dir=cfg["out"],
        seed=cfg["seed"],
        jobs=cfg["jobs"],
        **by_mode,
    )
    reports_path = os.path.join(cfg["out"], "reports.json")
    write_json(reports_path, {"header": _header("star", cfg), "reports": reports})
    _emit(
        {
            "final_manifest_name": final.name,
            "n_trajectories": len(final.trajectories),
            "reports": reports,
            "reports_path": reports_path,
        }
    )


def cmd_search(cfg: dict) -> None:
    _require(cfg, "tasks", "out")
    with _option_values():
        init = _init_rule(cfg)
        segmenter = _segmenter(cfg)
        prm = _prm(cfg)
        policy = _policy(cfg)
        search_config = SearchConfig(
            k=cfg["k"], max_steps=cfg["max_steps"], convergence_eps=cfg["eps"], convergence_patience=cfg["patience"]
        )
    seed, with_trace = cfg["seed"], cfg["trace"]
    masks_out = cfg["masks_out"]
    _make_parent(cfg["out"])
    tasks = load_tasks(cfg["tasks"])
    if masks_out:
        os.makedirs(masks_out, exist_ok=True)

    def one(task: Task) -> dict:
        best_mask, best_score, trace = prm_greedy(
            task, policy, prm, segmenter, search_config,
            init=init(task), seed=seed,
        )
        if masks_out:
            write_pgm(best_mask, os.path.join(masks_out, f"{task.id}.pgm"))
        rec = {
            "task_id": task.id,
            "best_reward": best_score,
            "best_step": trace.best_step,
            "n_steps": len(trace.steps),
            "final_iou": iou(best_mask, task.target),
        }
        if with_trace:
            rec["trace"] = trace.to_dict()
        return rec

    results, failures = map_tasks("search", one, tasks, lambda task: task.id, cfg["jobs"])
    write_json(cfg["out"], {"header": _header("search", cfg, failures), "results": results})
    _emit(
        {
            "out": cfg["out"],
            "n_tasks": len(results),
            "n_failures": len(failures),
            "mean_best_reward": mean([r["best_reward"] for r in results]),
        }
    )


def _list_pgms(directory: str) -> dict[str, str]:
    return {
        os.path.splitext(name)[0]: os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".pgm")
    }


def cmd_eval_ciou(cfg: dict) -> None:
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


def cmd_eval_noc(cfg: dict) -> None:
    _require(cfg, "tasks")
    target, cap = cfg["target_iou"], cfg["cap_clicks"]
    with _option_values():
        segmenter = _segmenter(cfg)
        noc_config(target, cap)  # checks both ranges
    _make_parent(cfg["hist_out"])
    tasks = load_tasks(cfg["tasks"])

    def one(task: Task) -> tuple[int, bool]:
        return noc(task, segmenter, target_iou=target, cap=cap)

    results, failures = map_tasks("eval-noc", one, tasks, lambda task: task.id, cfg["jobs"])
    counts = [c for c, _ in results]
    reached = [ok for _, ok in results]
    if cfg["hist_out"]:
        with open(cfg["hist_out"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["click_count", "frequency"])
            for count, freq in noc_histogram(counts):
                writer.writerow([count, freq])
    _emit(with_failures({"mean_clicks": mean(counts), "reached_fraction": mean(reached), "n_tasks": len(counts)}, failures))


def cmd_eval_regression(cfg: dict) -> None:
    _require(cfg, "data")
    data = fields.read_json(cfg["data"])

    def numbers(key: str) -> list[float]:
        xs = fields.array(data, key)
        return [fields.number(xs, i, key) for i in range(len(xs))]

    with fields.source(cfg["data"]):
        pred, truth = numbers("pred"), numbers("truth")
    _emit(regression_metrics(pred, truth))


def cmd_eval_filter(cfg: dict) -> None:
    _require(cfg, "tasks", "masks")
    with _option_values():
        prm = _prm(cfg)
        filter_masks(prm, [], cfg["threshold"])  # checks the threshold's range
    tasks = load_tasks(cfg["tasks"])
    masks = _list_pgms(cfg["masks"])
    pairs = []
    for task in tasks:
        path = masks.get(task.id)
        if path is None:
            raise UsageError(f"no mask file for task {task.id!r} in {cfg['masks']}")
        pairs.append((task, read_pgm_mask(path)))
    kept, rejected, failures = filter_masks(prm, pairs, cfg["threshold"])
    reply = {"kept": [t.id for t, _ in kept], "rejected": [t.id for t, _ in rejected], "threshold": cfg["threshold"]}
    _emit(with_failures(reply, failures))


def cmd_serve_mock(cfg: dict) -> None:
    from . import mock_server  # only this command serves; the others never import it

    _require(cfg, "tasks")
    with _option_values():
        prompt_config = _prompt_config(cfg, "coord_format", "mask_color", "alpha")
        OracleSegmenter(cfg["r_neg"])  # checks r_neg's range, as the mock's segmenter will
        if not 0 <= cfg["port"] <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {cfg['port']}")
    tasks = load_tasks(cfg["tasks"])
    server, thread = mock_server.serve(tasks, port=cfg["port"], prompt_config=prompt_config, r_neg=cfg["r_neg"])
    host, port = server.server_address[:2]
    print(f"mock server on http://{host}:{port} with {len(tasks)} tasks", file=sys.stderr)
    try:
        thread.join()
    except KeyboardInterrupt:
        server.shutdown()


class Command(NamedTuple):
    help: str
    run: Callable[[dict], None]


# each command's help line and handler; DEFAULTS holds its options
COMMANDS: dict[str, Command] = {
    "synth": Command("generate a deterministic synthetic task set", cmd_synth),
    "gen-traj": Command("record expert trajectories for a task set", cmd_gen_traj),
    "render-sft": Command("render trajectories into (image, prompt, target) samples", cmd_render_sft),
    "rollout": Command("run greedy policy episodes and record everything", cmd_rollout),
    "star": Command("iterate rollout -> refine -> training hook", cmd_star),
    "search": Command("reward-guided greedy search over candidate actions", cmd_search),
    "eval-ciou": Command("cumulative IoU between mask directories", cmd_eval_ciou),
    "eval-noc": Command("expert clicks-to-threshold per task", cmd_eval_noc),
    "eval-regression": Command("score regression metrics from a JSON file", cmd_eval_regression),
    "eval-filter": Command("split predicted masks by PRM score", cmd_eval_filter),
    "serve-mock": Command("serve mock segment/act/score endpoints from local oracles", cmd_serve_mock),
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
        else:  # int, float or str; an option with no default takes a string
            sp.add_argument(flag, dest=key, type=str if default is None else type(default), default=None)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, holding only its flags; with no command,
    the tree of every command with its flags, for top-level help and errors."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"maskloop {command}")
        _add_opts(parser, DEFAULTS[command])
        return parser
    parser = argparse.ArgumentParser(
        prog="maskloop",
        description="Click-driven mask annotation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        _add_opts(sub.add_parser(name, help=cmd.help), DEFAULTS[name])
    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run the command it names; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow `eval ciou ...` as sugar for `eval-ciou ...`
    if argv[:1] == ["eval"] and len(argv) > 1:
        argv = [f"eval-{argv[1]}", *argv[2:]]
    # with no command first, the tree only prints help or a usage error
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv[1:] if command else argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        effective = _merge_config(args, DEFAULTS[command])
        if "mask_color" in effective:  # a flag's value, checked like a file's
            _parse_color(effective["mask_color"])
        COMMANDS[command].run(_Options(effective))
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (MaskLoopError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(dispatch())
