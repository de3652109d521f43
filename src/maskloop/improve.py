"""Policy improvement: rollouts, trajectory repair, iteration driver.

Rollouts and repairs run on trajgen's episode driver (run_episode), the
same loop that generates expert trajectories. Policies are pure, so one
policy serves every task, and rollouts and repairs run on threads
(util.map_tasks, which also collects remote failures per task) without
changing a byte. Two refinement modes over a batch of policy rollouts:

  * filter mode keeps whole rollouts whose final reward clears tau_star
    and trains on the kept set alone;
  * repair mode (refine_star_plus_verbose) reads each rollout's record,
    keeps its actions up to the first one its keep rule rejects (a cut,
    which it reports), and always lets the expert finish the episode
    through run_episode; training then uses the seed dataset plus the
    repaired rollouts.

A keep rule is a function keep(reward_after, reward_before), as
run_episode takes it; named_keep_rule maps star's names to one. A
DatasetManifest holds the records its files carry. Neither mode trains
anything itself: a TrainHook hands the merged dataset path to an
external command (or just records it).
"""

from __future__ import annotations

import logging
import os
import shlex
import subprocess
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import env as envmod
from . import fields
from .env import EnvConfig, InitSpec, Task
from .errors import HookError, ReplayMismatchError
from .policy import Policy
from .raster import rle_decode
from .segmenters import Segmenter
from .trajgen import (
    Trajectory,
    expert_chooser,
    min_gain,
    read_jsonl,
    record_episode,
    run_episode,
    write_jsonl,
)
from .util import map_tasks, mean, mix_seed, with_failures, write_json

log = logging.getLogger(__name__)

PROVENANCES = ("generated", "rollout", "refined", "merged")


@dataclass(frozen=True)
class DatasetManifest:
    """Names a trajectory dataset: the JSONL files and the records they hold."""

    name: str
    files: tuple[str, ...]
    provenance: str
    trajectories: tuple[Trajectory, ...] = field(repr=False)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def save(self, path: str, header: dict | None = None) -> None:
        base = os.path.dirname(os.path.abspath(path))
        obj = {
            "name": self.name,
            "files": [os.path.relpath(f, base) for f in self.files],
            "provenance": self.provenance,
            "counts": {"trajectories": len(self.trajectories)},
        }
        if header is not None:
            obj["header"] = header
        write_json(path, obj)

    @classmethod
    def load(cls, path: str) -> "DatasetManifest":
        """Load and verify: every field must have its type, every file must
        parse and the files must hold the declared number of records."""
        obj = fields.read_json(path)
        with fields.source(path):
            name = fields.string(obj, "name")
            listed = fields.array(obj, "files")
            names = [fields.string(listed, i, "files") for i in range(len(listed))]
            provenance = fields.choice(obj, "provenance", PROVENANCES)
            declared = fields.integer(fields.obj(obj, "counts"), "trajectories", "counts")
        base = os.path.dirname(os.path.abspath(path))
        files = tuple(f if os.path.isabs(f) else os.path.join(base, f) for f in names)
        trajectories = tuple(traj for f in files for traj in read_jsonl(f))
        if len(trajectories) != declared:
            raise ValueError(f"{path}: manifest declares {declared} trajectories, files hold {len(trajectories)}")
        return cls(name=name, files=files, provenance=provenance, trajectories=trajectories)


@dataclass(frozen=True)
class TrainHook:
    """Where refined datasets go: an external command or nowhere.

    A command runs with ``{dataset}`` replaced by the dataset path; a
    nonzero exit aborts the iteration. With no command the path is only
    logged.
    """

    command: str | None = None

    def __post_init__(self):
        if self.command is not None and "{dataset}" not in self.command:
            raise ValueError("hook commands need a '{dataset}' placeholder")

    def invoke(self, dataset_path: str) -> None:
        if self.command is None:
            log.info("training hook (emit only): %s", dataset_path)
            return
        argv = [part.replace("{dataset}", dataset_path) for part in shlex.split(self.command)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise HookError(
                f"hook {argv[0]!r} exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )


def rollout(
    policy: Policy,
    tasks: Sequence[Task],
    segmenter: Segmenter,
    config: EnvConfig = EnvConfig(),
    seed: int = 0,
    init: Callable[[Task], InitSpec] = lambda task: InitSpec.empty(),
    jobs: int = 1,
) -> tuple[list[Trajectory], dict[str, str]]:
    """Greedy episodes: take the policy's top proposal each step.

    ``init(task)`` picks each episode's start; ``jobs`` threads share the
    policy and the segmenter, and the output does not depend on them.
    Records every step, improving or not; filtering is the refiners'
    job. Remote failures are collected per task and the run continues.
    Returns (trajectories in task order, failures keyed by task id).
    """

    def one(task: Task) -> Trajectory:
        def top_proposal(state: envmod.EpisodeState):
            proposals = policy.propose(task, state, 1, seed=seed)
            return proposals[0] if proposals else None

        return record_episode(task, segmenter, config, init(task), top_proposal)

    return map_tasks("rollout", one, tasks, lambda task: task.id, jobs)


def positive_gain(after: float, before: float) -> bool:
    """The repair's default keep rule: a step must gain something."""
    return after - before > 0.0


def named_keep_rule(name: str, tau_diff: float) -> Callable[[float, float], bool]:
    """The repair's keep rule by name: ``positive`` keeps a strictly
    positive gain, ``tau_diff`` a gain of at least the generator's margin."""
    rules = {"positive": positive_gain, "tau_diff": min_gain(tau_diff)}
    if name not in rules:
        raise ValueError(f"unknown keep rule {name!r}: expected one of {', '.join(rules)}")
    return rules[name]


def refine_star_plus_verbose(
    rollout_traj: Trajectory,
    task: Task,
    segmenter: Segmenter,
    config: EnvConfig = EnvConfig(),
    keep: Callable[[float, float], bool] = positive_gain,
) -> tuple[Trajectory, bool]:
    """Repair one rollout: keep improving actions, let the expert finish.

    Reads the rollout's record, so no kept step is segmented again. A
    recorded step is kept while ``keep(reward_after, reward_before)``
    holds (see named_keep_rule), and one after which ``config`` ends the
    episode must be the record's last. From the last kept mask, or the
    opening one, run_episode lets the expert finish under ``config``, cut
    or not. Returns (repaired trajectory, whether the keep rule cut the
    record).
    """
    if rollout_traj.task_id != task.id:
        raise ValueError(f"rollout for {rollout_traj.task_id!r} refined on {task.id!r}")
    recorded = rollout_traj.steps
    n = 0  # the kept prefix: steps before the first one the rule rejects
    for st in recorded:
        if not keep(st.reward_after, st.reward_before):
            break
        n += 1
        if config.stop_reason(st.reward_after, n) is not None and n < len(recorded):
            raise ReplayMismatchError(f"task {task.id}: rollout carries actions past the episode end")
    kept = recorded[:n]
    state = envmod.reset(task, rollout_traj.init, segmenter)
    if kept:
        actions = tuple(st.action for st in kept)
        mask = rle_decode(kept[-1].mask_after)
        state = replace(state, step=n, mask=mask, history=state.history + actions)
    rest = run_episode(task, segmenter, config, state, expert_chooser(task), min_gain(config.tau_diff))
    steps = kept + tuple(rest.steps)
    repaired = replace(rollout_traj, steps=steps, final_reward=rest.reward, stop_reason=rest.stop_reason)
    return repaired, n < len(recorded)


def star_filter(trajectories: Sequence[Trajectory], tau_star: float) -> list[Trajectory]:
    """Keep whole trajectories whose final reward reaches tau_star."""
    if not (0.0 <= tau_star <= 1.0):
        raise ValueError(f"tau_star out of [0, 1]: {tau_star}")
    return [t for t in trajectories if t.final_reward >= tau_star]


def check_star_options(mode: str, n_iters: int) -> None:
    """ValueError unless mode is 'star' or 'star_plus' and n_iters is at
    least 0: the rules of ``star_iteration``, which star's option block
    also applies before any file is read."""
    if mode not in ("star", "star_plus"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")


def star_iteration(
    mode: str,
    policy: Policy,
    seed_data: DatasetManifest,
    tasks: Sequence[Task],
    n_iters: int,
    hook: TrainHook,
    segmenter: Segmenter,
    config: EnvConfig = EnvConfig(),
    out_dir: str = ".",
    tau_star: float = 0.95,
    seed: int = 0,
    keep: Callable[[float, float], bool] = positive_gain,
    jobs: int = 1,
) -> tuple[DatasetManifest, list[dict]]:
    """Drive n_iters rollout -> refine -> hand-off rounds.

    mode 'star' filters rollouts by final reward and trains on the kept
    set; 'star_plus' repairs every rollout by ``keep`` and trains on
    seed_data plus the repaired set. Rollouts start from an empty mask.
    Rollouts and repairs run on ``jobs`` threads without changing the
    output; a remote failure in either leaves that task out of the
    iteration, counts in its report's n_failures and is named under its
    ``failures``, a key there only when a call failed. Returns the last
    training manifest (seed_data when n_iters is 0) and one report dict
    per iteration.
    """
    check_star_options(mode, n_iters)
    if n_iters == 0:
        return seed_data, []
    os.makedirs(out_dir, exist_ok=True)
    task_by_id = {t.id: t for t in tasks}
    seed_trajs = list(seed_data.trajectories) if mode == "star_plus" else []

    def repair(traj: Trajectory) -> tuple[Trajectory, bool]:
        return refine_star_plus_verbose(traj, task_by_id[traj.task_id], segmenter, config, keep)

    reports: list[dict] = []
    for it in range(1, n_iters + 1):
        rollouts, failures = rollout(policy, tasks, segmenter, config, mix_seed(seed, it), jobs=jobs)
        refined_path = os.path.join(out_dir, f"iter{it:02d}_refined.jsonl")
        if mode == "star":
            refined, n_corrections = star_filter(rollouts, tau_star), 0
            train, train_path, provenance = refined, refined_path, "refined"
        else:
            repairs, repair_failures = map_tasks(
                "repair", repair, rollouts, lambda traj: traj.task_id, jobs
            )
            failures.update(repair_failures)
            refined = [fixed for fixed, _ in repairs]
            n_corrections = sum(corrected for _, corrected in repairs)
            # the training set is always the seed dataset plus this
            # iteration's repaired rollouts
            train = seed_trajs + refined
            train_path = os.path.join(out_dir, f"iter{it:02d}_train.jsonl")
            provenance = "merged"
            write_jsonl(train, train_path)
        write_jsonl(refined, refined_path)
        manifest = DatasetManifest(
            name=f"{mode}-iter{it:02d}",
            files=(train_path,),
            provenance=provenance,
            trajectories=tuple(train),
        )
        manifest.save(os.path.join(out_dir, f"iter{it:02d}_manifest.json"))
        hook.invoke(train_path)
        report = {
            "iteration": it,
            "n_rollouts": len(rollouts),
            "n_failures": len(failures),
            "n_corrections": n_corrections,
            "mean_reward_raw": mean([t.final_reward for t in rollouts]),
            "mean_reward_refined": mean([t.final_reward for t in refined]),
        }
        reports.append(with_failures(report, failures))
    return manifest, reports
