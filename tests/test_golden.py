"""The whole pipeline's bytes, pinned.

One sweep runs every local command on two task sets (sides 32 and 48, 5
tasks, seed 3) with the oracle and the region-grow segmenter, then a remote
rollout and a remote search against an in-process ``mock_server.serve``. It
runs from a fresh working directory with relative paths only, because input
paths are hashed into each header's ``config_hash``. Every file written and
each command's stdout is hashed and compared with ``tests/golden.json``; the
sweep runs under ``--jobs 1`` and ``--jobs 2`` against the same pins.

The remote commands hash the mock's URL, port included, into their
``config_hash``, and the port differs from run to run. So the remote outputs
are hashed with the ``config_hash`` value blanked; every other byte counts.

The remote commands run once more through ``conftest.faulty_mock``, which
answers some requests with a 500 or 503 or closes the connection before or
during the reply; with retries to spare, their outputs match the same pins.
Then, with the injector's schedule started over, they run with
``--max-retries 0``: each task that met a fault fails, is counted and
named, and every other task's record is the clean run's.

A change that alters outputs on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import time
import types

import pytest

from conftest import FAULTS, MAX_FAULTS, faulty_mock
from maskloop import mock_server, remote
from maskloop.cli import dispatch
from maskloop.env import load_tasks

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
REMOTE_DIR = "remote"
_CONFIG_HASH = re.compile(rb'"config_hash": "[0-9a-f]+"')
# the tasks whose requests meet a fault first, for each remote command run
# in turn: faults are keyed on request bodies, so --jobs does not change them
ZERO_RETRY_FAILURES = {
    "rollout": ["synth-0000", "synth-0002", "synth-0003", "synth-0004"],
    "search": ["synth-0000", "synth-0001", "synth-0003", "synth-0004"],
}


def _local_commands(side: int, seg: str, jobs: str) -> list[tuple[str, list[str]]]:
    t = f"tasks{side}/manifest.json"
    d = f"{side}-{seg}"
    s = ["--segmenter", seg, "--seed", "3"]
    j = ["--jobs", jobs]
    traj = f"{d}/traj.jsonl"
    runs = [
        ("gen-traj", ["--tasks", t, "--out", traj, "--init", "mix", *s, *j]),
        ("render-sft", ["--traj", traj, "--tasks", t, "--out", f"{d}/sft", "--miou-line", *j]),
        (
            "rollout",
            ["--tasks", t, "--out", f"{d}/rollout.jsonl", "--policy", "noisy_expert", "--noise-flip", "0.3", *s, *j],
        ),
    ]
    for mode in ("star", "star_plus"):
        for keep in ("positive", "tau_diff"):
            runs.append(
                (
                    "star",
                    [
                        "--tasks", t, "--seed-data", traj + ".manifest.json", "--out", f"{d}/star-{mode}-{keep}",
                        "--mode", mode, "--keep-rule", keep, "--n-iters", "2", "--noise-flip", "0.3", *s, *j,
                    ],
                )
            )
    runs += [
        (
            "search",
            [
                "--tasks", t, "--out", f"{d}/search.json", "--masks-out", f"{d}/masks", "--trace", "--k", "3",
                "--policy", "noisy_expert", "--noise-flip", "0.2", "--prm", "noisy", *s, *j,
            ],
        ),
        ("eval-noc", ["--tasks", t, "--hist-out", f"{d}/noc.csv", "--segmenter", seg, *j]),
        ("eval-ciou", ["--pred", f"{d}/masks", "--gt", f"tasks{side}/targets"]),
        ("eval-filter", ["--tasks", t, "--masks", f"{d}/masks", "--prm", "noisy", "--threshold", "0.9"]),
    ]
    return runs


def _remote_commands(url: str, jobs: str) -> list[tuple[str, list[str]]]:
    t = "tasks32/manifest.json"
    remote = ["--segmenter", "remote", "--segmenter-url", url, "--policy", "remote", "--policy-url", url]
    common = ["--tasks", t, "--seed", "3", "--jobs", jobs, *remote]
    return [
        ("rollout", [*common, "--out", f"{REMOTE_DIR}/rollout.jsonl"]),
        ("search", [*common, "--out", f"{REMOTE_DIR}/search.json", "--k", "2", "--prm", "remote", "--prm-url", url]),
    ]


def _run(digests: dict, label: str, argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    assert code == 0, argv
    digests[f"stdout/{label}"] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _local_runs(jobs: int) -> list[tuple[str, list[str]]]:
    runs: list[tuple[str, list[str]]] = []
    for side in (32, 48):
        runs.append(("synth", ["--n", "5", "--side", str(side), "--seed", "3", "--out", f"tasks{side}"]))
        for seg in ("oracle", "region_grow"):
            runs += _local_commands(side, seg, str(jobs))
    runs.append(("eval-regression", ["--data", "regression.json"]))
    return runs


def _run_remote(digests: dict, url: str, jobs: int, *extra: str) -> None:
    """The remote commands against url, numbered after the local runs."""
    for i, (command, argv) in enumerate(_remote_commands(url, str(jobs)), start=len(_local_runs(jobs))):
        _run(digests, f"{i:02d}:{command}", [command, *argv, *extra])


def _remote_output(command: str) -> tuple[dict, dict]:
    """A remote command's records keyed by task id, and its header's failures."""
    if command == "rollout":
        with open(f"{REMOTE_DIR}/rollout.jsonl.manifest.json", encoding="utf-8") as fh:
            header = json.load(fh)["header"]
        with open(f"{REMOTE_DIR}/rollout.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    else:
        with open(f"{REMOTE_DIR}/search.json", encoding="utf-8") as fh:
            out = json.load(fh)
        header, records = out["header"], out["results"]
    return {r["task_id"]: r for r in records}, header.get("failures", {})


def _hash_files(digests: dict, top: str = ".") -> None:
    for root, _, names in os.walk(top):
        for name in names:
            path = os.path.relpath(os.path.join(root, name)).replace(os.sep, "/")
            with open(path, "rb") as fh:
                data = fh.read()
            if path.startswith(REMOTE_DIR + "/"):
                data = _CONFIG_HASH.sub(b'"config_hash": ""', data)
            digests[path] = hashlib.sha256(data).hexdigest()


def sweep(jobs: int) -> dict[str, str]:
    """Run the sweep in the current directory; the sha256 of every file it
    wrote and of each command's stdout, keyed by path or ``stdout/<n>:<command>``."""
    with open("regression.json", "w", encoding="utf-8") as fh:
        json.dump({"pred": [0.1, 0.5, 0.9, 0.3], "truth": [0.2, 0.4, 0.8, 0.6]}, fh)
    digests: dict[str, str] = {}
    for i, (command, argv) in enumerate(_local_runs(jobs)):
        _run(digests, f"{i:02d}:{command}", [command, *argv])
    server, thread = mock_server.serve(load_tasks("tasks32/manifest.json"), port=0)
    try:
        _run_remote(digests, "http://%s:%d" % server.server_address[:2], jobs)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    _hash_files(digests)
    return dict(sorted(digests.items()))


def _compare(pinned: dict, got: dict) -> None:
    changed = sorted(k for k in pinned.keys() & got.keys() if pinned[k] != got[k])
    missing = sorted(pinned.keys() - got.keys())
    extra = sorted(got.keys() - pinned.keys())
    assert not (changed or missing or extra), f"changed: {changed}; missing: {missing}; new: {extra}"


def _pins() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("jobs", [1, 2])
def test_pipeline_bytes_are_pinned(tmp_path, monkeypatch, jobs):
    pinned = _pins()
    monkeypatch.chdir(tmp_path)
    _compare(pinned, sweep(jobs))


@pytest.mark.parametrize("jobs", [1, 2])
def test_remote_bytes_hold_under_faults(tmp_path, monkeypatch, jobs):
    # no request meets more than MAX_FAULTS faults, so with more retries
    # than that each ends in a reply, and the outputs are the clean run's
    pinned = _pins()
    monkeypatch.chdir(tmp_path)
    backoffs: list[float] = []  # recorded, not slept
    monkeypatch.setattr(remote, "time", types.SimpleNamespace(sleep=backoffs.append, monotonic=time.monotonic))
    synth = _local_runs(jobs)[0]
    assert synth[1][-1] == "tasks32"
    _run({}, "synth", [synth[0], *synth[1]])
    digests: dict[str, str] = {}
    tasks = load_tasks("tasks32/manifest.json")
    with faulty_mock(tasks) as (url, injected, restart):
        _run_remote(digests, url, jobs, "--max-retries", str(MAX_FAULTS + 1))
        _hash_files(digests, REMOTE_DIR)
        assert {fault for fault, _ in injected} == set(FAULTS)  # each kind of fault was met
        assert len(backoffs) == len(injected)  # and cost exactly one retry
        _compare({k: v for k, v in pinned.items() if k.startswith(REMOTE_DIR + "/") or k in digests}, digests)

        # without retries a task fails at its first fault; the others'
        # records are the clean run's, which the run above has just matched
        clean = {command: _remote_output(command)[0] for command in ZERO_RETRY_FAILURES}
        task_of = {task.image_pgm_b64: task.id for task in tasks}  # each request carries its image
        assert len(task_of) == len(tasks)
        restart()
        for command, argv in _remote_commands(url, str(jobs)):
            met = len(injected)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert dispatch([command, *argv, "--max-retries", "0"]) == 0
            faulted = sorted({task_of[json.loads(body)["image_pgm_b64"]] for _, body in injected[met:]})
            records, failures = _remote_output(command)
            assert faulted == ZERO_RETRY_FAILURES[command]
            assert sorted(failures) == faulted
            assert json.loads(out.getvalue())["n_failures"] == len(faulted)
            assert records == {k: v for k, v in clean[command].items() if k not in faulted}


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pins = sweep(jobs=1)
        os.chdir(home)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    print(f"{len(pins)} digests written to {GOLDEN}", file=sys.stderr)
