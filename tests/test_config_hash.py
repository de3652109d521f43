"""config_hash is the hash of the options a run read.

Each command that writes a header runs on a small task set (side 16, 3
tasks) from one or two base argument lists with local kinds, and a remote
rollout and a remote search run against the in-process mock. Each option
outside _UNHASHED and the input paths is then set, one at a time, to
another valid value. With ``config_hash`` and ``options`` blanked:

- outputs that differ from the base run's must come with another hash;
- a key that the base run's header does not list in ``options`` must leave
  the hash as it was.

Input paths (``tasks``, ``seed_data``) are left out: the file names, not
their contents, are what is hashed today (ROADMAP item 5).
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import shutil
import sys

import pytest

from maskloop import mock_server
from maskloop.cli import _UNHASHED, DEFAULTS, _header, _merge_config, _Options, build_parser, dispatch
from maskloop.env import load_tasks

INPUTS = ("tasks", "seed_data")

# the values each option takes in turn; a run uses the first that differs
# from its base's value. A bool option's other value is its flag.
OTHER = {
    "seed": ["1"],
    "n": ["4"],
    "side": ["20"],
    "segmenter": ["region_grow", "oracle"],
    "r_neg": ["3"],
    "delta": ["8"],
    "cap": ["40"],
    "timeout": ["5.0"],
    "max_retries": ["0"],
    "max_steps": ["3"],
    "tau_stop": ["0.8"],
    "tau_diff": ["0.2"],
    "policy": ["noisy_expert", "expert"],
    "noise_sigma": ["0.3"],
    "noise_flip": ["0.3"],
    "noise_seed": ["1"],
    "coord_format": ["integer_0_1000"],
    "mask_color": ["255,0,0"],
    "alpha": ["0.25"],
    "template": ["bare"],
    "prm": ["noisy", "oracle"],
    "prm_sigma": ["0.2"],
    "prm_seed": ["1"],
    "init": ["random", "empty"],
    "init_n_pos": ["2"],
    "init_n_neg": ["2"],
    "mode": ["star", "star_plus"],
    "n_iters": ["2"],
    "tau_star": ["0.5"],
    "keep_rule": ["tau_diff"],
    "hook_cmd": [f"{shlex.quote(sys.executable)} -c pass {{dataset}}"],
    "k": ["3"],
    "eps": ["0.1"],
    "patience": ["1"],
}
URLS = ("segmenter_url", "policy_url", "prm_url")  # another mock serving the same tasks


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The task set, a seed dataset for star, and two mocks serving the tasks."""
    root = tmp_path_factory.mktemp("hash")
    tasks, seed_data = str(root / "tasks" / "manifest.json"), str(root / "seed.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["synth", "--n", "3", "--side", "16", "--out", str(root / "tasks")]) == 0
        assert dispatch(["gen-traj", "--tasks", tasks, "--out", seed_data]) == 0
    mocks = [mock_server.serve(load_tasks(tasks)) for _ in range(2)]
    try:
        yield tasks, seed_data + ".manifest.json", ["http://%s:%d" % server.server_address[:2] for server, _ in mocks]
    finally:
        for server, thread in mocks:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


def _bases(tasks: str, seed_data: str, url: str) -> list[tuple[str, list[str]]]:
    remote = ["--tasks", tasks, "--segmenter", "remote", "--segmenter-url", url, "--policy", "remote", "--policy-url", url]
    star = ["--tasks", tasks, "--seed-data", seed_data]
    noisy = ["--policy", "noisy_expert", "--segmenter", "region_grow", "--init", "random"]
    return [
        ("synth", ["--n", "3", "--side", "16"]),
        ("gen-traj", ["--tasks", tasks]),
        ("gen-traj", ["--tasks", tasks, "--segmenter", "region_grow", "--init", "random"]),
        ("rollout", ["--tasks", tasks]),
        ("rollout", ["--tasks", tasks, *noisy]),
        ("star", star),
        ("star", [*star, "--mode", "star", "--segmenter", "region_grow"]),
        ("search", ["--tasks", tasks]),
        ("search", ["--tasks", tasks, *noisy, "--prm", "noisy"]),
        ("rollout", remote),
        ("search", [*remote, "--prm", "remote", "--prm-url", url]),
    ]


def _run(command: str, argv: list[str], out_dir) -> tuple[dict, str, list[str]]:
    """Run into a fresh out_dir; every output with the header's hash and
    options blanked (stdout included), the hash, and the options."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert dispatch([command, *argv, "--out", str(out_dir / ("o.json" if command == "search" else "o"))]) == 0, argv
    outputs, headers = {"stdout": stdout.getvalue()}, []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json" and "header" in (doc := json.loads(data)):
            headers.append((doc["header"].pop("config_hash"), doc["header"].pop("options")))
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        outputs[str(path.relative_to(out_dir))] = data
    assert len(headers) == 1, sorted(outputs)
    return outputs, *headers[0]


def _other(key: str, argv: list[str], base: dict, urls: list[str]) -> list[str]:
    """argv with option ``key`` set to another valid value."""
    flag = "--" + key.replace("_", "-")
    if isinstance(base[key], bool):
        assert not base[key], key
        return [*argv, flag]
    values = [urls[1]] if key in URLS else OTHER[key]
    return [*argv, flag, next(v for v in values if v != str(base[key]))]


BASE_COMMANDS = [command for command, _ in _bases("", "", "")]


@pytest.mark.parametrize("case", range(len(BASE_COMMANDS)), ids=[f"{i}-{c}" for i, c in enumerate(BASE_COMMANDS)])
def test_config_hash_changes_exactly_with_what_the_run_read(inputs, tmp_path, case):
    tasks, seed_data, urls = inputs
    command, argv = _bases(tasks, seed_data, urls[0])[case]
    base = _merge_config(build_parser(command).parse_args(argv), DEFAULTS[command])
    outputs, config_hash, options = _run(command, argv, tmp_path / "out")
    keys = [k for k in DEFAULTS[command] if k not in _UNHASHED and k not in INPUTS]
    assert set(options) <= set(keys) | set(INPUTS)
    for key in keys:
        other_outputs, other_hash, _ = _run(command, _other(key, argv, base, urls), tmp_path / "out")
        if other_outputs != outputs:
            assert other_hash != config_hash, f"{key}: outputs changed, hash did not"
        if key not in options:
            assert other_hash == config_hash, f"{key}: not read, yet the hash changed"


def test_a_default_rollout_hashes_only_what_it_reads(inputs, tmp_path):
    tasks, _, _ = inputs
    headers = set()
    for extra in ([], ["--noise-sigma", "0.3"], ["--delta", "3"], ["--policy-url", "http://x"], ["--jobs", "2"]):
        _, config_hash, options = _run("rollout", ["--tasks", tasks, *extra], tmp_path / "out")
        headers.add((config_hash, tuple(options)))
    assert headers == {
        (config_hash, ("init", "max_steps", "policy", "r_neg", "seed", "segmenter", "tasks", "tau_stop"))
    }


def test_reading_an_option_the_header_did_not_hash_raises():
    cfg = _Options({"seed": 3, "n": 5, "side": 16, "out": "o", "jobs": 2})
    assert cfg["n"] == 5
    header = _header("synth", cfg)
    assert header["options"] == ["n", "seed"] and header["seed"] == 3
    # hashed and unhashed keys stay readable
    assert (cfg["n"], cfg.get("seed"), cfg["out"], cfg.get("jobs")) == (5, 3, "o", 2)
    for read in (cfg.__getitem__, cfg.get):
        with pytest.raises(RuntimeError, match="option 'side' read after the header"):
            read("side")
