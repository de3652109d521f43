"""Every reader of outside JSON refuses a field of another JSON type.

The records come from the program's own writers: a trajectory JSONL file,
a task manifest, a dataset manifest, a config file holding a command's
defaults, and the client's segment and act payloads. One field is
replaced by a look-alike of another JSON type: a bool or a string where a
number goes, a float where an integer goes, a number or a list where a
string goes, a list or a string where an object goes. The reader must
raise its named error naming the field, and the line for JSONL. It must
never raise any other exception and never accept the record.
"""

from __future__ import annotations

import argparse
import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskloop.cli import DEFAULTS, UsageError, _merge_config
from maskloop.env import Action, EnvConfig, InitSpec, load_tasks, write_task_dir
from maskloop.errors import FieldError, JsonlError
from maskloop.improve import DatasetManifest
from maskloop.mock_server import MockRequestError, MockService
from maskloop.raster import GREEN, bbox
from maskloop.remote import _box_payload, _click_payload, _overlay_payload
from maskloop.segmenters import OracleSegmenter
from maskloop.trajgen import generate_trajectory, read_jsonl, synth_tasks, trajectory_to_dict, write_jsonl

TASKS = synth_tasks(3, side=16, seed=5)
SERVICE = MockService(TASKS)
CONFIG_COMMANDS = ("render-sft", "search", "star", "synth")


def _look_alikes(value) -> list:
    """Values of another JSON type that a careless writer might put in value's place."""
    if isinstance(value, bool):
        return [int(value), str(value).lower()]
    if isinstance(value, int):
        return [float(value), True, str(value)]
    if isinstance(value, float):
        return [False, True, str(value)]
    if isinstance(value, str):
        return [7, 0.5, [value]]
    if isinstance(value, list):
        return [{}, "x"]
    return [[], "x"]  # an object


def _fields(value, where: str = ""):
    """The path and value of every field under value, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        at = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
        yield at, v
        yield from _fields(v, at)


def _replaced(record, at: str, value):
    """A deep copy of record with the field at path ``at`` set to value."""
    *keys, last = [int(p[1:-1]) if p.startswith("[") else p for p in at.replace("[", ".[").split(".")]
    out = node = copy.deepcopy(record)
    for key in keys:
        node = node[key]
    node[last] = value
    return out


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict:
    """kind -> list of the records its writer wrote, and the directory they live in."""
    d = str(tmp_path_factory.mktemp("records"))
    inits = [InitSpec.empty(), InitSpec.from_box(bbox(TASKS[1].target)), InitSpec.from_random_clicks(1, 1, 9)]
    trajs = [generate_trajectory(t, OracleSegmenter(), EnvConfig(), init) for t, init in zip(TASKS, inits)]
    jsonl = os.path.join(d, "traj.jsonl")
    write_jsonl(trajs, jsonl)
    DatasetManifest("traj", (jsonl,), "generated", tuple(trajs)).save(os.path.join(d, "data.json"), header={"seed": 0})
    manifest = write_task_dir(TASKS, os.path.join(d, "tasks"), header={"seed": 0})
    # a config file holding each command's defaults, and a string for an option with none
    configs = [{k: "x" if v is None else v for k, v in DEFAULTS[c].items() if k != "config"} for c in CONFIG_COMMANDS]
    task = TASKS[0]
    segment = {
        "image_pgm_b64": task.image_pgm_b64,
        "clicks": _click_payload([Action.positive(0.3, 0.4), Action.negative(0.6, 0.7)]),
        "box": _box_payload(bbox(task.target)),
    }
    act = {**_overlay_payload(task, task.target, "p", GREEN, 0.5), "n_samples": 2}
    with open(manifest) as fh:
        tasks = json.load(fh)
    with open(os.path.join(d, "data.json")) as fh:
        data = json.load(fh)
    return {
        "jsonl": [trajectory_to_dict(t) for t in trajs],
        "tasks": [tasks],
        "data": [data],
        "config": configs,
        "wire": [segment, act],
        "dir": d,
    }


def _read(kind: str, d: str, records: list, i: int):
    """Write record set ``records`` where kind's writer puts it and read it
    back as the program does; the i-th record is the one to look at."""
    if kind == "jsonl":
        path = os.path.join(d, "case.jsonl")
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        return read_jsonl(path)
    if kind == "wire":
        return SERVICE.handle(("/v1/segment", "/v1/act")[i], records[i])
    path = os.path.join(d, {"tasks": "tasks/case.json", "data": "case.json", "config": "case-config.json"}[kind])
    with open(path, "w") as fh:
        json.dump(records[i], fh)
    if kind == "tasks":
        return load_tasks(path)
    if kind == "data":
        return DatasetManifest.load(path)
    return _merge_config(argparse.Namespace(config=path), DEFAULTS[CONFIG_COMMANDS[i]])


# fields no reader looks at: manifest headers and the prompt the mock ignores
_UNREAD = ("header", "prompt")


def test_the_writers_records_read_back(records):
    for kind in ("jsonl", "tasks", "data", "config", "wire"):
        for i in range(len(records[kind])):
            _read(kind, records["dir"], records[kind], i)


def test_the_random_init_record_offers_its_opening_mask_to_the_property(records):
    # the third trajectory starts from random clicks, so the property below
    # also replaces its opening mask and the fields inside it
    paths = {at for at, _ in _fields(records["jsonl"][2])}
    assert {"opening_mask", "opening_mask.size", "opening_mask.counts[0]"} <= paths


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_field_of_another_json_type_is_named_and_refused(records, data):
    kind = data.draw(st.sampled_from(["jsonl", "tasks", "data", "config", "wire"]))
    i = data.draw(st.integers(0, len(records[kind]) - 1))
    record = records[kind][i]
    at, value = data.draw(st.sampled_from([f for f in _fields(record) if not f[0].startswith(_UNREAD)]))
    bad = _replaced(record, at, data.draw(st.sampled_from(_look_alikes(value))))
    cases = records[kind][:i] + [bad] + records[kind][i + 1 :]
    error = {"jsonl": JsonlError, "config": UsageError, "wire": MockRequestError}.get(kind, FieldError)
    with pytest.raises(error) as e:
        _read(kind, records["dir"], cases, i)
    message = str(e.value)
    if kind == "config":
        assert repr(at) in message, message  # a config key is named as it is spelled
    else:
        assert f"{at}: " in message, message
    if kind == "jsonl":
        assert e.value.line == i + 1 and f"line {i + 1}: " in message, message
    elif kind in ("tasks", "data"):
        assert message.startswith(records["dir"]), message  # and the file
