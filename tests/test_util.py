from __future__ import annotations

import json
import logging
import time

import pytest

from maskloop.errors import ProtocolError, RemoteError
from maskloop.util import map_tasks, mean, write_json


def test_mean_of_nothing_is_zero():
    assert mean([]) == 0.0
    assert mean([1, 2]) == 1.5
    assert mean([True, False, False, False]) == 0.25


def test_write_json_is_sorted_indented_and_ends_in_a_newline(tmp_path):
    obj = {"b": [1, {"d": 2.5, "c": None}], "a": "x"}
    path = tmp_path / "o.json"
    write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _task_id(item: int) -> str:
    return f"task-{item}"


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_keeps_item_order_whatever_finishes_first(jobs):
    delays = [0.03, 0.0, 0.02, 0.0, 0.01]

    def slow_square(i: int) -> int:
        time.sleep(delays[i])
        return i * i

    assert map_tasks("square", slow_square, range(5), _task_id, jobs) == ([0, 1, 4, 9, 16], {})


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_names_and_leaves_out_a_failed_remote_call(jobs, caplog):
    def fn(i: int) -> int:
        if i == 1:
            raise RemoteError("POST x failed")
        if i == 3:
            raise ProtocolError("POST x: non-JSON reply")
        return i

    with caplog.at_level(logging.WARNING):
        results, failures = map_tasks("probe", fn, range(5), _task_id, jobs)
    assert results == [0, 2, 4]
    assert failures == {"task-1": "POST x failed", "task-3": "POST x: non-JSON reply"}
    assert "probe failed for task task-1: POST x failed" in caplog.text
    assert "probe failed for task task-3" in caplog.text


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_raises_the_first_other_exception_in_item_order(jobs):
    def fn(i: int) -> int:
        if i in (1, 3):
            time.sleep(0.03 if i == 1 else 0.0)  # item 3 fails first in time
            raise ValueError(f"bad item {i}")
        return i

    with pytest.raises(ValueError, match="bad item 1"):
        map_tasks("probe", fn, range(5), _task_id, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_keeps_a_string_result_as_a_result(jobs):
    assert map_tasks("name", str, [1, 2], _task_id, jobs) == (["1", "2"], {})
