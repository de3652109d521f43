from __future__ import annotations

import json

from maskloop.util import mean, write_json


def test_mean_of_nothing_is_zero():
    assert mean([]) == 0.0
    assert mean([1, 2]) == 1.5
    assert mean([True, False, False, False]) == 0.25


def test_write_json_is_sorted_indented_and_ends_in_a_newline(tmp_path):
    obj = {"b": [1, {"d": 2.5, "c": None}], "a": "x"}
    path = tmp_path / "o.json"
    write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
