from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from maskloop.env import Action, InitSpec, reset
from maskloop.errors import ProtocolError, RemoteError
from maskloop.mock_server import MockRequestError, MockService, serve
from maskloop.policy import RemotePolicy, RemotePrm, parse_action
from maskloop.raster import BitMask, iou, render_overlay, rle_encode
from maskloop.remote import (
    RemoteEndpoint,
    call_policy,
    call_prm,
    call_segment,
    image_to_pgm_b64,
    image_to_ppm_b64,
)
from maskloop.segmenters import OracleSegmenter, RemoteSegmenter, oracle_segment
from maskloop.trajgen import synth_tasks
from maskloop.util import round_half_up


@pytest.fixture(scope="module")
def mock():
    tasks = synth_tasks(6, side=32, seed=50)
    server, thread = serve(tasks)
    host, port = server.server_address
    endpoint = RemoteEndpoint(base_url=f"http://{host}:{port}", timeout=5.0)
    yield tasks, endpoint
    server.shutdown()
    thread.join(timeout=5.0)


def _pc(task, px, py):
    w, h = task.image.width, task.image.height
    return (px + 0.5) / w, (py + 0.5) / h


# --- segment endpoint -----------------------------------------------------


def test_remote_segment_matches_local_oracle(mock):
    tasks, endpoint = mock
    remote_seg = RemoteSegmenter(endpoint)
    local = OracleSegmenter()
    for task in tasks[:3]:
        ys, xs = np.nonzero(task.target.data)
        x, y = _pc(task, int(xs[0]), int(ys[0]))
        clicks = [Action.positive(x, y)]
        assert remote_seg.segment(task, clicks, None) == local.segment(task, clicks, None)


def test_remote_segment_with_negative_click_and_box(mock):
    tasks, endpoint = mock
    task = tasks[0]
    ys, xs = np.nonzero(task.target.data)
    cx, cy = _pc(task, int(xs[len(xs) // 2]), int(ys[len(ys) // 2]))
    nx, ny = _pc(task, int(xs[0]), int(ys[0]))
    clicks = [Action.positive(cx, cy), Action.negative(nx, ny)]
    from maskloop.raster import NormBox

    box = NormBox(0.0, 0.0, 0.9, 0.9)
    got = call_segment(endpoint, task.image, clicks, box)
    assert got == oracle_segment(task.target, clicks, box, r_neg=2)


def test_remote_segment_unknown_image_is_client_error(mock):
    _, endpoint = mock
    from maskloop.raster import GrayImage

    stranger = GrayImage(np.full((32, 32), 123, dtype=np.uint8))
    with pytest.raises(RemoteError):
        call_segment(endpoint, stranger, [], None)


# --- act endpoint -----------------------------------------------------------


def test_remote_policy_returns_parseable_expert_click(mock):
    tasks, endpoint = mock
    task = tasks[1]
    policy = RemotePolicy(endpoint)
    state = reset(task, InitSpec.empty(), OracleSegmenter())
    proposals = policy.propose(task, state, 3)
    assert len(proposals) == 1  # mock repeats one deterministic answer
    assert proposals[0].stated_reward == 0.0
    out = OracleSegmenter().segment(task, [proposals[0].action], None)
    assert iou(out, task.target) > 0.0


def test_call_policy_text_count_and_grammar(mock):
    tasks, endpoint = mock
    task = tasks[2]
    composite = render_overlay(task.image, BitMask.zeros(32, 32), (0, 255, 0), 0.5)
    from maskloop.policy import render_prompt

    texts = call_policy(endpoint, composite, render_prompt("default", task.prompt), 4)
    assert len(texts) == 4
    stated, action = parse_action(texts[0], "decimal_0_1")
    assert stated == 0.0
    assert action.is_click


# --- score endpoint -----------------------------------------------------------


def test_remote_prm_reports_percent_rounded_iou(mock):
    tasks, endpoint = mock
    prm = RemotePrm(endpoint)
    for task in tasks[:3]:
        assert prm.score(task, task.target) == 1.0
        empty = BitMask.zeros(task.image.width, task.image.height)
        assert prm.score(task, empty) == 0.0


def test_remote_prm_quantizes_to_percent(mock):
    tasks, endpoint = mock
    task = tasks[0]
    half = task.target.data.copy()
    ys, xs = np.nonzero(half)
    half[ys[: len(ys) // 2], xs[: len(xs) // 2]] = False
    mask = BitMask(half)
    true_iou = iou(mask, task.target)
    got = RemotePrm(endpoint).score(task, mask)
    assert got == round_half_up(100.0 * true_iou) / 100.0
    assert abs(got - true_iou) <= 0.005


# --- service-level behaviors --------------------------------------------------


def test_mock_service_rejects_malformed_payloads():
    tasks = synth_tasks(1, side=32, seed=51)
    svc = MockService(tasks)
    with pytest.raises(MockRequestError):
        svc.segment({})
    with pytest.raises(MockRequestError):
        svc.segment({"image_pgm_b64": "!!!not-base64!!!"})
    pgm = image_to_pgm_b64(tasks[0].image)
    with pytest.raises(MockRequestError):
        svc.segment({"image_pgm_b64": pgm, "clicks": [{"sign": 2, "x": 0.5, "y": 0.5}]})
    with pytest.raises(MockRequestError):
        svc.handle("/v1/unknown", {})


def test_mock_service_rejects_foreign_composite():
    tasks = synth_tasks(1, side=32, seed=52)
    svc = MockService(tasks)
    noise = np.random.default_rng(0).integers(0, 256, (32, 32, 3), dtype=np.uint8)
    from maskloop.raster import RgbImage

    payload = {"image_ppm_b64": image_to_ppm_b64(RgbImage(noise))}
    with pytest.raises(MockRequestError):
        svc.score(payload)


def test_click_payload_wire_format():
    # the wire payload spells the click sign out as +-1 and rounds coords
    from maskloop.remote import _click_payload

    clicks = [Action.positive(0.123456789, 0.5), Action.negative(0.25, 0.75)]
    payload = _click_payload(clicks)
    assert payload == [
        {"sign": 1, "x": 0.123457, "y": 0.5},
        {"sign": -1, "x": 0.25, "y": 0.75},
    ]


def test_coords_next_to_one_stay_inside_the_unit_interval(mock):
    # 6-digit rounding would send these as 1.0, which the server refuses
    from maskloop.raster import NormBox

    tasks, endpoint = mock
    task = tasks[0]
    top = math.nextafter(1.0, 0.0)
    clicks = [Action.positive(top, top)]
    box = NormBox(0.0, 0.0, 1.0 - 1e-7, top)
    got = call_segment(endpoint, task.image, clicks, box)
    assert got == oracle_segment(task.target, clicks, box, r_neg=2)


# --- transport error handling ---------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list  # (status, body-bytes) tuples, consumed in order
    hits: list

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        status, body = self.script[min(len(self.hits), len(self.script) - 1)]
        self.hits.append(self.path)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def scripted():
    def start(script):
        handler = type("Scripted", (_ScriptedHandler,), {"script": script, "hits": []})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        host, port = server.server_address
        return handler, RemoteEndpoint(base_url=f"http://{host}:{port}", timeout=5.0, max_retries=2)

    servers = []
    yield start
    for server, thread in servers:
        server.shutdown()
        thread.join(timeout=5.0)


def _any_ppm():
    from maskloop.raster import RgbImage

    return RgbImage(np.zeros((4, 4, 3), dtype=np.uint8))


def test_server_errors_are_retried(scripted):
    ok = json.dumps({"text": "Current mIoU: 40"}).encode()
    handler, endpoint = scripted([(500, b"boom"), (500, b"boom"), (200, ok)])
    assert call_prm(endpoint, _any_ppm(), "p") == 0.4
    assert len(handler.hits) == 3


def test_server_errors_exhaust_retries(scripted):
    handler, endpoint = scripted([(503, b"down")])
    with pytest.raises(RemoteError):
        call_prm(endpoint, _any_ppm(), "p")
    assert len(handler.hits) == endpoint.max_retries + 1


def test_client_errors_fail_immediately(scripted):
    handler, endpoint = scripted([(400, b'{"error": "bad"}')])
    with pytest.raises(RemoteError):
        call_prm(endpoint, _any_ppm(), "p")
    assert len(handler.hits) == 1


def test_non_json_reply_is_protocol_error(scripted):
    _, endpoint = scripted([(200, b"<html>hello</html>")])
    with pytest.raises(ProtocolError):
        call_prm(endpoint, _any_ppm(), "p")


def test_wrong_size_segment_reply_rejected(scripted):
    from maskloop.raster import GrayImage

    image = GrayImage(np.zeros((4, 4), dtype=np.uint8))
    wrong = rle_encode(BitMask.zeros(3, 3)).to_dict()
    body = json.dumps({"mask_rle": wrong}).encode()
    _, endpoint = scripted([(200, body)])
    with pytest.raises(ProtocolError):
        call_segment(endpoint, image, [], None)


def test_transport_failure_is_remote_error():
    endpoint = RemoteEndpoint(base_url="http://127.0.0.1:9", timeout=0.2, max_retries=0)
    with pytest.raises(RemoteError):
        call_prm(endpoint, _any_ppm(), "p")


def test_remote_endpoint_validation():
    with pytest.raises(ValueError):
        RemoteEndpoint(base_url="")
    with pytest.raises(ValueError):
        RemoteEndpoint(base_url="http://x", timeout=0.0)
    with pytest.raises(ValueError):
        RemoteEndpoint(base_url="http://x", max_retries=-1)
