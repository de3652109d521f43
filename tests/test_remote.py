from __future__ import annotations

import base64
import http.client
import json
import logging
import math
import sys
import threading
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import urllib3.connection
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskloop.env import Action, InitSpec, Task, reset
from maskloop.errors import ProtocolError, RemoteError
from maskloop.mock_server import (
    MAX_BODY_BYTES,
    MAX_N_SAMPLES,
    MockRequestError,
    MockService,
    serve,
)
from maskloop.policy import PromptConfig, RemotePolicy, RemotePrm, parse_action
from maskloop.raster import BitMask, GrayImage, RgbImage, iou, render_overlay, rle_encode
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
    server.server_close()
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


# --- composite matching ---------------------------------------------------------


def _match_by_render(tasks, composite, color, alpha):
    """The matching rule as one re-render per task, in manifest order."""
    for task in tasks:
        if task.image.shape != composite.data.shape[:2]:
            continue
        candidate = BitMask((composite.data != task.image.data[..., None]).any(axis=2))
        if render_overlay(task.image, candidate, color, alpha) == composite:
            return task, candidate
    return None


@st.composite
def _matching_cases(draw):
    # few gray levels, so first rows and whole images repeat across tasks,
    # and colors that may equal a gray level, so overlay and gray coincide
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=3))
    level = st.sampled_from(levels)
    tasks = []
    for i in range(draw(st.integers(1, 4))):
        h, w = draw(st.sampled_from([(2, 3), (3, 3)]))
        image = GrayImage(draw(arrays(np.uint8, (h, w), elements=level)))
        tasks.append(Task(f"t{i}", image, BitMask.full(w, h), "p"))
    color = tuple(draw(st.tuples(*[level | st.integers(0, 255)] * 3)))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    source = draw(st.sampled_from(tasks)).image
    mask = BitMask(draw(arrays(bool, source.shape)))
    composite = render_overlay(source, mask, color, alpha).data.copy()
    if draw(st.booleans()):
        h, w = source.shape
        at = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)), draw(st.integers(0, 2)))
        composite[at] ^= draw(st.integers(1, 255))
    return tasks, color, alpha, RgbImage(composite)


@settings(max_examples=400, deadline=None)
@given(_matching_cases())
def test_pixel_matching_agrees_with_matching_by_re_render(case):
    tasks, color, alpha, composite = case
    svc = MockService(tasks, PromptConfig(mask_color=color, alpha=alpha))
    expected = _match_by_render(tasks, composite, color, alpha)
    if expected is None:
        with pytest.raises(MockRequestError):
            svc._match_composite(composite)
    else:
        task, mask = svc._match_composite(composite)
        assert task is expected[0]
        assert mask == expected[1]


def test_matching_renders_nothing_per_request(monkeypatch):
    import maskloop.mock_server as mock_server

    tasks = synth_tasks(5, side=16, seed=56)
    svc = MockService(tasks)
    calls = []
    monkeypatch.setattr(mock_server, "render_overlay", lambda *a, **k: calls.append(a))
    for task in tasks:
        composite = render_overlay(task.image, task.target)
        assert svc.score({"image_ppm_b64": image_to_ppm_b64(composite)}) == {"text": "Current mIoU: 100"}
    assert calls == []


def test_tasks_sharing_an_image_resolve_to_the_first(caplog):
    base = synth_tasks(1, side=16, seed=55)[0]
    ys, xs = np.nonzero(base.target.data)
    other = np.zeros(base.target.shape, dtype=bool)
    other[tuple(np.argwhere(~base.target.data)[0])] = True  # one background pixel
    first = Task("first", base.image, base.target, "a")
    second = Task("second", base.image, BitMask(other), "b")
    with caplog.at_level(logging.WARNING, logger="maskloop.mock_server"):
        svc = MockService([first, second])
    assert "second (image of first)" in caplog.text
    # a click on the first task's target selects it under the first's oracle
    x, y = _pc(base, int(xs[0]), int(ys[0]))
    payload = {"image_pgm_b64": image_to_pgm_b64(base.image), "clicks": [{"sign": 1, "x": x, "y": y}]}
    assert svc.segment(payload) == {"mask_rle": rle_encode(first.target).to_dict()}
    composite = image_to_ppm_b64(render_overlay(base.image, first.target))
    assert svc.score({"image_ppm_b64": composite}) == {"text": "Current mIoU: 100"}
    assert svc.act({"image_ppm_b64": composite}) == {"texts": ["Current mIoU: 100"]}


# --- malformed requests ------------------------------------------------------------

_PROPERTY_TASKS = synth_tasks(2, side=16, seed=53)
_PROPERTY_SVC = MockService(_PROPERTY_TASKS)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# JSON numbers are unbounded: json.loads yields ints beyond any float, NaN and Infinity
_NUMBER = st.floats(0.0, 1.0) | st.floats() | st.integers(-(10**400), 10**400)
# images that get past the first checks, and PNM-shaped junk
_PGM = st.just(image_to_pgm_b64(_PROPERTY_TASKS[0].image))
_PPM = st.sampled_from(
    [
        image_to_ppm_b64(render_overlay(_PROPERTY_TASKS[1].image, _PROPERTY_TASKS[1].target)),
        image_to_ppm_b64(render_overlay(_PROPERTY_TASKS[0].image, BitMask.zeros(16, 16))),
    ]
)
_JUNK = st.sampled_from(
    [base64.b64encode(b"P6\n2 2\n255\n" + bytes(5)).decode(), base64.b64encode(b"P5\n16 16\n255\n").decode()]
)
_CLICK = st.fixed_dictionaries(
    {"sign": st.sampled_from([1, -1]) | _JSON, "x": _NUMBER | _JSON, "y": _NUMBER | _JSON}
)
_BOX = st.fixed_dictionaries({k: _NUMBER | _JSON for k in ("x1", "y1", "x2", "y2")})
_N_SAMPLES = st.integers(-2, MAX_N_SAMPLES + 2) | _NUMBER | _JSON
# (path, payload): a request to each endpoint whose fields are each well
# formed or arbitrary, and arbitrary objects to any path
_REQUESTS = st.one_of(
    st.tuples(
        st.just("/v1/segment"),
        st.fixed_dictionaries(
            {"image_pgm_b64": _PGM | _PPM | _JUNK | _JSON},
            optional={"clicks": st.lists(_CLICK | _JSON, max_size=3) | _JSON, "box": _BOX | _JSON},
        ),
    ),
    st.tuples(
        st.sampled_from(["/v1/act", "/v1/score"]),
        st.fixed_dictionaries(
            {"image_ppm_b64": _PPM | _PGM | _JUNK | _JSON},
            optional={"n_samples": _N_SAMPLES, "prompt": _JSON},
        ),
    ),
    st.tuples(
        st.sampled_from(["/v1/segment", "/v1/act", "/v1/score"]) | st.text(max_size=10),
        st.dictionaries(st.text(max_size=12), _JSON, max_size=4),
    ),
)


@settings(max_examples=1000, deadline=None)
@given(_REQUESTS)
def test_mock_service_answers_any_json_object_or_raises_request_error(request):
    path, payload = request
    try:
        reply = _PROPERTY_SVC.handle(path, payload)
    except MockRequestError:
        return
    assert isinstance(reply, dict)
    json.dumps(reply)


def test_mock_service_caps_n_samples():
    task = _PROPERTY_TASKS[0]
    composite = image_to_ppm_b64(render_overlay(task.image, task.target))
    assert len(_PROPERTY_SVC.act({"image_ppm_b64": composite, "n_samples": MAX_N_SAMPLES})["texts"]) == MAX_N_SAMPLES
    for n in (0, MAX_N_SAMPLES + 1, 10**12, "3"):
        with pytest.raises(MockRequestError):
            _PROPERTY_SVC.act({"image_ppm_b64": composite, "n_samples": n})


def _raw_post(conn, path, body=b"", headers=None):
    """POST on an http.client connection; returns (status, Connection header, reply)."""
    conn.putrequest("POST", path)
    for key, value in (headers or {"Content-Length": str(len(body))}).items():
        conn.putheader(key, value)
    conn.endheaders(body)
    resp = conn.getresponse()
    return resp.status, resp.getheader("Connection"), json.loads(resp.read())


def _raw_connection(endpoint):
    url = urllib.parse.urlsplit(endpoint.base_url)
    return http.client.HTTPConnection(url.hostname, url.port, timeout=5.0)


def _score_body(task):
    return json.dumps({"image_ppm_b64": image_to_ppm_b64(render_overlay(task.image, task.target))}).encode()


def test_bad_payloads_get_400_and_keep_the_connection(mock):
    tasks, endpoint = mock
    conn = _raw_connection(endpoint)
    try:
        assert _raw_post(conn, "/v1/score", _score_body(tasks[0]))[:2] == (200, None)
        sock = conn.sock
        too_many = {"image_ppm_b64": "", "n_samples": MAX_N_SAMPLES + 1}
        for path, body in [
            ("/v1/score", b'{"image_ppm_b64": "\xff"}'),  # not UTF-8
            ("/v1/score", b"{nope"),
            ("/v1/score", b"[1, 2]"),
            ("/v1/score", b"[" * 100_000),
            ("/v1/act", json.dumps(too_many).encode()),
            ("/v1/segment", json.dumps({"image_pgm_b64": "", "clicks": [{"sign": 1, "x": 1e400}]}).encode()),
        ]:
            status, connection, reply = _raw_post(conn, path, body)
            assert (status, connection) == (400, None), (body[:40], reply)
        assert _raw_post(conn, "/v1/score", _score_body(tasks[0]))[:2] == (200, None)
        assert conn.sock is sock  # every request above went over one connection
    finally:
        conn.close()


@pytest.mark.parametrize(
    "headers, status",
    [
        ({"Content-Length": "abc"}, 400),
        ({"Content-Length": "-5"}, 400),  # read(-5) would wait for the client to hang up
        ({"Content-Length": " 12x"}, 400),
        ({"Content-Length": "2", "content-length": "2"}, 400),
        ({"Transfer-Encoding": "chunked"}, 400),
        ({"Content-Length": str(MAX_BODY_BYTES + 1)}, 413),
    ],
)
def test_unknown_body_framing_gets_4xx_and_closes(mock, headers, status):
    tasks, endpoint = mock
    conn = _raw_connection(endpoint)
    try:
        assert _raw_post(conn, "/v1/score", _score_body(tasks[0]))[:2] == (200, None)
        assert _raw_post(conn, "/v1/score", b"", headers)[:2] == (status, "close")
        assert conn.sock is None  # http.client closed it as told
    finally:
        conn.close()


# --- transport error handling ---------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list  # (status, body-bytes) tuples, consumed in order; status None hangs up
    hits: list

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        status, body = self.script[min(len(self.hits), len(self.script) - 1)]
        self.hits.append(self.path)
        if status is None:
            return  # HTTP/1.0: the connection closes without a reply
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
        server.server_close()
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


def test_dropped_connection_is_retried(scripted):
    ok = json.dumps({"text": "Current mIoU: 40"}).encode()
    handler, endpoint = scripted([(None, b""), (200, ok)])
    assert call_prm(endpoint, _any_ppm(), "p") == 0.4
    assert len(handler.hits) == 2


def test_dropped_connection_without_retries_is_remote_error(scripted):
    handler, endpoint = scripted([(None, b"")])
    with pytest.raises(RemoteError):
        call_prm(RemoteEndpoint(endpoint.base_url, timeout=5.0, max_retries=0), _any_ppm(), "p")
    assert len(handler.hits) == 1


# --- connections -------------------------------------------------------------------


def test_one_pooled_connection_per_client_thread(mock, monkeypatch):
    # more client threads than cores, switching often: each keeps its own
    # connection and gets the replies to its own requests
    tasks, endpoint = mock
    connects = []
    real = urllib3.connection.HTTPConnection.connect

    def counted(conn):
        connects.append(threading.get_ident())
        return real(conn)

    monkeypatch.setattr(urllib3.connection.HTTPConnection, "connect", counted)
    n_threads = 4
    barrier = threading.Barrier(n_threads)

    def calls(task):
        barrier.wait(timeout=10.0)  # all threads alive at once, so their idents differ
        ys, xs = np.nonzero(task.target.data)
        for k in range(1, 6):
            part = np.zeros(task.target.shape, dtype=bool)
            part[ys[:: k], xs[:: k]] = True
            mask = BitMask(part)
            expected = round_half_up(100.0 * iou(mask, task.target)) / 100.0
            assert call_prm(endpoint, render_overlay(task.image, mask), "p") == expected
            clicks = [Action.positive(*_pc(task, int(xs[k]), int(ys[k])))]
            assert call_segment(endpoint, task.image, clicks) == oracle_segment(task.target, clicks)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [pool.submit(calls, task) for task in tasks[:n_threads]]
            for f in futures:
                f.result(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert len(connects) == n_threads
    assert len(set(connects)) == n_threads


def test_restarted_mock_is_reached_again_and_a_stopped_one_is_a_remote_error():
    tasks = synth_tasks(2, side=16, seed=54)
    composite = render_overlay(tasks[0].image, tasks[0].target)
    server, thread = serve(tasks)
    host, port = server.server_address
    endpoint = RemoteEndpoint(base_url=f"http://{host}:{port}", timeout=5.0, max_retries=1)

    def stop():
        server.shutdown()  # also closes the server side of the pooled connection
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def calls():
        nonlocal server, thread
        assert call_prm(endpoint, composite, "p") == 1.0  # pools a connection
        stop()
        server, thread = serve(tasks, port=port)
        assert call_prm(endpoint, composite, "p") == 1.0  # past the stale connection
        stop()
        with pytest.raises(RemoteError):
            call_prm(endpoint, composite, "p")

    with ThreadPoolExecutor(max_workers=1) as pool:  # a new thread: a fresh session
        try:
            pool.submit(calls).result(timeout=60.0)
        finally:
            if thread.is_alive():
                stop()


def test_remote_endpoint_validation():
    with pytest.raises(ValueError):
        RemoteEndpoint(base_url="")
    with pytest.raises(ValueError):
        RemoteEndpoint(base_url="http://x", timeout=0.0)
    with pytest.raises(ValueError):
        RemoteEndpoint(base_url="http://x", max_retries=-1)
