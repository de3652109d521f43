"""In-process mock of the remote services, backed by local oracles.

The mock serves the same three endpoints real services would and needs a
task set to ground itself: /v1/segment identifies the task by the exact
PGM bytes, while /v1/act and /v1/score recover the current mask from the
overlay composite and then answer with the expert click and the true IoU
respectively. A composite matches a task when every pixel equals either
the task's gray value or its fully masked overlay, which is exactly when
render_overlay(image, composite != gray) reproduces it; nothing is
re-rendered per request. When tasks share an image, the first in manifest
order answers for all of them. Matching fails with 400 for images outside
the task set, and so does any malformed request.

The HTTP server speaks keep-alive HTTP/1.1 with Nagle's algorithm off
(http.server writes headers and body separately, and the body would wait
for a delayed ACK). A request whose body length is unknown gets 400, one
with a body over MAX_BODY_BYTES gets 413, and either connection is closed.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import hashlib
import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

import numpy as np

from .env import Action, Task
from .errors import PnmError
from .expert import next_click
from .policy import PromptConfig, format_action, miou_percent
from .raster import (
    BitMask,
    GrayImage,
    NormBox,
    RgbImage,
    decode_ppm,
    encode_pgm,
    iou,
    render_overlay,
    rle_encode,
)
from .segmenters import oracle_segment

log = logging.getLogger(__name__)

# /v1/act answers at most this many samples, so a request cannot make the
# mock allocate an arbitrarily long reply
MAX_N_SAMPLES = 1024
# bodies above this size are refused unread (a 4096x4096 PPM in base64 is 64 MiB)
MAX_BODY_BYTES = 128 << 20


class MockRequestError(ValueError):
    """Bad request payload; mapped to HTTP 400."""


class MockService:
    """Protocol logic without the HTTP plumbing (handy for tests)."""

    def __init__(
        self,
        tasks: Sequence[Task],
        prompt_config: PromptConfig = PromptConfig(),
        r_neg: int = 2,
    ):
        if not tasks:
            raise ValueError("mock service needs at least one task")
        self.tasks = list(tasks)
        self.prompt_config = prompt_config
        self.r_neg = r_neg
        self._by_pgm: dict[str, Task] = {}
        shadowed: list[str] = []
        for task in self.tasks:
            digest = hashlib.sha256(encode_pgm(task.image)).hexdigest()
            first = self._by_pgm.setdefault(digest, task)
            if first is not task:
                shadowed.append(f"{task.id} (image of {first.id})")
        if shadowed:
            log.warning("mock: tasks sharing an image answer as the first: %s", ", ".join(shadowed))
        # the fully masked overlay of every gray level, packed, shape (256,)
        ramp = GrayImage(np.arange(256, dtype=np.uint8)[None, :])
        self._overlay_of = _pack(
            render_overlay(ramp, BitMask.full(256, 1), prompt_config.mask_color, prompt_config.alpha).data[0]
        )
        # per image shape: its tasks in manifest order and their first rows,
        # gray and fully masked, which rule out most tasks in one comparison
        self._by_shape: dict[tuple[int, int], tuple[list[Task], np.ndarray, np.ndarray]] = {}
        for shape in dict.fromkeys(task.image.shape for task in self.tasks):
            group = [task for task in self.tasks if task.image.shape == shape]
            rows = np.stack([task.image.data[0] for task in group])
            self._by_shape[shape] = (group, _pack_gray(rows), self._overlay_of[rows])

    # -- endpoint handlers ------------------------------------------------

    def segment(self, payload: dict) -> dict:
        pgm = _b64_bytes(payload, "image_pgm_b64")
        task = self._by_pgm.get(hashlib.sha256(pgm).hexdigest())
        if task is None:
            raise MockRequestError("unknown image")
        clicks = _parse_clicks(payload.get("clicks", []))
        box = _parse_box(payload.get("box"))
        mask = oracle_segment(task.target, clicks, box, r_neg=self.r_neg)
        return {"mask_rle": rle_encode(mask).to_dict()}

    def act(self, payload: dict) -> dict:
        n = payload.get("n_samples", 1)
        if not isinstance(n, int) or not (1 <= n <= MAX_N_SAMPLES):
            raise MockRequestError(f"bad n_samples: {n!r} (1 to {MAX_N_SAMPLES})")
        task, mask = self._match_composite(_decode_ppm(_b64_bytes(payload, "image_ppm_b64")))
        pct = miou_percent(iou(mask, task.target))
        action = next_click(mask, task.target)
        if action is None:
            text = f"Current mIoU: {pct}"
        else:
            text = f"Current mIoU: {pct}\n{format_action(action, self.prompt_config.coord_format)}"
        return {"texts": [text] * n}

    def score(self, payload: dict) -> dict:
        task, mask = self._match_composite(_decode_ppm(_b64_bytes(payload, "image_ppm_b64")))
        return {"text": f"Current mIoU: {miou_percent(iou(mask, task.target))}"}

    def handle(self, path: str, payload: dict) -> dict:
        if path == "/v1/segment":
            return self.segment(payload)
        if path == "/v1/act":
            return self.act(payload)
        if path == "/v1/score":
            return self.score(payload)
        raise MockRequestError(f"unknown endpoint {path}")

    # -- composite matching ------------------------------------------------

    def _match_composite(self, composite: RgbImage) -> tuple[Task, BitMask]:
        """The first task whose overlay renders to these exact bytes, and its mask."""
        c = _pack(composite.data)
        if c.shape in self._by_shape:
            group, gray, full = self._by_shape[c.shape]
            for i in np.flatnonzero(_explained(c[0], gray, full).all(axis=1)):
                g = group[i].image.data
                gray_i = _pack_gray(g)
                if _explained(c, gray_i, self._overlay_of[g]).all():
                    return group[i], BitMask(c != gray_i)
        raise MockRequestError("composite does not match any known task")


def _pack(rgb: np.ndarray) -> np.ndarray:
    """One 0xRRGGBB int per pixel, so that a pixel compares in one operation."""
    rgb = rgb.astype(np.int32)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def _pack_gray(gray: np.ndarray) -> np.ndarray:
    return gray.astype(np.int32) * 0x010101


def _explained(composite: np.ndarray, gray: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Per pixel: the packed composite shows the gray value or the fully masked overlay."""
    return (composite == gray) | (composite == full)


def _b64_bytes(payload: dict, key: str) -> bytes:
    raw = payload.get(key)
    if not isinstance(raw, str):
        raise MockRequestError(f"missing {key}")
    try:
        return base64.b64decode(raw, validate=True)
    except (binascii.Error, ValueError):
        raise MockRequestError(f"{key} is not valid base64")


def _decode_ppm(buf: bytes) -> RgbImage:
    try:
        return decode_ppm(buf, "<payload>")
    except PnmError as e:
        raise MockRequestError(str(e))


def _parse_clicks(items: object) -> list[Action]:
    if not isinstance(items, list):
        raise MockRequestError("clicks must be a list")
    clicks: list[Action] = []
    for item in items:
        try:
            sign = item["sign"]
            x = float(item["x"])
            y = float(item["y"])
        except (KeyError, TypeError, ValueError, OverflowError):  # json ints are unbounded
            raise MockRequestError(f"bad click {item!r}")
        if sign not in (1, -1):
            raise MockRequestError(f"bad click sign {sign!r}")
        try:
            clicks.append(Action.positive(x, y) if sign == 1 else Action.negative(x, y))
        except ValueError as e:
            raise MockRequestError(str(e))
    return clicks


def _parse_box(obj: object) -> NormBox | None:
    if obj is None:
        return None
    try:
        return NormBox(float(obj["x1"]), float(obj["y1"]), float(obj["x2"]), float(obj["y2"]))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise MockRequestError(f"bad box: {e}")


class _BadFraming(MockRequestError):
    """The body's length is unknown or refused; the connection must close."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _body_length(headers) -> int:
    if "Transfer-Encoding" in headers:
        raise _BadFraming("Transfer-Encoding is not supported; send Content-Length")
    values = headers.get_all("Content-Length") or ["0"]
    digits = values[0].strip()
    if len(values) != 1 or not (digits.isascii() and digits.isdigit()):
        raise _BadFraming(f"bad Content-Length: {', '.join(values)!r}")
    n = int(digits)
    if n > MAX_BODY_BYTES:
        raise _BadFraming(f"body of {n} bytes exceeds {MAX_BODY_BYTES}", status=413)
    return n


def _json_object(body: bytes) -> dict:
    try:
        payload = json.loads(body or b"{}")
    except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise MockRequestError("invalid JSON")
    if not isinstance(payload, dict):
        raise MockRequestError("payload must be a JSON object")
    return payload


class _Handler(BaseHTTPRequestHandler):
    service: MockService  # set by serve()
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 (http.server naming)
        try:
            length = _body_length(self.headers)
            reply = self.service.handle(self.path, _json_object(self.rfile.read(length)))
        except _BadFraming as e:
            self.close_connection = True  # where the next request starts is unknown
            self._send(e.status, {"error": str(e)})
            return
        except MockRequestError as e:
            self._send(400, {"error": str(e)})
            return
        except Exception as e:  # pragma: no cover - defensive
            log.exception("mock server error")
            self._send(500, {"error": str(e)})
            return
        self._send(200, reply)

    def _send(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # quiet by default
        log.debug("mock http: " + fmt, *args)


class _Server(ThreadingHTTPServer):
    """Its shutdown() also ends the open keep-alive connections, so a stopped
    server answers nothing more, not even on a client's pooled connection."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def shutdown(self):
        super().shutdown()
        with self._open_lock:
            for sock in self._open:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)


def serve(
    tasks: Sequence[Task],
    port: int = 0,
    prompt_config: PromptConfig = PromptConfig(),
    r_neg: int = 2,
) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the mock server on a daemon thread; returns (server, thread).

    Port 0 picks a free port; read it back from server.server_address.
    Call server.shutdown() when done; it also closes open connections.
    """
    service = MockService(tasks, prompt_config, r_neg)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = _Server(("127.0.0.1", port), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
