"""In-process mock of the remote services, backed by local oracles.

The mock serves the same three endpoints real services would and needs a
task set to ground itself. A request's task is the first in manifest order
whose image it carries, found by the base64 text (as a client encodes it)
or else by the decoded PGM's sha256. /v1/act and /v1/score decode the mask
the request carries and answer with the expert click and the true IoU; the
mock renders no overlay. An unknown image gets 400, and so does an overlay
style other than the mock's (the reply names both), a mask sized unlike the
image, and any malformed request. Payload fields are read through
maskloop.fields, so a field of the wrong JSON type (a bool or a string
where the protocol has a number, a click sign other than the integer 1 or
-1) gets a 400 that names the field's path, such as ``clicks[0].sign``.

The HTTP server speaks keep-alive HTTP/1.1 and frames it itself: it reads
each request line and its header lines (names case-insensitive), and writes
each reply (status line, Date, Content-Type, Content-Length, Connection:
close when closing, body) in one send with Nagle's algorithm off. POST is
the only method; any other gets 501. A request line over MAX_LINE bytes
gets 414, a header line over MAX_LINE bytes or more than MAX_HEADERS of
them 431, any other malformed head 400. A request whose body length is
unknown gets 400, one with a body over MAX_BODY_BYTES gets 413. Each of
these replies closes the connection, and so does a reply to an HTTP/1.0
request or to one that says Connection: close.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import email.utils
import functools
import hashlib
import json
import logging
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from typing import Sequence

from . import fields
from .env import Action, Task
from .expert import click_for
from .policy import PromptConfig, format_action, miou_line
from .raster import (
    BitMask,
    NormBox,
    RleMask,
    iou,
    render_overlay,  # noqa: F401 - unused here; bench/mock_launcher.py wraps this name
    rle_decode,
    rle_encode,
)
from .remote import MAX_HEADERS, MAX_LINE, header_tokens
from .segmenters import OracleSegmenter

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
        self.segmenter = OracleSegmenter(r_neg)
        # each task's image by its base64 text, and by its PGM bytes' sha256
        self._by_b64: dict[str, Task] = {}
        shadowed: list[str] = []
        for task in self.tasks:
            first = self._by_b64.setdefault(task.image_pgm_b64, task)
            if first is not task:
                shadowed.append(f"{task.id} (image of {first.id})")
        if shadowed:
            log.warning("mock: tasks sharing an image answer as the first: %s", ", ".join(shadowed))
        self._by_pgm = {hashlib.sha256(base64.b64decode(b64)).digest(): task for b64, task in self._by_b64.items()}
        self._style = (list(prompt_config.mask_color), prompt_config.alpha)

    # -- endpoint handlers ------------------------------------------------

    def segment(self, payload: dict) -> dict:
        try:
            task, clicks, box = self._task(payload), _parse_clicks(payload), _parse_box(payload)
        except ValueError as e:  # a field the protocol refuses is a bad request
            raise MockRequestError(str(e)) from None
        mask = self.segmenter.segment(task, clicks, box)
        return {"mask_rle": rle_encode(mask).to_dict()}

    def act(self, payload: dict) -> dict:
        try:
            n = fields.integer(payload, "n_samples") if "n_samples" in payload else 1
            if not 1 <= n <= MAX_N_SAMPLES:
                raise MockRequestError(f"n_samples: {n} is outside 1 to {MAX_N_SAMPLES}")
            task, mask = self._overlay(payload)
        except ValueError as e:
            raise MockRequestError(str(e)) from None
        text = miou_line(iou(mask, task.target))
        action = click_for(task, mask)
        if action is not None:
            text += "\n" + format_action(action, self.prompt_config.coord_format)
        return {"texts": [text] * n}

    def score(self, payload: dict) -> dict:
        try:
            task, mask = self._overlay(payload)
        except ValueError as e:
            raise MockRequestError(str(e)) from None
        return {"text": miou_line(iou(mask, task.target))}

    def handle(self, path: str, payload: dict) -> dict:
        if path == "/v1/segment":
            return self.segment(payload)
        if path == "/v1/act":
            return self.act(payload)
        if path == "/v1/score":
            return self.score(payload)
        raise MockRequestError(f"unknown endpoint {path}")

    # -- request fields ----------------------------------------------------

    def _task(self, payload: dict) -> Task:
        """The first task whose image the request carries."""
        b64 = fields.string(payload, "image_pgm_b64")
        task = self._by_b64.get(b64)
        if task is None:
            try:
                task = self._by_pgm.get(hashlib.sha256(base64.b64decode(b64, validate=True)).digest())
            except (binascii.Error, ValueError):
                raise MockRequestError("image_pgm_b64 is not valid base64")
            if task is None:
                raise MockRequestError("unknown image")
        return task

    def _overlay(self, payload: dict) -> tuple[Task, BitMask]:
        """The task and the mask an act or score request carries, once its
        overlay style is found to be the mock's."""
        color, alpha = fields.integers(payload, "mask_color"), fields.number(payload, "alpha")
        if len(color) != 3:
            raise MockRequestError(f"mask_color: expected three integers, got {color}")
        if (color, alpha) != self._style:
            ours = "mask_color {}, alpha {}".format(*self._style)
            raise MockRequestError(f"overlay style mask_color {color}, alpha {alpha} is not this server's: {ours}")
        task = self._task(payload)
        rle = RleMask.from_dict(fields.obj(payload, "mask_rle"), "mask_rle")
        if rle.size != task.image.shape:
            raise MockRequestError(f"mask_rle sized {list(rle.size)}, image is {list(task.image.shape)}")
        return task, rle_decode(rle)


def _parse_clicks(payload: dict) -> list[Action]:
    items = fields.array(payload, "clicks") if "clicks" in payload else []
    clicks: list[Action] = []
    for i in range(len(items)):
        click, where = fields.obj(items, i, "clicks"), f"clicks[{i}]"
        sign = fields.choice(click, "sign", (1, -1), where)
        x, y = fields.number(click, "x", where), fields.number(click, "y", where)
        clicks.append(Action.positive(x, y) if sign == 1 else Action.negative(x, y))
    return clicks


def _parse_box(payload: dict) -> NormBox | None:
    if payload.get("box") is None:
        return None
    box = fields.obj(payload, "box")
    return NormBox(*(fields.number(box, k, "box") for k in ("x1", "y1", "x2", "y2")))


class _BadFraming(MockRequestError):
    """The request's head or body length is unknown or refused; the
    connection must close."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _body_length(headers: dict[str, list[str]]) -> int:
    if "transfer-encoding" in headers:
        raise _BadFraming("Transfer-Encoding is not supported; send Content-Length")
    values = headers.get("content-length", ["0"])
    digits = values[0].strip()
    if len(values) != 1 or not (digits.isascii() and digits.isdigit()):
        raise _BadFraming(f"bad Content-Length: {', '.join(values)!r}")
    n = int(digits)
    if n > MAX_BODY_BYTES:
        raise _BadFraming(f"body of {n} bytes exceeds {MAX_BODY_BYTES}", status=413)
    return n


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date header's value, formatted once per second."""
    return email.utils.formatdate(second, usegmt=True)


def _json_object(body: bytes) -> dict:
    try:
        payload = json.loads(body or b"{}")
    except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise MockRequestError("invalid JSON")
    if not isinstance(payload, dict):
        raise MockRequestError("payload must be a JSON object")
    return payload


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: reads each request's head, hands POSTs to
    do_POST and answers until the connection is to close."""

    service: MockService  # set by serve()
    disable_nagle_algorithm = True

    def handle(self):
        self.close_connection = False
        try:
            while not self.close_connection:
                try:
                    if not self._read_head():
                        return  # the client has gone
                except _BadFraming as e:
                    self.close_connection = True  # where the next request starts is unknown
                    self._send(e.status, {"error": str(e)})
                    return
                if self.command == "POST":
                    self.do_POST()
                else:
                    self.close_connection = True  # any body it has is unread
                    self._send(501, {"error": f"unsupported method {self.command}"})
        except OSError as e:  # the client reset or left mid-request
            log.debug("mock http: connection ends: %s", e)

    def _line(self, status: int) -> bytes:
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _BadFraming(f"line over {MAX_LINE} bytes", status)
        return line

    def _read_head(self) -> bool:
        """Read a request line and its headers into command, path and
        headers (lower-cased name -> values); False at end of input."""
        line = self._line(414)
        while line in (b"\r\n", b"\n"):  # blank lines before a request are ignored
            line = self._line(414)
        if not line:
            return False
        words = line.decode("latin-1").split()
        if len(words) != 3:
            raise _BadFraming(f"bad request line {line[:100]!r}")
        self.command, self.path, version = words
        if version == "HTTP/1.0":
            self.close_connection = True
        elif version != "HTTP/1.1":
            raise _BadFraming(f"unsupported protocol version {version[:20]!r}")
        self.headers: dict[str, list[str]] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line(431)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _BadFraming("request head ends early")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _BadFraming(f"bad header line {line[:100]!r}")
            self.headers.setdefault(name.lower(), []).append(value.strip())
        else:
            raise _BadFraming(f"more than {MAX_HEADERS} header lines", 431)
        if "close" in header_tokens(self.headers, "connection"):
            self.close_connection = True
        return True

    def do_POST(self):  # noqa: N802 - bench/mock_launcher.py wraps this name
        try:
            length = _body_length(self.headers)
            if "100-continue" in header_tokens(self.headers, "expect"):
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = self.rfile.read(length)
            if len(body) < length:
                raise _BadFraming(f"body ends after {len(body)} of {length} bytes")
            reply = self.service.handle(self.path, _json_object(body))
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
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        self.request.sendall(head.encode("latin-1") + b"\r\n" + body)


class _Server(socketserver.ThreadingTCPServer):
    """A thread per connection. Its shutdown() also ends the open keep-alive
    connections, so a stopped server answers nothing more, not even on a
    client's pooled connection."""

    allow_reuse_address = True
    daemon_threads = True

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
) -> tuple[socketserver.ThreadingTCPServer, threading.Thread]:
    """Start the mock server on a daemon thread; returns (server, thread).

    Port 0 picks a free port; read it back from server.server_address.
    Call server.shutdown() when done; it also closes open connections.
    """
    service = MockService(tasks, prompt_config, r_neg)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = _Server(("127.0.0.1", port), handler)
    # a short poll: shutdown() waits up to one interval when the server is idle
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    return server, thread
