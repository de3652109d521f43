"""Wire protocol client for remote segmenters, policies, and scorers.

Three JSON-over-HTTP endpoints:

  POST /v1/segment  {image_pgm_b64, clicks: [{sign, x, y}], box?}
                    -> {mask_rle: {size: [h, w], counts: [...]}}
  POST /v1/act      {image_pgm_b64, mask_rle, mask_color: [r, g, b], alpha,
                     prompt, n_samples} -> {texts: [...]}
  POST /v1/score    {image_pgm_b64, mask_rle, mask_color, alpha, prompt}
                    -> {text: "Current mIoU: NN"}

Images travel base64-encoded in their PGM bytes, encoded once per task
(Task.image_pgm_b64). act and score send the mask and the overlay style,
not a rendered overlay: a server renders it as raster.render_overlay
renders the SFT samples. Coordinates are normalized decimals rounded to 6
digits and clamped to at most 0.999999, so they stay inside [0, 1).

The client frames HTTP/1.1 itself; http.client only opens connections.
Each thread keeps one keep-alive connection per (scheme, host, port)
until it ends, so threads never share one and endpoints on one host
do. An idle connection the server has closed is noticed before reuse
and replaced. Proxy settings (http_proxy, https_proxy, all_proxy, no_proxy)
are read when a connection opens; https verifies against
ssl.create_default_context(). A request goes out in one send; the reply
is read through a buffer the connection's reader owns, skipping 1xx
replies, with a chunked, Content-Length or read-to-close body. A reply
that says Connection: close, an HTTP/1.0 reply and one read to the close
drop the connection. The endpoint's timeout bounds each attempt as a
whole, from connecting to the reply's last byte. Transport failures,
timeouts and HTTP 5xx are retried up to max_retries, after a backoff of
0.05 s doubling to at most 1 s; 4xx and protocol violations (a garbled
status line, a line over MAX_LINE bytes, more than MAX_HEADERS header
lines, conflicting Content-Length values) fail immediately, and so does a
reply whose fields, read through maskloop.fields, lack their protocol type.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import fields
from .errors import ActionParseError, FieldError, ProtocolError, RemoteError
from .raster import GREEN, BitMask, NormBox, RleMask, rle_decode, rle_encode

if TYPE_CHECKING:
    from .env import Task

_local = threading.local()

# a status, request or header line may be this long, and a message may
# carry this many header lines (http.client's and http.server's limits)
MAX_LINE = 65536
MAX_HEADERS = 100

# json.dumps builds a new encoder per call when given any non-default option
_JSON = json.JSONEncoder(allow_nan=False)


@dataclass(frozen=True)
class RemoteEndpoint:
    """Where a service lives and how patient to be with it."""

    base_url: str
    timeout: float = 10.0
    max_retries: int = 2

    def __post_init__(self):
        if not self.base_url:
            raise ValueError("base_url may not be empty")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be http://host[:port] or https://..., got {self.base_url!r}")
        if url.username is not None or url.password is not None:
            raise ValueError(f"base_url may not carry credentials (user:pass@), got {url.scheme}://***@{url.hostname}")
        try:
            url.port
        except ValueError as e:
            raise ValueError(f"base_url has a bad port: {e}")
        if not (self.base_url.isascii() and self.base_url.isprintable() and " " not in self.base_url):
            raise ValueError(f"base_url must be printable ASCII without spaces, got {self.base_url!r}")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # also refuses nan
            raise ValueError(f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} s, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        # split once for every request: the URL and its connection pool key
        object.__setattr__(self, "_url", url)
        object.__setattr__(self, "_key", (url.scheme, url.hostname, url.port))


def _open(url: urllib.parse.SplitResult) -> tuple[http.client.HTTPConnection, str]:
    """A new connection to url's host, through the proxy the environment
    names for it, and the prefix its request targets take."""
    port = url.port or (443 if url.scheme == "https" else 80)
    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass(url.hostname):
        proxy = None
    if proxy:
        proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if url.scheme == "https":
        context = ssl.create_default_context()
        if not proxy:
            return http.client.HTTPSConnection(url.hostname, port, context=context), ""
        conn = http.client.HTTPSConnection(proxy.hostname, proxy.port or 80, context=context)
        conn.set_tunnel(url.hostname, port)
        return conn, ""
    if not proxy:
        return http.client.HTTPConnection(url.hostname, port), ""
    # a forward proxy takes the absolute URL as the request target
    return http.client.HTTPConnection(proxy.hostname, proxy.port or 80), f"http://{url.netloc}"


def header_tokens(headers: dict[str, list[str]], name: str) -> set[str]:
    """The lower-cased comma-separated tokens of every `name` header;
    headers map lower-cased names to their values."""
    return {t.strip().lower() for value in headers.get(name, ()) for t in value.split(",")}


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _Reader:
    """Reads replies off one socket through a buffer it owns; each recv
    waits at most until the deadline of the attempt being read."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.deadline = 0.0

    def _recv(self) -> bool:
        """Append what the socket has to the buffer; False at end of input."""
        self.sock.settimeout(_time_left(self.deadline))
        data = self.sock.recv(1 << 16)
        self.buf += data
        return bool(data)

    def _take(self, n: int) -> bytes:
        while len(self.buf) < n:
            if not self._recv():
                raise ConnectionError("connection closed before the reply ended")
        data = bytes(self.buf[:n])
        del self.buf[:n]
        return data

    def _line(self) -> bytes:
        end = self.buf.find(b"\n")
        while end < 0 and len(self.buf) <= MAX_LINE:
            seen = len(self.buf)
            if not self._recv():
                raise ConnectionError("connection closed before the reply ended")
            end = self.buf.find(b"\n", seen)
        if not 0 <= end < MAX_LINE:
            raise ProtocolError(f"reply line over {MAX_LINE} bytes")
        return self._take(end + 1)

    def _headers(self) -> dict[str, list[str]]:
        headers: dict[str, list[str]] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return headers
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise ProtocolError(f"bad header line {line[:100]!r}")
            headers.setdefault(name.strip().lower(), []).append(value.strip())
        raise ProtocolError(f"more than {MAX_HEADERS} header lines")

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            size = self._line().split(b";", 1)[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(f"bad chunk size {size[:20]!r}")
            n = int(size, 16)
            if n == 0:
                break
            chunks.append(self._take(n))
            if self._line() not in (b"\r\n", b"\n"):
                raise ProtocolError("chunk longer than its size")
        self._headers()  # trailer fields, unused
        return b"".join(chunks)

    def reply(self, deadline: float) -> tuple[int, bytes, bool]:
        """The next reply's status and body, and whether the connection
        may carry another request."""
        self.deadline = deadline
        status = 100
        while status < 200:  # 1xx replies are interim
            line = self._line()
            parts = line.split(None, 2)
            if len(parts) < 2 or parts[0] not in (b"HTTP/1.0", b"HTTP/1.1") or not (
                len(parts[1]) == 3 and parts[1].isdigit() and parts[1] >= b"100"
            ):
                raise ProtocolError(f"garbled status line {line[:100]!r}")
            status = int(parts[1])
            headers = self._headers()
        keep_alive = parts[0] == b"HTTP/1.1" and "close" not in header_tokens(headers, "connection")
        if status in (204, 304):
            body = b""
        elif "transfer-encoding" in headers:
            if header_tokens(headers, "transfer-encoding") != {"chunked"}:
                raise ProtocolError(f"unsupported Transfer-Encoding: {', '.join(headers['transfer-encoding'])!r}")
            body = self._chunked()
        elif "content-length" in headers:
            lengths = header_tokens(headers, "content-length")
            n = lengths.pop() if len(lengths) == 1 else ""
            if not (n.isascii() and n.isdigit()):
                raise ProtocolError(f"bad Content-Length: {', '.join(headers['content-length'])!r}")
            body = self._take(int(n))
        else:  # the body ends where the server closes the connection
            while self._recv():
                pass
            body = self._take(len(self.buf))
            keep_alive = False
        return status, body, keep_alive and not self.buf


class _Pool(dict):
    """(connection, target prefix, reader) triples by (scheme, host, port).

    Each thread owns one; its connections close when the thread ends.
    """

    def __del__(self):
        for conn, _, _ in self.values():
            conn.close()


def _pool() -> _Pool:
    pool = getattr(_local, "connections", None)
    if pool is None:
        pool = _local.connections = _Pool()
    return pool


def _connection(key: tuple, url: urllib.parse.SplitResult, deadline: float) -> tuple:
    """This thread's (connection, target prefix, reader) for key, connected."""
    pool = _pool()
    entry = pool.get(key)
    # an idle keep-alive socket reads as ready only once the server has
    # closed it (or broken protocol); reopening is then not a retry
    if entry is not None and _ready(entry[0].sock):
        _drop(key)
        entry = None
    if entry is None:
        conn, prefix = _open(url)
        conn.timeout = _time_left(deadline)
        try:
            conn.connect()  # http.client sets TCP_NODELAY
        except BaseException:
            conn.close()
            raise
        entry = pool[key] = (conn, prefix, _Reader(conn.sock))
    return entry


def _ready(sock: socket.socket) -> bool:
    """Input or a hangup waits on sock; poll, unlike select, takes any descriptor."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _drop(key: tuple) -> None:
    entry = _pool().pop(key, None)
    if entry is not None:
        entry[0].close()


def _post(endpoint: RemoteEndpoint, path: str, payload: dict) -> dict:
    url, key = endpoint._url, endpoint._key
    where = endpoint.base_url.rstrip("/") + path
    body = _JSON.encode(payload).encode()
    last_error: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(min(0.05 * 2 ** (attempt - 1), 1.0))
        deadline = time.monotonic() + endpoint.timeout
        try:
            conn, prefix, reader = _connection(key, url, deadline)
            head = (
                f"POST {prefix}{url.path.rstrip('/')}{path} HTTP/1.1\r\n"
                f"Host: {url.netloc}\r\n"
                "Accept-Encoding: identity\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            out = memoryview(head.encode("ascii") + body)
            while out:  # not sendall: on a TLS socket its timeout bounds each send, not the whole
                conn.sock.settimeout(_time_left(deadline))
                out = out[conn.sock.send(out) :]
            status, data, keep_alive = reader.reply(deadline)
        except (OSError, http.client.HTTPException) as e:
            _drop(key)
            last_error = RemoteError(f"POST {where} failed: {e}")
            continue
        except ProtocolError as e:
            _drop(key)
            raise ProtocolError(f"POST {where}: {e}") from None
        if status >= 500 or not keep_alive:
            _drop(key)
        if status >= 500:
            last_error = RemoteError(f"POST {where} -> {status}")
            continue
        if status >= 400:
            raise RemoteError(f"POST {where} -> {status}: {data[:200].decode('utf-8', 'replace')}")
        try:
            reply = json.loads(data)
        except (ValueError, RecursionError):  # RecursionError: nesting too deep
            raise ProtocolError(f"POST {where}: non-JSON reply")
        if not isinstance(reply, dict):
            raise ProtocolError(f"POST {where}: reply is not a JSON object")
        return reply
    raise last_error if last_error is not None else RemoteError(f"POST {where} failed")


def _coord(v: float) -> float:
    # 0.9999995 and up round to 1.0; the clamp keeps the pixel for sides < 500,000
    return min(round(v, 6), 0.999999)


def _click_payload(clicks: Sequence) -> list[dict]:
    out = []
    for a in clicks:
        if not a.is_click:
            continue
        out.append({"sign": a.sign, "x": _coord(a.point.x), "y": _coord(a.point.y)})
    return out


def _box_payload(box: NormBox | None) -> dict | None:
    if box is None:
        return None
    return {"x1": _coord(box.x1), "y1": _coord(box.y1), "x2": _coord(box.x2), "y2": _coord(box.y2)}


def call_segment(
    endpoint: RemoteEndpoint,
    task: Task,
    clicks: Sequence,
    box: NormBox | None = None,
) -> BitMask:
    """Ask the remote segmenter for a mask of task's image; its dimensions must match the image."""
    payload: dict = {
        "image_pgm_b64": task.image_pgm_b64,
        "clicks": _click_payload(clicks),
    }
    b = _box_payload(box)
    if b is not None:
        payload["box"] = b
    body = _post(endpoint, "/v1/segment", payload)
    try:
        rle = RleMask.from_dict(fields.obj(body, "mask_rle"), "mask_rle")
    except ValueError as e:  # a FieldError or an RleError
        raise ProtocolError(f"segment reply carries bad rle: {e}")
    if rle.size != task.image.shape:
        raise ProtocolError(f"segment reply sized {rle.size}, image is {task.image.shape}")
    return rle_decode(rle)


def _overlay_payload(task: Task, mask: BitMask, prompt: str, mask_color: tuple, alpha: float) -> dict:
    """The prompt and what a server renders the overlay from: the image, the mask and the style."""
    rle, color = rle_encode(mask).to_dict(), list(mask_color)
    return {"image_pgm_b64": task.image_pgm_b64, "mask_rle": rle, "mask_color": color, "alpha": alpha, "prompt": prompt}


def call_policy(
    endpoint: RemoteEndpoint, task: Task, mask: BitMask, prompt: str, k: int, mask_color: tuple = GREEN, alpha=0.5
) -> list[str]:
    """Sample k action texts for mask on task's image, overlaid in mask_color at alpha; returns raw strings."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    payload = {**_overlay_payload(task, mask, prompt, mask_color, alpha), "n_samples": k}
    reply = _post(endpoint, "/v1/act", payload)
    try:
        texts = fields.array(reply, "texts")
        return [fields.string(texts, i, "texts") for i in range(len(texts))]
    except FieldError as e:
        raise ProtocolError(f"act reply: {e}")


def call_prm(
    endpoint: RemoteEndpoint, task: Task, mask: BitMask, prompt: str, mask_color: tuple = GREEN, alpha=0.5
) -> float:
    """Ask the remote scorer to rate mask on task's image, overlaid in mask_color at alpha; returns a [0, 1] ratio."""
    from .policy import parse_stated_miou  # local import to avoid a cycle

    reply = _post(endpoint, "/v1/score", _overlay_payload(task, mask, prompt, mask_color, alpha))
    try:
        return parse_stated_miou(fields.string(reply, "text"))
    except (FieldError, ActionParseError) as e:
        raise ProtocolError(f"score reply: {e}")
