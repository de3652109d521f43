"""Wire protocol client for remote segmenters, policies, and scorers.

Three JSON-over-HTTP endpoints:

  POST /v1/segment  {image_pgm_b64, clicks: [{sign, x, y}], box?}
                    -> {mask_rle: {size: [h, w], counts: [...]}}
  POST /v1/act      {image_ppm_b64, prompt, n_samples} -> {texts: [...]}
  POST /v1/score    {image_ppm_b64, prompt} -> {text: "Current mIoU: NN"}

Images travel base64-encoded in their PGM/PPM container bytes.
Coordinates are normalized decimals rounded to 6 digits and clamped to
at most 0.999999, so they stay inside [0, 1).

The client speaks HTTP/1.1 through the standard library's http.client.
Each thread keeps one keep-alive connection per (scheme, host, port)
until it ends, so threads never share one and endpoints on one host
do. An idle connection the server has closed is noticed before reuse
and replaced. Proxy settings (http_proxy, https_proxy, all_proxy, no_proxy)
are read when a connection opens; https verifies against
ssl.create_default_context(). The endpoint's timeout bounds every
socket operation. Transport failures and HTTP 5xx are retried up to
max_retries, after a backoff of 0.05 s doubling to at most 1 s; 4xx and
protocol violations fail immediately.
"""

from __future__ import annotations

import base64
import http.client
import json
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Sequence

from .errors import ProtocolError, RemoteError
from .raster import (
    BitMask,
    GrayImage,
    NormBox,
    RgbImage,
    RleMask,
    encode_pgm,
    encode_ppm,
    rle_decode,
)

_local = threading.local()


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
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def image_to_pgm_b64(image: GrayImage) -> str:
    return base64.b64encode(encode_pgm(image)).decode("ascii")


def image_to_ppm_b64(image: RgbImage) -> str:
    return base64.b64encode(encode_ppm(image)).decode("ascii")


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


class _Pool(dict):
    """(connection, target prefix) pairs by (scheme, host, port).

    Each thread owns one; its connections close when the thread ends.
    """

    def __del__(self):
        for conn, _ in self.values():
            conn.close()


def _pool() -> _Pool:
    pool = getattr(_local, "connections", None)
    if pool is None:
        pool = _local.connections = _Pool()
    return pool


def _connection(key: tuple, url: urllib.parse.SplitResult, timeout: float) -> tuple[http.client.HTTPConnection, str]:
    """This thread's connection for key, connected, with timeout set."""
    pool = _pool()
    conn, prefix = pool.get(key, (None, ""))
    # an idle keep-alive socket reads as ready only once the server has
    # closed it (or broken protocol); reopening is then not a retry
    if conn is not None and (conn.sock is None or select.select([conn.sock], [], [], 0)[0]):
        conn.close()
        conn = None
    if conn is None:
        conn, prefix = pool[key] = _open(url)
        conn.timeout = timeout
        conn.connect()  # http.client sets TCP_NODELAY
    conn.sock.settimeout(timeout)
    return conn, prefix


def _drop(key: tuple) -> None:
    conn, _ = _pool().pop(key, (None, ""))
    if conn is not None:
        conn.close()


def _post(endpoint: RemoteEndpoint, path: str, payload: dict) -> dict:
    url = urllib.parse.urlsplit(endpoint.base_url)
    key = (url.scheme, url.hostname, url.port)
    where = endpoint.base_url.rstrip("/") + path
    body = json.dumps(payload, allow_nan=False).encode()
    last_error: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(min(0.05 * 2 ** (attempt - 1), 1.0))
        try:
            conn, prefix = _connection(key, url, endpoint.timeout)
            conn.request("POST", prefix + url.path.rstrip("/") + path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as e:
            _drop(key)
            last_error = RemoteError(f"POST {where} failed: {e}")
            continue
        if resp.status >= 500:
            _drop(key)
            last_error = RemoteError(f"POST {where} -> {resp.status}")
            continue
        if resp.status >= 400:
            raise RemoteError(f"POST {where} -> {resp.status}: {data[:200].decode('utf-8', 'replace')}")
        try:
            reply = json.loads(data)
        except ValueError:
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
    image: GrayImage,
    clicks: Sequence,
    box: NormBox | None = None,
) -> BitMask:
    """Ask the remote segmenter for a mask; dimensions must match the image."""
    payload: dict = {
        "image_pgm_b64": image_to_pgm_b64(image),
        "clicks": _click_payload(clicks),
    }
    b = _box_payload(box)
    if b is not None:
        payload["box"] = b
    body = _post(endpoint, "/v1/segment", payload)
    try:
        rle = RleMask.from_dict(body["mask_rle"])
    except (KeyError, TypeError) as e:
        raise ProtocolError(f"segment reply missing mask_rle: {e}")
    except ValueError as e:
        raise ProtocolError(f"segment reply carries bad rle: {e}")
    if rle.size != image.shape:
        raise ProtocolError(f"segment reply sized {rle.size}, image is {image.shape}")
    return rle_decode(rle)


def call_policy(endpoint: RemoteEndpoint, composite: RgbImage, prompt: str, k: int) -> list[str]:
    """Sample k action texts for an overlay image; returns raw strings."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    body = _post(
        endpoint,
        "/v1/act",
        {"image_ppm_b64": image_to_ppm_b64(composite), "prompt": prompt, "n_samples": k},
    )
    texts = body.get("texts")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ProtocolError("act reply must carry a list of strings under 'texts'")
    return texts


def call_prm(endpoint: RemoteEndpoint, composite: RgbImage, prompt: str) -> float:
    """Ask the remote scorer to rate an overlay; returns a [0, 1] ratio."""
    from .policy import parse_stated_miou  # local import to avoid a cycle

    body = _post(
        endpoint,
        "/v1/score",
        {"image_ppm_b64": image_to_ppm_b64(composite), "prompt": prompt},
    )
    text = body.get("text")
    if not isinstance(text, str):
        raise ProtocolError("score reply must carry a string under 'text'")
    return parse_stated_miou(text)
