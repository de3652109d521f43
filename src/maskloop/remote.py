"""Wire protocol client for remote segmenters, policies, and scorers.

Three JSON-over-HTTP endpoints:

  POST /v1/segment  {image_pgm_b64, clicks: [{sign, x, y}], box?}
                    -> {mask_rle: {size: [h, w], counts: [...]}}
  POST /v1/act      {image_ppm_b64, prompt, n_samples} -> {texts: [...]}
  POST /v1/score    {image_ppm_b64, prompt} -> {text: "Current mIoU: NN"}

Images travel base64-encoded in their PGM/PPM container bytes.
Coordinates are normalized decimals rounded to 6 digits and clamped to
at most 0.999999, so they stay inside [0, 1). Each thread posts through
its own requests.Session, so a client thread keeps one pooled keep-alive
connection per host and threads never share one. Transport failures
(a stale pooled connection included) and HTTP 5xx are retried up to
max_retries; 4xx and protocol violations fail immediately.
"""

from __future__ import annotations

import base64
import threading
from dataclasses import dataclass
from typing import Sequence

import requests

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
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def image_to_pgm_b64(image: GrayImage) -> str:
    return base64.b64encode(encode_pgm(image)).decode("ascii")


def image_to_ppm_b64(image: RgbImage) -> str:
    return base64.b64encode(encode_ppm(image)).decode("ascii")


def _session() -> requests.Session:
    """This thread's session; it pools one keep-alive connection per host."""
    session = getattr(_local, "session", None)
    if session is None:
        session = _local.session = requests.Session()
    return session


def _post(endpoint: RemoteEndpoint, path: str, payload: dict) -> dict:
    url = endpoint.base_url.rstrip("/") + path
    last_error: Exception | None = None
    for _ in range(endpoint.max_retries + 1):
        try:
            resp = _session().post(url, json=payload, timeout=endpoint.timeout)
        except requests.RequestException as e:
            last_error = RemoteError(f"POST {url} failed: {e}")
            continue
        if resp.status_code >= 500:
            last_error = RemoteError(f"POST {url} -> {resp.status_code}")
            continue
        if resp.status_code >= 400:
            raise RemoteError(f"POST {url} -> {resp.status_code}: {resp.text[:200]}")
        try:
            body = resp.json()
        except ValueError:
            raise ProtocolError(f"POST {url}: non-JSON reply")
        if not isinstance(body, dict):
            raise ProtocolError(f"POST {url}: reply is not a JSON object")
        return body
    raise last_error if last_error is not None else RemoteError(f"POST {url} failed")


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
