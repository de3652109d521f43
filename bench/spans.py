"""Spans around calls into maskloop's layers, recorded from outside the package.

A Tracer replaces each listed function at every ``maskloop.*`` module that
binds it (and each listed method on its class) with a wrapper that records
a span: name, start, end, parent (a worker thread's outermost span has the
span the main thread waits in as its parent). Spans stay in memory; ``aggregate``
turns one pass worth of them into per-layer numbers after the pass.

Self time is a wall-clock share: at every instant the time goes to the
innermost open spans (those with no open child, children in worker threads
included), split evenly when several threads are busy. The self times of
all spans therefore add up to the wall time the spans cover, also under
``--jobs 2``. Inclusive times (``.s`` of a group) count only the outermost
span of the group on each call path, summed over threads.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name): module-level functions, replaced at every
# maskloop module that binds the same object
FUNCTIONS = [
    ("maskloop.raster", "edt_sq", "raster.edt_sq"),
    ("maskloop.raster", "rle_encode", "raster.rle"),
    ("maskloop.raster", "rle_decode", "raster.rle"),
    ("maskloop.raster", "render_overlay", "raster.render_overlay"),
    ("maskloop.raster", "write_pgm", "raster.pnm"),
    ("maskloop.raster", "read_pgm_image", "raster.pnm"),
    ("maskloop.raster", "read_pgm_mask", "raster.pnm"),
    ("maskloop.raster", "write_ppm", "raster.pnm"),
    ("maskloop.raster", "read_ppm", "raster.pnm"),
    ("maskloop.expert", "next_click", "expert.next_click"),
    ("maskloop.env", "step", "env.step"),
    ("maskloop.env", "load_tasks", "env.load_tasks"),
    ("maskloop.policy", "prm_score", "policy.prm_score"),
    ("maskloop.search", "prm_greedy", "search.prm_greedy"),
    ("maskloop.improve", "rollout", "improve.rollout"),
    ("maskloop.improve", "refine_star_plus_verbose", "improve.refine"),
    ("maskloop.trajgen", "generate_trajectory", "trajgen.generate_trajectory"),
    ("maskloop.trajgen", "render_sft", "trajgen.render_sft"),
    ("maskloop.trajgen", "read_jsonl", "trajgen.jsonl"),
    ("maskloop.trajgen", "write_jsonl", "trajgen.jsonl"),
    ("maskloop.metrics", "noc", "metrics.noc"),
    ("maskloop.remote", "call_segment", "remote.segment"),
    ("maskloop.remote", "call_policy", "remote.act"),
    ("maskloop.remote", "call_prm", "remote.score"),
]

# (module, class, method, span name): methods patched on the class
METHODS = [
    ("maskloop.segmenters", "OracleSegmenter", "segment", "segmenters.segment"),
    ("maskloop.segmenters", "RegionGrowSegmenter", "segment", "segmenters.segment"),
    ("maskloop.segmenters", "RemoteSegmenter", "segment", "segmenters.segment"),
    ("maskloop.policy", "ExpertPolicy", "propose", "policy.propose"),
    ("maskloop.policy", "NoisyExpertPolicy", "propose", "policy.propose"),
    ("maskloop.policy", "RemotePolicy", "propose", "policy.propose"),
    ("maskloop.improve", "DatasetManifest", "load", "improve.manifest_load"),
]

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    t0: float
    parent: "Span | None"
    t1: float = 0.0
    count: float = 0.0  # a per-call quantity: pixels, bytes, clicks, samples
    reply_bytes: int = 0  # remote.http: bytes received
    keys: tuple = ()  # segmenters.segment: (task, sign, px, py) per click
    flag: bool = False  # improve.refine: the rollout was corrected
    children_open: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _main: list = field(default_factory=list)  # the main thread's open spans

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span belongs to what the main thread
            # is waiting in (cli.search under --jobs 2)
            parent = self._main[-1] if self._main else None
        span = Span(name, time.perf_counter(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, measure=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method; undo with uninstall()."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "maskloop" or n.startswith("maskloop.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, _MEASURES.get((modname, attr)))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            self._patches.append((cls, attr, raw))
            measure = _MEASURES.get((modname, attr))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, measure)))
            else:
                setattr(cls, attr, self.wrap(name, raw, measure))
        self._patch_http()

    def _patch_http(self) -> None:
        """Count HTTP attempts, bytes and new connections below maskloop.remote."""
        import requests
        import urllib3.connection

        post = requests.post
        tracer = self

        def traced_post(*args, **kwargs):
            span = tracer.open("remote.http")
            try:
                resp = post(*args, **kwargs)
            finally:
                tracer.close(span)
            span.count = len(resp.request.body or b"")
            span.reply_bytes = len(resp.content)
            return resp

        connect = urllib3.connection.HTTPConnection.connect

        def counted_connect(conn, *args, **kwargs):
            span = tracer.open("remote.connect")
            try:
                return connect(conn, *args, **kwargs)
            finally:
                tracer.close(span)

        self._patches.append((requests, "post", post))
        self._patches.append((urllib3.connection.HTTPConnection, "connect", connect))
        requests.post = traced_post
        urllib3.connection.HTTPConnection.connect = counted_connect

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# -- per-call quantities ------------------------------------------------------


def _edt_pixels(span, args, kwargs, result):
    h, w = args[0].shape
    span.count = h * w


def _file_bytes_after(span, args, kwargs, result):
    span.count = os.path.getsize(args[1])


def _file_bytes_read(span, args, kwargs, result):
    span.count = os.path.getsize(args[0])


def _segment_clicks(span, args, kwargs, result):
    _self, task, clicks = args[:3]
    h, w = task.image.shape
    keys = []
    for a in clicks:
        if a.is_click:
            px = min(max(math.floor(a.point.x * w), 0), w - 1)
            py = min(max(math.floor(a.point.y * h), 0), h - 1)
            keys.append((task.id, a.sign, px, py))
    span.count = len(keys)
    span.keys = tuple(keys)


def _result_len(span, args, kwargs, result):
    span.count = len(result)


def _refine_flag(span, args, kwargs, result):
    span.flag = bool(result[1])


_MEASURES = {
    ("maskloop.raster", "edt_sq"): _edt_pixels,
    ("maskloop.raster", "write_pgm"): _file_bytes_after,
    ("maskloop.raster", "write_ppm"): _file_bytes_after,
    ("maskloop.raster", "read_pgm_image"): _file_bytes_read,
    ("maskloop.raster", "read_pgm_mask"): _file_bytes_read,
    ("maskloop.raster", "read_ppm"): _file_bytes_read,
    ("maskloop.trajgen", "write_jsonl"): _file_bytes_after,
    ("maskloop.trajgen", "read_jsonl"): _file_bytes_read,
    ("maskloop.segmenters", "segment"): _segment_clicks,
    ("maskloop.policy", "propose"): _result_len,
    ("maskloop.trajgen", "render_sft"): _result_len,
    ("maskloop.improve", "refine_star_plus_verbose"): _refine_flag,
}


# -- aggregation --------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Wall-clock self time per span (keyed by id), by a sweep over span edges."""
    out = {id(s): 0.0 for s in spans}
    events = []
    for s in spans:
        if s.t1 > s.t0:  # a span that took no measurable time holds no share
            events.append((s.t0, 1, id(s), s))
            events.append((s.t1, 0, id(s), s))
    events.sort(key=lambda e: (e[0], e[1]))
    leaves: dict[int, Span] = {}
    open_ids: set[int] = set()
    last = events[0][0] if events else 0.0
    for t, is_start, sid, s in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for lid in leaves:
                out[lid] += share
        last = t
        p = s.parent if s.parent is not None and id(s.parent) in open_ids else None
        if is_start:
            open_ids.add(sid)
            leaves[sid] = s
            if p is not None:
                p.children_open += 1
                leaves.pop(id(p), None)
        else:
            open_ids.discard(sid)
            leaves.pop(sid, None)
            if p is not None:
                p.children_open -= 1
                if p.children_open == 0:
                    leaves[id(p)] = p
    return out


def _outermost(spans: list, group: set) -> list:
    """Spans in `group` with no ancestor in `group`."""
    out = []
    for s in spans:
        if s.name not in group:
            continue
        p = s.parent
        while p is not None and p.name not in group:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def aggregate(spans: list, server: dict | None = None) -> dict:
    """Per-layer numbers for one pass, named as in BENCHMARK.json."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[id(s)] for s in by_name.get(name, ()))

    def incl_s(*names):
        return sum(s.t1 - s.t0 for s in _outermost(spans, set(names)))

    def outer_count(*names):
        return sum(s.count for s in _outermost(spans, set(names)))

    m: dict[str, float] = {}
    m["raster.edt_sq.calls"] = calls("raster.edt_sq")
    m["raster.edt_sq.s"] = incl_s("raster.edt_sq")
    m["raster.edt_sq.mpix"] = outer_count("raster.edt_sq") / 1e6
    m["expert.next_click.calls"] = calls("expert.next_click")
    m["expert.next_click.self_s"] = self_s("expert.next_click")
    seg = by_name.get("segmenters.segment", [])
    clicks = sum(s.count for s in seg)
    distinct = len({k for s in seg for k in s.keys})
    m["segmenters.segment.calls"] = len(seg)
    m["segmenters.segment.s"] = incl_s("segmenters.segment")
    m["segmenters.clicks_segmented"] = clicks
    m["segmenters.distinct_click_share"] = distinct / clicks if clicks else 0.0
    m["env.step.calls"] = calls("env.step")
    m["env.step.self_s"] = self_s("env.step")
    m["env.load_tasks.s"] = incl_s("env.load_tasks")
    props = by_name.get("policy.propose", [])
    m["policy.propose.calls"] = len(props)
    m["policy.propose.self_s"] = self_s("policy.propose")
    m["policy.candidates_per_propose"] = sum(s.count for s in props) / len(props) if props else 0.0
    m["policy.prm_score.calls"] = calls("policy.prm_score")
    m["policy.prm_score.s"] = incl_s("policy.prm_score")
    m["search.prm_greedy.calls"] = calls("search.prm_greedy")
    m["search.prm_greedy.self_s"] = self_s("search.prm_greedy")
    m["improve.rollout.self_s"] = self_s("improve.rollout")
    m["improve.refine.self_s"] = self_s("improve.refine")
    m["improve.corrections"] = sum(1 for s in by_name.get("improve.refine", ()) if s.flag)
    m["improve.manifest_load.s"] = incl_s("improve.manifest_load")
    m["trajgen.generate_trajectory.self_s"] = self_s("trajgen.generate_trajectory")
    m["trajgen.render_sft.samples"] = sum(s.count for s in by_name.get("trajgen.render_sft", ()))
    m["trajgen.render_sft.self_s"] = self_s("trajgen.render_sft")
    m["trajgen.jsonl.s"] = incl_s("trajgen.jsonl")
    m["trajgen.jsonl.mb"] = outer_count("trajgen.jsonl") / MIB
    m["raster.rle.s"] = incl_s("raster.rle")
    m["raster.render_overlay.calls"] = calls("raster.render_overlay")
    m["raster.render_overlay.s"] = incl_s("raster.render_overlay")
    m["raster.pnm.s"] = incl_s("raster.pnm")
    m["raster.pnm.mb"] = outer_count("raster.pnm") / MIB
    m["metrics.noc.calls"] = calls("metrics.noc")
    m["metrics.noc.self_s"] = self_s("metrics.noc")
    calls_ms = [
        (s.t1 - s.t0) * 1e3
        for name in ("remote.segment", "remote.act", "remote.score")
        for s in by_name.get(name, ())
    ]
    http = by_name.get("remote.http", [])
    posts = calls("remote.segment") + calls("remote.act") + calls("remote.score")
    m["remote.segment.calls"] = calls("remote.segment")
    m["remote.act.calls"] = calls("remote.act")
    m["remote.score.calls"] = calls("remote.score")
    m["remote.call_ms_p50"] = statistics.median(calls_ms) if calls_ms else 0.0
    client_http_s = sum(s.t1 - s.t0 for s in http)
    server_s = (server or {}).get("handle_s", 0.0)
    m["remote.transport_s"] = max(client_http_s - server_s, 0.0) if http else 0.0
    m["remote.http_attempts"] = len(http)
    m["remote.retries"] = len(http) - posts
    m["remote.connections"] = calls("remote.connect")
    m["remote.request_mb"] = sum(s.count for s in http) / MIB
    m["remote.reply_mb"] = sum(s.reply_bytes for s in http) / MIB
    for name in ("segment", "act", "score"):
        m[f"mock_server.{name}.s"] = (server or {}).get(f"{name}_s", 0.0)
    matches = (server or {}).get("act_calls", 0) + (server or {}).get("score_calls", 0)
    renders = (server or {}).get("render_overlay_calls", 0)
    m["mock_server.renders_per_match"] = renders / matches if matches else 0.0
    for s in spans:
        if s.name.startswith("cli."):
            m[s.name + ".s"] = m.get(s.name + ".s", 0.0) + (s.t1 - s.t0)
    return m


def self_split(spans: list) -> dict:
    """Wall-clock self seconds per span name; the values add up to the
    wall time the spans cover."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + selfs[id(s)]
    return out


def server_counters(spans: list) -> dict:
    """Totals the mock launcher writes when the server stops."""
    out = {"handle_s": 0.0, "render_overlay_calls": 0}
    for name in ("segment", "act", "score"):
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0
    for s in spans:
        if s.name == "mock_server.http":
            out["handle_s"] += s.t1 - s.t0
        elif s.name == "raster.render_overlay":
            out["render_overlay_calls"] += 1
        elif s.name.startswith("mock_server."):
            key = s.name.split(".", 1)[1]
            out[f"{key}_s"] += s.t1 - s.t0
            out[f"{key}_calls"] += 1
    return out
