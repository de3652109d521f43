"""maskloop's pipeline benchmark.

    python3 bench/run.py --workload dataset-256 --seed 1 --seconds 40 --trace 0

Runs one workload in-process through ``maskloop.cli.dispatch`` (the
package is imported from ``src/``), in whole passes, until ``--seconds``
of timed work are done; then checks every chunk's outputs against the
references in ``checks.py`` and prints, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, episodes_per_s, peak_rss_mb);
with ``--trace 1`` a separate traced run gives the per-layer split. The
line before it is a report: machine info, calibration loop times, per-pass
figures, check results, and in a traced run the self-time split and the
tracing overhead. Work files go under ``.bench_out/`` at the repo root.
See README.md in this directory for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TASKS = "tasks/manifest.json"
SELF_SUM_TOLERANCE = 0.02


@dataclass
class Stage:
    argv: list
    kinds: tuple  # episode kinds counted from the command's output


@dataclass
class Workload:
    """A workload's make-up. The task pool is synthesized once per set-up
    and split into chunks of `chunk` consecutive tasks; one pass runs every
    stage on one chunk. synth cycles its five shape families, so a chunk of
    five or a multiple of five holds each family equally often."""

    name: str
    side: int
    chunk: int  # tasks per pass
    n_chunks: int  # chunks in the pool; passes cycle through them
    remote: bool = False

    @property
    def pool(self) -> int:
        return self.chunk * self.n_chunks

    def stages(self, c: int, seed: int, url: str = "") -> list:
        """Every path is relative to the run's work dir, so the same seed
        writes the same bytes in every run."""
        t, o, s = chunk_manifest(c), f"out/c{c:02d}", str(seed)
        if self.name == "dataset-256":
            return [
                Stage(["gen-traj", "--tasks", t, "--out", f"{o}/traj.jsonl", "--init", "mix",
                       "--seed", s, "--jobs", "1"], ("trajectories",)),
                Stage(["render-sft", "--traj", f"{o}/traj.jsonl", "--tasks", t, "--out", f"{o}/sft",
                       "--jobs", "1"], ()),
                Stage(["star", "--tasks", t, "--seed-data", f"{o}/traj.jsonl.manifest.json",
                       "--out", f"{o}/star", "--mode", "star_plus", "--n-iters", "1",
                       "--policy", "noisy_expert", "--noise-flip", "0.2", "--seed", s, "--jobs", "1"],
                      ("rollouts", "repairs")),
                Stage(["eval-noc", "--tasks", t, "--hist-out", f"{o}/noc.csv", "--jobs", "1"], ("noc",)),
            ]
        if self.name == "search-128":
            return [
                Stage(["search", "--tasks", t, "--out", f"{o}/search.json", "--k", "3",
                       "--max-steps", "11", "--segmenter", "region_grow", "--policy", "noisy_expert",
                       "--noise-flip", "0.2", "--prm", "noisy", "--trace", "--masks-out", f"{o}/masks",
                       "--seed", s, "--jobs", "2"], ("searches",)),
                Stage(["eval-noc", "--tasks", t, "--segmenter", "region_grow",
                       "--hist-out", f"{o}/noc.csv", "--jobs", "2"], ("noc",)),
            ]
        return [
            Stage(["rollout", "--tasks", t, "--out", f"{o}/rollout.jsonl",
                   "--policy", "remote", "--policy-url", url,
                   "--segmenter", "remote", "--segmenter-url", url, "--seed", s], ("rollouts",)),
            Stage(["search", "--tasks", t, "--out", f"{o}/search.json", "--k", "3",
                   "--policy", "remote", "--policy-url", url, "--segmenter", "remote",
                   "--segmenter-url", url, "--prm", "remote", "--prm-url", url,
                   "--trace", "--masks-out", f"{o}/masks", "--seed", s], ("searches",)),
        ]


WORKLOADS = {
    "dataset-256": Workload("dataset-256", side=256, chunk=5, n_chunks=24),
    # not in BENCHMARK.json: a search's cost grows with the square of its
    # steps, so episodes_per_s spreads by a quarter or more across seeds;
    # run it by hand for same-seed before/after figures on region_grow
    "search-128": Workload("search-128", side=128, chunk=10, n_chunks=30),
    # the mock renders one overlay per known task on every act/score, so
    # the task count is part of this workload's definition: 40
    "remote-64": Workload("remote-64", side=64, chunk=40, n_chunks=1, remote=True),
}
SETUPS = 5  # set-ups per run; setup_s is their median
TRACED_PASSES = 6  # a traced run traces a fixed number of passes, so its counts repeat


def chunk_manifest(c: int) -> str:
    return f"tasks/chunk{c:02d}.json"


def write_chunk_manifests(wl: Workload) -> None:
    """Split synth's manifest into one manifest per chunk, beside it."""
    with open(TASKS, encoding="utf-8") as fh:
        entries = json.load(fh)["tasks"]
    for c in range(wl.n_chunks):
        with open(chunk_manifest(c), "w", encoding="utf-8") as fh:
            json.dump({"tasks": entries[c * wl.chunk:(c + 1) * wl.chunk]}, fh, indent=2, sort_keys=True)


def completed(kinds: tuple, rc: int, reply: dict) -> dict:
    """Episodes of each kind a stage completed, read from its JSON reply."""
    if rc != 0:
        return {k: 0 for k in kinds}
    out = {}
    for k in kinds:
        if k == "trajectories":
            out[k] = reply["n_trajectories"]
        elif k in ("rollouts", "repairs"):
            # star: one rollout and one repair per task that did not fail
            out[k] = reply["reports"][0]["n_rollouts"] if "reports" in reply else reply["n_trajectories"]
        else:
            out[k] = reply["n_tasks"]
    return out


# -- the mock server ----------------------------------------------------------


class MockServer:
    """serve-mock in its own process, started through mock_launcher.py."""

    def __init__(self, port: int, counters_out: str | None = None):
        self.log = open("mock_server.log", "w", encoding="utf-8")
        argv = [sys.executable, os.path.join(HERE, "mock_launcher.py"), "--tasks", TASKS, "--port", str(port)]
        if counters_out:
            argv += ["--counters-out", counters_out]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._wait_until_answering()
        except BaseException:
            self.stop()
            raise

    def _wait_until_answering(self) -> int | None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return None  # exited: most likely the port was taken
            with open("mock_server.log", encoding="utf-8") as fh:
                line = fh.readline()
            if line.startswith("mock server on http://"):
                port = int(line.split()[3].rsplit(":", 1)[1])
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                try:
                    conn.request("GET", "/")
                    conn.getresponse().read()
                    return port
                except OSError:
                    pass
                finally:
                    conn.close()
            time.sleep(0.005)
        raise RuntimeError("mock server did not answer within 60 s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_server(preferred: int, counters_out: str | None = None) -> MockServer:
    """Start on the preferred port (the URL is part of every output header),
    or on any free port if that one is taken."""
    server = MockServer(preferred, counters_out)
    if server.port is None:
        server.stop()
        server = MockServer(0, counters_out)
        if server.port is None:
            server.stop()
            raise RuntimeError("mock server exited during start-up; see mock_server.log")
    return server


# -- passes -------------------------------------------------------------------


def run_pass(wl: Workload, c: int, seed: int, url: str, dispatch, tracer=None) -> dict:
    """One pass: every stage on chunk c; outputs go to a fresh out/cNN."""
    stages = wl.stages(c, seed, url)
    out_dir = f"out/c{c:02d}"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    replies = []
    t0 = time.perf_counter()
    for stage in stages:
        span = tracer.open("cli." + stage.argv[0]) if tracer else None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = dispatch(stage.argv)
        if span is not None:
            tracer.close(span)
        replies.append((rc, buf.getvalue()))
    wall = time.perf_counter() - t0
    attempted = failed = 0
    rcs = []
    for stage, (rc, text) in zip(stages, replies):
        rcs.append(rc)
        done = completed(stage.kinds, rc, json.loads(text) if rc == 0 else {})
        attempted += wl.chunk * len(stage.kinds)
        failed += sum(wl.chunk - n for n in done.values())
    return {"chunk": c, "wall_s": wall, "attempted": attempted, "failed": failed, "rcs": rcs,
            "episodes_per_s": (attempted - failed) / wall, "digest": digest(out_dir),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def digest(root: str) -> str:
    return hashlib.sha256(json.dumps(checks.tree_digest(root)).encode()).hexdigest()


# -- checks -------------------------------------------------------------------


def check_outputs(wl: Workload, c: int) -> dict:
    """Every check of the workload on chunk c's outputs; name -> problems."""
    ck = checks
    tasks = ck.load_task_set(chunk_manifest(c))
    o = f"out/c{c:02d}"
    found = {}
    if wl.name == "dataset-256":
        traj = ck.read_trajectories(f"{o}/traj.jsonl")
        refined = ck.read_trajectories(f"{o}/star/iter01_refined.jsonl")
        found["gen-traj: expert clicks, masks, rewards, gain >= tau_diff"] = (
            ck.check_episodes(traj, tasks, expert_only=True, min_gain=0.01)
            + ([] if len(traj) == len(tasks) else [f"{len(traj)} trajectories for {len(tasks)} tasks"])
        )
        found["render-sft: overlays of the pre-action masks"] = ck.check_sft(f"{o}/sft", traj, tasks)
        found["star_plus: masks, rewards, positive gains, expert suffix"] = (
            ck.check_episodes(refined, tasks, expert_only=False, min_gain=0.0)
            + ([] if len(refined) == len(tasks) else [f"{len(refined)} repairs for {len(tasks)} tasks"])
        )
        with open(f"{o}/traj.jsonl", "rb") as seed_fh, open(f"{o}/star/iter01_refined.jsonl", "rb") as rep_fh, \
                open(f"{o}/star/iter01_train.jsonl", "rb") as train_fh:
            merged_ok = seed_fh.read() + rep_fh.read() == train_fh.read()
        found["star_plus: train set is seed data plus repairs"] = [] if merged_ok else ["iter01_train.jsonl differs"]
        counts = [ck.noc(gt, lambda clicks, gt=gt: ck.oracle(gt, clicks)) for _, gt in tasks.values()]
        found["eval-noc: click counts"] = ck.check_noc_hist(f"{o}/noc.csv", counts)
    elif wl.name == "search-128":
        grow = ck.RegionGrow()
        found["search: best masks, final_iou, best_reward, argmax"] = ck.check_search(
            f"{o}/search.json", f"{o}/masks", tasks, lambda tid, gray, gt, clicks: grow.segment(tid, gray, clicks))
        counts = [ck.noc(gt, lambda clicks, tid=tid, gray=gray: grow.segment(tid, gray, clicks))
                  for tid, (gray, gt) in tasks.items()]
        found["eval-noc: click counts"] = ck.check_noc_hist(f"{o}/noc.csv", counts)
    else:
        with open(f"{o}/rollout.jsonl.manifest.json", encoding="utf-8") as fh:
            header = json.load(fh)["header"]
        found["rollout: no failed request"] = [f"failures: {header['failures']}"] if "failures" in header else []
        found["rollout: mock parity with local expert + oracle"] = ck.check_mock_parity(
            ck.read_trajectories(f"{o}/rollout.jsonl"), tasks)

        def pct(gt, mask):
            return math.floor(100.0 * ck.iou(mask, gt) + 0.5) / 100.0

        found["search: best masks, final_iou, best_reward, PRM scores"] = ck.check_search(
            f"{o}/search.json", f"{o}/masks", tasks, lambda tid, gray, gt, clicks: ck.oracle(gt, clicks),
            score_of=pct)
    return found


# -- machine and calibration --------------------------------------------------


def machine_info() -> dict:
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def calibrate() -> dict:
    """Fixed loops, timed: a slow phase of the machine shows here too."""
    import numpy as np

    def py_loop():
        s = 0
        for i in range(500_000):
            s += i * i
        return s

    a = np.arange(1 << 20, dtype=np.int64)

    def np_loop():
        for _ in range(10):
            (a * a).sum()

    out = {}
    for name, fn in (("python_ms", py_loop), ("numpy_ms", np_loop)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = round(statistics.median(times), 3)
    out["loadavg"] = os.getloadavg()
    return out


def source_fingerprint() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "maskloop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(wl: Workload, seed: int, port, digests: dict) -> list:
    """Each chunk's outputs must hash the same in every run of the same
    source, workload, seed and server port, traced or not."""
    store = os.path.join(OUT, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{wl.name}-n{wl.pool}-s{seed}-p{port}-{source_fingerprint()}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    problems = [f"chunk {c}: outputs hash {d[:12]}, an earlier run's {earlier[c][:12]}"
                for c, d in digests.items() if c in earlier and earlier[c] != d]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**digests, **earlier}, fh, indent=1, sort_keys=True)
    return problems


# -- the run ------------------------------------------------------------------


def set_up(wl: Workload, seed: int, dispatch) -> list:
    """Synthesize the task pool SETUPS times (the last one stays) and split
    it into chunks; returns the set-up times."""
    synth = ["synth", "--n", str(wl.pool), "--side", str(wl.side), "--out", "tasks", "--seed", str(seed)]
    times = []
    for _ in range(SETUPS):
        shutil.rmtree("tasks", ignore_errors=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dispatch(synth)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"synth exited {rc}")
    write_chunk_manifests(wl)
    return times


def timed_start(port: int, start_times: list, counters_out: str | None = None) -> MockServer:
    t0 = time.perf_counter()
    server = start_server(port, counters_out)
    start_times.append(time.perf_counter() - t0)
    return server


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="maskloop pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="one chunk of 5 tasks, 2 traced passes (tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maskloop", "cli.py")):
        print(f"benchmark: no maskloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from maskloop.cli import dispatch

    wl = WORKLOADS[args.workload]
    traced_passes = TRACED_PASSES
    if args.smoke:
        wl = Workload(wl.name, wl.side, chunk=5, n_chunks=1, remote=wl.remote)
        traced_passes = 2
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "pool_tasks": wl.pool,
              "chunk_tasks": wl.chunk, "machine": machine_info(), "calibration_start": calibrate()}
    work = os.path.join(OUT, f"{wl.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)

    server, port, start_times = None, None, []
    try:
        setup_times = set_up(wl, args.seed, dispatch)
        if wl.remote:
            # a cold start of the server varies by more than a tenth from
            # run to run, so it stays out of setup_s; its time is reported
            # as mock_server.start_s
            server = timed_start(20000 + (args.seed * 7919 + wl.side) % 20000, start_times)
            port = server.port
        url = f"http://127.0.0.1:{port}"

        # the first pass in a process runs slower; chunk 0 runs again timed,
        # which also shows whether a repeated pass writes the same bytes
        problems, digests, repeats = {}, {}, []

        def settle(p: dict) -> None:
            """Check a chunk's outputs the first time it runs and compare
            the bytes of every repeat; then delete them (unless a check
            failed), so their write-back does not load later passes."""
            key = str(p["chunk"])
            found = {}
            if key in digests:
                if digests[key] != p["digest"]:
                    repeats.append(f"chunk {key} wrote different bytes on a repeated pass")
            else:
                digests[key] = p["digest"]
                found = check_outputs(wl, p["chunk"])
                for name, items in found.items():
                    problems.setdefault(name, []).extend(f"chunk {key}: {f}" for f in items)
            if not any(found.values()):
                shutil.rmtree(f"out/c{p['chunk']:02d}")

        warm = run_pass(wl, 0, args.seed, url, dispatch)
        settle(warm)
        passes, tracer, timed = [], None, 0.0
        while True:
            if args.trace:
                if len(passes) == 1 + traced_passes:
                    break
                if len(passes) == 1:
                    # one untraced pass of chunk 0, then the traced passes
                    # from chunk 0 on
                    from spans import Tracer

                    if wl.remote:
                        server.stop()
                        server = timed_start(port, start_times, "server_counters.json")
                        if server.port != port:
                            raise RuntimeError("traced mock server could not take the same port")
                    tracer = Tracer()
                    tracer.install()
                c = max(len(passes) - 1, 0) % wl.n_chunks
            else:
                if passes and timed >= args.seconds:
                    break
                c = len(passes) % wl.n_chunks
            p = run_pass(wl, c, args.seed, url, dispatch, tracer)
            if tracer is not None:
                p["spans"] = tracer.take()
            passes.append(p)
            timed += p["wall_s"]
            settle(p)
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if server is not None:
            server.stop()
            server = None

        problems["determinism: a repeated pass writes the same bytes"] = repeats
        problems["determinism: same bytes as earlier runs of this seed"] = compare_with_earlier_runs(
            wl, args.seed, port, digests)
        if not any(problems.values()):
            shutil.rmtree("tasks")
    finally:
        if server is not None:
            server.stop()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems["every stage exits 0"] = [f"chunk {p['chunk']}: exit codes {p['rcs']}"
                                       for p in [warm] + passes if any(p["rcs"])]
    report["setup_s"] = setup_times
    report["mock_server_start_s"] = start_times
    report["warmup_wall_s"] = warm["wall_s"]
    report["warmup_peak_rss_mb"] = warm["peak_rss_mb"]
    report["passes"] = [{k: p[k] for k in ("chunk", "wall_s", "episodes_per_s", "peak_rss_mb")} for p in passes]
    if args.trace:
        metrics = traced_metrics(wl, passes[1:], passes[0], start_times, report, problems)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "episodes_per_s": (statistics.median(p["episodes_per_s"] for p in passes), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    report["checks"] = {name: (probs[:5] or "ok") for name, probs in problems.items()}
    correct = not any(problems.values())
    report["calibration_end"] = calibrate()
    line = json.dumps(report, default=str)
    os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)
    with open(os.path.join(OUT, "reports", f"{wl.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(wl: Workload, traced: list, untraced: dict, start_times: list, report: dict,
                   problems: dict) -> dict:
    """Per-layer metrics: the mean over traced passes, named as in BENCHMARK.json."""
    from spans import aggregate, self_split

    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    server = None
    if wl.remote:
        with open("server_counters.json", encoding="utf-8") as fh:
            server = {k: v / len(traced) for k, v in json.load(fh).items()}
    per_pass = [aggregate(p["spans"], server) for p in traced]
    splits = [self_split(p["spans"]) for p in traced]
    ratios = [sum(s.values()) / p["wall_s"] for s, p in zip(splits, traced)]
    report["trace"] = {
        "passes": len(traced),
        "self_s_per_pass": {k: statistics.fmean(s.get(k, 0.0) for s in splits)
                            for k in sorted({k for s in splits for k in s})},
        "self_sum_over_wall": ratios,
        "self_sum_tolerance": SELF_SUM_TOLERANCE,
    }
    # overhead: traced against untraced episodes_per_s on the same chunk,
    # in this run (chunk 0) and against the untraced run of this seed, if any
    report["trace"]["overhead_chunk0"] = untraced["episodes_per_s"] / traced[0]["episodes_per_s"] - 1
    other = os.path.join(OUT, "reports", f"{wl.name}-s{report['seed']}-t0.json")
    if os.path.exists(other):
        with open(other, encoding="utf-8") as fh:
            rates = {}
            for p in json.load(fh)["passes"]:
                rates.setdefault(p["chunk"], p["episodes_per_s"])
        ratios_run = [rates[p["chunk"]] / p["episodes_per_s"] - 1 for p in traced if p["chunk"] in rates]
        if ratios_run:
            report["trace"]["overhead_vs_untraced_run"] = statistics.median(ratios_run)
    problems["trace: self times add up to the pass wall time"] = (
        [f"ratios {ratios}"] if any(abs(r - 1.0) > SELF_SUM_TOLERANCE for r in ratios) else [])
    metrics = {}
    for m in declared:
        name = m["name"]
        if name == "mock_server.start_s":
            value = statistics.median(start_times) if start_times else 0.0
        else:
            value = statistics.fmean(p.get(name, 0.0) for p in per_pass)
        metrics[name] = (value, m["unit"])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
