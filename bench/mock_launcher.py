"""Run `maskloop serve-mock` in its own process, optionally traced.

    python3 bench/mock_launcher.py --tasks tasks/manifest.json --port 0 \
        [--counters-out server.json]

The server prints its address on stderr and runs until SIGINT. With
--counters-out, the launcher wraps the mock's endpoint handlers, its HTTP
handler and its overlay renderer before serving, and writes their totals
(seconds and calls) to that file once the server has stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tasks", required=True)
    ap.add_argument("--port", type=int, default=0)
    ap.add_argument("--counters-out")
    args = ap.parse_args()

    from maskloop import cli, mock_server

    tracer = None
    if args.counters_out:
        from spans import Tracer, server_counters

        tracer = Tracer()
        for name in ("segment", "act", "score"):
            raw = getattr(mock_server.MockService, name)
            setattr(mock_server.MockService, name, tracer.wrap(f"mock_server.{name}", raw))
        mock_server._Handler.do_POST = tracer.wrap("mock_server.http", mock_server._Handler.do_POST)
        mock_server.render_overlay = tracer.wrap("raster.render_overlay", mock_server.render_overlay)

    rc = cli.dispatch(["serve-mock", "--tasks", args.tasks, "--port", str(args.port)])
    if tracer is not None:
        with open(args.counters_out, "w", encoding="utf-8") as fh:
            json.dump(server_counters(tracer.spans), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
