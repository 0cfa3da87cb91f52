"""A traced ``repro serve``: the real CLI, with layer timers installed first.

serve_mix starts this launcher instead of ``python -m repro.cli serve``
when tracing.  It imports the program, wraps the live and serve layers,
then hands its remaining arguments to ``repro.cli.main``, so the server
that runs is the CLI's own.  When the CLI returns (on SIGTERM) it writes
the per-layer totals, and optionally a Chrome trace.

    python3 perfbench/serve_host.py --layers-out L.json [--chrome-out C.json] \
        -- serve --host 127.0.0.1 --port 0 --trace TRACE
"""

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def install_serve(rec):
    """live / serve wrappers; parse time excludes waiting for the request."""
    from time import perf_counter

    from repro.live import replay as replay_mod
    from repro.serve import http11, server
    from repro.serve.cache import ResponseCache
    from repro.serve.service import ReliabilityService
    from repro.workload.trace import Trace

    rec.wrap_method(Trace, "load", "live.trace_load")
    rec.wrap_function(
        replay_mod, "replay_trace", "live.replay",
        after=lambda result, a, k: rec.count("live_items", sum(a[1].counts.values())),
    )
    rec.wrap_method(ReliabilityService, "dispatch", "serve.handler")
    rec.wrap_method(
        http11.Response, "encode", "serve.encode",
        after=lambda result, a, k: rec.count("encode_bytes", len(result)),
    )
    rec.wrap_method(
        ResponseCache, "get", "serve.whatif_cache_get", keep=False,
        after=lambda result, a, k: rec.count("whatif_cache_hits", result is not None),
    )

    # A request's parse starts when its request line has arrived; the
    # wait before it is the client's think time, not parsing.
    line_arrived = {}
    read_line = http11._read_line
    read_request = http11.read_request

    async def timed_read_line(reader, limit):
        line = await read_line(reader, limit)
        line_arrived.setdefault(asyncio.current_task(), perf_counter())
        return line

    async def timed_read_request(reader):
        try:
            return await read_request(reader)
        finally:
            arrived = line_arrived.pop(asyncio.current_task(), None)
            if arrived is not None:
                rec.count("parse_s", perf_counter() - arrived)

    http11._read_line = timed_read_line
    server.read_request = timed_read_request


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("--chrome-out")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import repro  # noqa: F401
    from repro import cli

    import_s = time.perf_counter() - start
    rec = layers.Recorder()
    install_serve(rec)
    status = cli.main(cli_args)
    Path(args.layers_out).write_text(
        json.dumps(
            {"layers": layers.layer_metrics(rec, import_s), "calls": rec.summary()}
        )
    )
    if args.chrome_out:
        rec.chrome_trace(args.chrome_out, label="serve_mix server")
    return status


if __name__ == "__main__":
    sys.exit(main())
