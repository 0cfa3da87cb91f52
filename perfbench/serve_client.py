"""serve_mix: start a reliability server, drive it, check every answer.

The client is closed-loop: two keep-alive connections, each sending its
next request only after the previous answer arrived, through a fixed
cycle of requests.  The same stream is sent twice: the first pass is
``wall_s``, the second (every what-if now cached) is ``warm_s``.
"""

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

CONNECTIONS = 2
CYCLES = 16
SNAPSHOT_EVERY = 3
WHATIF = "/v1/whatif/checkpoint-cadence"
#: /v1/ettr forecasts use the live forecaster's defaults (1 h, 5 min).
FORECAST_DT = 3600.0
FORECAST_U0 = 300.0


def _whatif_body(rng):
    return {
        "n_gpus": rng.choice([8_192, 16_384, 32_768, 65_536, 100_000]),
        "failure_rates_per_1k": sorted(
            {round(rng.uniform(1.0, 10.0), 3) for _ in range(2)}
        ),
        "intervals_minutes": sorted(rng.sample(range(1, 121), 5)),
        "targets": [0.5, round(rng.uniform(0.6, 0.95), 3)],
    }


def request_stream(seed, connection):
    """The fixed request cycle of one connection, drawn from the seed."""
    repeated = _whatif_body(random.Random(f"{seed}-repeated"))
    rng = random.Random(f"{seed}-{connection}")
    stream = []
    for cycle in range(CYCLES):
        gpus = rng.choice([1_024, 4_096, 16_384, 65_536])
        rf = round(rng.uniform(1.0, 10.0), 3)
        stream += [
            ("health", "GET", "/v1/health", None),
            ("ettr", "GET", "/v1/ettr", None),
            ("ettr_forecast", "GET", f"/v1/ettr?gpus={gpus}&rf_per_1k={rf}", None),
            ("mttf", "GET", "/v1/mttf", None),
            ("lemons", "GET", "/v1/lemons", None),
            ("metrics", "GET", "/metrics", None),
            ("whatif_hit", "POST", WHATIF, repeated),
            ("whatif_miss", "POST", WHATIF, _whatif_body(rng)),
        ]
        if cycle % SNAPSHOT_EVERY == 0:
            stream.append(("snapshot", "GET", "/v1/snapshot", None))
    return stream


def check_response(label, body, status, payload, expect):
    if status != 200:
        return f"HTTP {status}"
    if label == "metrics":
        text = body.decode("utf-8")
        return None if "serve_requests_total" in text else "no request counter"
    try:
        doc = json.loads(body)
    except ValueError as err:
        return f"unparseable body: {err}"
    if label == "ettr_forecast":
        return checks.ettr_forecast(doc, FORECAST_DT, FORECAST_U0)
    if label.startswith("whatif"):
        return checks.whatif_rows(
            doc,
            payload["n_gpus"],
            payload["failure_rates_per_1k"],
            payload["intervals_minutes"],
            payload["targets"],
            5.0,
        )
    if label == "mttf":
        return checks.mttf_matches_batch(doc, expect)
    return None


class Connection:
    """One keep-alive connection replaying its stream, closed-loop."""

    def __init__(self, host, port, stream, expect):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.stream = stream
        self.expect = expect
        self.results = []  # (label, latency_ms, failure, body)

    def run_pass(self):
        for label, method, path, payload in self.stream:
            data = None
            headers = {}
            if payload is not None:
                data = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            start = time.perf_counter()
            try:
                self.conn.request(method, path, body=data, headers=headers)
                response = self.conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as err:
                self.results.append((label, (time.perf_counter() - start) * 1e3, str(err), b""))
                self.conn.close()
                continue
            latency = (time.perf_counter() - start) * 1e3
            failure = check_response(label, body, status, payload, self.expect)
            self.results.append((label, latency, failure, body))


def _drive(connections):
    threads = [threading.Thread(target=c.run_pass) for c in connections]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run_round(rnd, args):
    here = Path(__file__).resolve().parent
    workdir = Path(args.workdir)
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--trace", args.trace_path]
    if args.traced:
        cmd = [
            sys.executable, str(here / "serve_host.py"),
            "--layers-out", str(workdir / "server_layers.json"),
        ]
        if args.chrome_out:
            cmd += ["--chrome-out", args.chrome_out]
        cmd += ["--"] + serve
    else:
        cmd = [sys.executable, "-m", "repro.cli"] + serve
    expect = json.loads(Path(args.expect).read_text())
    log = open(workdir / f"server-{args.round}.log", "w")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=args.root, stdout=subprocess.PIPE, stderr=log, text=True
    )
    try:
        address = proc.stdout.readline().strip()
        rnd.out["setup_s"] = time.perf_counter() - start
        host, port = address.rsplit("//", 1)[1].rsplit(":", 1)
        conns = [
            Connection(host, int(port), request_stream(args.seed, i), expect)
            for i in range(CONNECTIONS)
        ]
        rnd.out["wall_s"] = _drive(conns)
        first = [list(c.results) for c in conns]
        rnd.out["warm_s"] = _drive(conns)
        # Idle keep-alive connections would count as in flight and hold
        # shutdown for the server's whole grace period: close them first.
        for c in conns:
            c.conn.close()
        time.sleep(0.1)
        rnd.out["peak_rss_mb"] = _peak_rss_mb(proc.pid)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            returncode = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            returncode = proc.wait()
        proc.stdout.close()
        log.close()

    repeated = set()
    mismatched = 0
    for conn, first_pass in zip(conns, first):
        for label, latency, failure, body in conn.results:
            rnd.out["latencies_ms"].append([label, latency])
            rnd.op(label, failure)
            if label == "whatif_hit":
                repeated.add(body)
        # The second pass repeats every what-if payload of the first.
        for a, b in zip(first_pass, conn.results[len(first_pass):]):
            mismatched += a[0].startswith("whatif") and a[3] != b[3]
    rnd.op(
        "identical_whatif_bytes",
        None
        if len(repeated) == 1 and not mismatched
        else f"{len(repeated)} bodies for one payload, {mismatched} changed",
    )
    rnd.op("clean_shutdown", None if returncode == 0 else f"server exit {returncode}")
    if args.traced:
        server = json.loads((workdir / "server_layers.json").read_text())
        rnd.out["layers"] = server["layers"]
        rnd.out["calls"] = server["calls"]
        by_label = {}
        for label, latency in rnd.out["latencies_ms"]:
            by_label.setdefault(label, []).append(latency)
        for label in ("health", "ettr", "mttf", "lemons", "metrics", "snapshot",
                      "whatif_hit", "whatif_miss"):
            values = sorted(by_label.get(label, [0.0]))
            rnd.out["layers"][f"serve.{label}_ms"] = values[len(values) // 2]
    return None
