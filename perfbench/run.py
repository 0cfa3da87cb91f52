"""The repository's benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload rsc1_campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each round of a workload runs in a fresh interpreter (``round.py``), one
at a time, from a copy of this checkout's ``src/repro``; rounds repeat
until the next one would overrun ``--seconds`` (at least two).  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced round with ``--trace 1``.  The line before it carries the
environment and the per-round figures.  ``--workload all`` runs every
workload and prints a table instead.  See README.md for the workloads.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("rsc1_campaign", "rsc2_observed", "seed_sweep", "serve_mix")
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 150
#: ``tail_ms`` is the median over rounds of each round's nearest-rank
#: 95th percentile.  A round makes a fixed number of queries (README), so
#: the statistic does not depend on how many rounds fit in a run.
TAIL_PERCENTILE = 95
#: Operations that fail at this commit because of a known program fault
#: (README, "The failing operation").  They count in ``failed`` but do
#: not make the outputs of the other operations incorrect.  A probe that
#: could not run is recorded as ``determinism_probe_ran``, not excused.
KNOWN_FAULTS = {"cross_process_determinism"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MiB",
    "tail_ms": "ms",
}
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"


class RoundFailed(RuntimeError):
    pass


def child_env(workdir):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(workdir / "src"),
        # One hash seed for every round, so every round simulates the
        # same trace (the digest depends on it; see KNOWN_FAULTS).
        PYTHONHASHSEED="0",
        # A fresh, private trace cache: a warm one would turn misses
        # into hits.  Nothing reaches ~/.cache/repro.
        REPRO_TRACE_CACHE=str(workdir / "trace-cache"),
        TMPDIR=str(workdir / "tmp"),
        # numpy's BLAS pool would compete with the timed process.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_child(args, env, timeout=ROUND_TIMEOUT_S):
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py")] + args,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RoundFailed(f"round.py {' '.join(args[:1])} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(workload, seed, index, workdir, env, extra=()):
    round_dir = workdir / f"round-{index}"
    round_dir.mkdir(parents=True, exist_ok=True)
    args = [
        workload,
        "--seed", str(seed),
        "--round", str(index),
        "--workdir", str(round_dir),
        "--root", str(ROOT),
    ] + list(extra)
    try:
        return run_child(args + ["--spawned-at", repr(time.perf_counter())], env)
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _version(package):
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment():
    env = {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def account(rounds):
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op[1] is not None]
    unexpected = [op for op in failed if op[0] not in KNOWN_FAULTS]
    return {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({f"{name}: {why}" for name, why in failed})[:10],
    }


def round_tail_ms(rnd):
    return percentile(sorted(v for _, v in rnd["latencies_ms"]), TAIL_PERCENTILE)


def end_to_end(rounds):
    values = {
        key: statistics.median(r[key] for r in rounds)
        for key in ("setup_s", "wall_s", "warm_s", "peak_rss_mb")
    }
    values["tail_ms"] = statistics.median(round_tail_ms(r) for r in rounds)
    return values


def prepare(workload, workdir, env):
    """Untimed per-run preparation: the program's copy, and serve_mix's trace.

    Rounds import a copy of ``src/repro`` made without its ``__pycache__``
    and byte-compiled here, so no round compiles the program and no run
    writes into the checkout's tree (some of its ``.pyc`` files are tracked).
    """
    program = workdir / "src" / "repro"
    shutil.copytree(
        ROOT / "src" / "repro", program, ignore=shutil.ignore_patterns("__pycache__")
    )
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(program), str(HERE)],
        cwd=ROOT, env=env, capture_output=True, timeout=ROUND_TIMEOUT_S,
    )
    if workload != "serve_mix":
        return []
    trace_path = workdir / "served.trace.jsonl"
    expect = workdir / "served.mttf.json"
    run_child(
        ["prepare-serve", "--trace-path", str(trace_path), "--expect", str(expect)],
        env,
    )
    return ["--trace-path", str(trace_path), "--expect", str(expect)]


def measure(workload, seed, seconds, traced):
    """Run one workload; returns (result line, info line)."""
    # Before anything runs: the load average at start, the tree as found.
    host = environment()
    workdir = SCRATCH / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(workdir)
        extra = prepare(workload, workdir, env)
        if traced:
            return measure_traced(workload, seed, workdir, env, extra, host)
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(workload, seed, len(rounds), workdir, env, extra))
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        values = end_to_end(rounds)
        acc = account(rounds)
        result = {
            "correct": acc["correct"],
            "attempted": acc["attempted"],
            "failed": acc["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            },
        }
        info = {
            "workload": workload,
            "seed": seed,
            "rounds": len(rounds),
            "latency_samples": sum(len(r["latencies_ms"]) for r in rounds),
            "tail_percentile": TAIL_PERCENTILE,
            "failures": acc["failures"],
            "per_round": {
                key: [r[key] for r in rounds]
                for key in ("setup_s", "wall_s", "warm_s", "peak_rss_mb")
            },
            "per_round_tail_ms": [round_tail_ms(r) for r in rounds],
            "env": host,
        }
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass


def measure_traced(workload, seed, workdir, env, extra, host):
    """One untraced round, then one traced round; per-layer metrics."""
    OUT.mkdir(exist_ok=True)
    chrome = OUT / f"{workload}.chrome.json"
    base = run_round(workload, seed, 0, workdir, env, extra)
    traced = run_round(
        workload, seed, 1, workdir, env,
        list(extra) + ["--traced", "--chrome-out", str(chrome)],
    )
    acc = account([base, traced])
    layers = traced.get("layers", {})
    overhead = traced["wall_s"] / base["wall_s"] - 1.0
    result = {
        "correct": acc["correct"],
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "metrics": {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
    info = {
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "tracing_overhead": overhead,
        "chrome_trace": str(chrome.relative_to(ROOT)),
        "failures": acc["failures"],
        "calls": traced.get("calls", {}),
        "env": host,
    }
    (OUT / f"{workload}.layers.json").write_text(json.dumps({"result": result, "info": info}, indent=1))
    print(
        f"{workload}: traced wall_s {traced['wall_s']:.3f} s vs untraced "
        f"{base['wall_s']:.3f} s: tracing overhead {overhead:+.1%}",
        file=sys.stderr,
    )
    return result, info


def print_table(results):
    print(f"{'workload':<15} {'metric':<36} {'value':>14} unit")
    for workload, (result, _) in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:<15} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
        print(
            f"{workload:<15} {'operations attempted / failed':<36} "
            f"{result['attempted']:>8} / {result['failed']:<4} "
            f"correct={str(result['correct']).lower()}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except (RoundFailed, subprocess.TimeoutExpired) as err:
        print(f"benchmark round failed: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for result, info in results.values():
            print(json.dumps(info))
            print(json.dumps(result))
        print_table(results)
        return 0
    result, info = results[args.workload]
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
