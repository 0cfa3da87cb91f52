"""How steady is the benchmark?  Run each workload over N seeds.

    python3 perfbench/steady.py --workload all --seeds 1-10 --out first.json
    python3 perfbench/steady.py --workload all --seeds 11-20 --against first.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread within a third of the bound
is ``steady``; one within the bound is ``within``.  With ``--against``
it also checks the second set of runs against the first: no median
differs from the first set's by more than its bound, in either direction,
and every run of both sets fails the same share of its operations.  Exit
status 1 means a limit was broken.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rsc1_campaign", "rsc2_observed", "seed_sweep", "serve_mix")


def parse_seeds(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])
    return result


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the runs and their statistics here")
    parser.add_argument("--against", help="a file --out wrote for an earlier set")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    report = {}
    broken = []
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            print(
                f"# {workload} seed {seed}: rounds {runs[-1]['info']['rounds']}, "
                + json.dumps(runs[-1]["info"]["per_round"]),
                flush=True,
            )
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        table = {
            name: stats([r["metrics"][name]["value"] for r in runs])
            for name in bounds
        }
        report[workload] = {"seeds": seeds, "runs": runs, "stats": table, "failed_shares": shares}
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
        for name, s in table.items():
            bound = bounds[name]
            if s["spread"] <= bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within"
            else:
                verdict = "OVER BOUND"
                broken.append(f"{workload}/{name} spread")
            line = (
                f"  {name:<12} {s['median']:>11.5g} {s['q1']:>11.5g} "
                f"{s['q3']:>11.5g} {s['spread']:>7.2%} {bound:>6.0%}  {verdict}"
            )
            if workload in earlier:
                before = earlier[workload]["stats"][name]["median"]
                change = s["median"] / before - 1.0
                line += f"; median vs first set {change:+.2%}"
                if abs(change) > bound:
                    broken.append(f"{workload}/{name} median")
                    line += " OUTSIDE BOUND"
            print(line)
        if len(shares) > 1:
            broken.append(f"{workload} failed share varies")
        if workload in earlier and earlier[workload]["failed_shares"] != shares:
            broken.append(f"{workload} failed share differs from the first set")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    if broken:
        print("\nbroken: " + "; ".join(broken))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
