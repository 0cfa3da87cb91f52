"""Correctness checks computed by the benchmark itself.

Every check recomputes a result from raw records or from the paper's
equations, independently of the program's own code paths, or tests a
property the method must have.  None compares against stored output.
Each check returns ``None`` when it passes and a one-line reason when it
fails, so the caller can count it as one operation.
"""

import math
from collections import defaultdict

DAY = 86400.0
HOUR = 3600.0
MINUTE = 60.0
GPUS_PER_NODE = 8

#: Terminal states an accounting row may carry (attempts still running at
#: the campaign horizon are not written as rows).
TERMINAL_STATES = frozenset(
    {
        "COMPLETED",
        "FAILED",
        "NODE_FAIL",
        "CANCELLED",
        "TIMEOUT",
        "OUT_OF_MEMORY",
        "PREEMPTED",
        "REQUEUED",
    }
)


def close(a, b, rel=1e-9, abs_tol=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# The paper's Appendix A, written out again (Eq. 4-6 give Eq. 1; Eq. 2).
# ---------------------------------------------------------------------------
def eq1_ettr(n_nodes, rf_per_node_day, dt, u0, queue, runtime):
    """Eq. 1: 1 / (1 + E[S]) with E[N_f] from Eq. 4 and E[S] from Eq. 5."""
    lam = n_nodes * rf_per_node_day / DAY
    denom = 1.0 - lam * (u0 + dt / 2.0)
    if denom <= 0:
        return 0.0
    n_f = lam * (runtime + u0) / denom
    slowdown = ((n_f + 1.0) * (queue + u0) + n_f * dt / 2.0) / runtime
    return 1.0 / (1.0 + slowdown)


def eq2_ettr(n_nodes, rf_per_node_day, dt, u0):
    """Eq. 2: 1 - N r_f (u0 + dt/2), clamped at 0."""
    lam = n_nodes * rf_per_node_day / DAY
    return max(0.0, 1.0 - lam * (u0 + dt / 2.0))


def eq2_required_interval(n_nodes, rf_per_node_day, target, u0):
    """Eq. 2 solved for dt; ``None`` when no positive interval reaches it."""
    lam = n_nodes * rf_per_node_day / DAY
    if lam == 0:
        return math.inf
    dt = 2.0 * ((1.0 - target) / lam - u0)
    return dt if dt > 0 else None


# ---------------------------------------------------------------------------
# Campaign traces
# ---------------------------------------------------------------------------
def gpu_capacity(records):
    """No node ever holds more than 8 GPUs across overlapping attempts."""
    by_node = defaultdict(list)
    for r in records:
        per_node = r.n_gpus // r.n_nodes
        if per_node * r.n_nodes != r.n_gpus or len(r.node_ids) != r.n_nodes:
            return f"job {r.job_id}/{r.attempt}: {r.n_gpus} GPUs on {r.node_ids}"
        for node in r.node_ids:
            # At equal times a release sorts before an acquisition.
            by_node[node].append((r.start_time, 1, per_node))
            by_node[node].append((r.end_time, 0, -per_node))
    for node, changes in by_node.items():
        held = 0
        for _, _, delta in sorted(changes):
            held += delta
            if held > GPUS_PER_NODE:
                return f"node {node} holds {held} GPUs"
    return None


def attempt_sanity(records, campaign_end):
    """enqueue <= start <= end <= campaign end, legal states, attempts 0..k-1."""
    attempts = defaultdict(list)
    for r in records:
        if not r.enqueue_time <= r.start_time <= r.end_time <= campaign_end:
            return f"job {r.job_id}/{r.attempt}: times out of order"
        if r.state.value not in TERMINAL_STATES:
            return f"job {r.job_id}/{r.attempt}: state {r.state.value}"
        attempts[r.job_id].append(r.attempt)
    for job, numbers in attempts.items():
        if sorted(numbers) != list(range(len(numbers))):
            return f"job {job}: attempt numbers {sorted(numbers)}"
    return None


def job_status_counts(records, breakdown):
    """Fig. 3's fractions equal counts recomputed from the raw rows."""
    if breakdown.n_records != len(records):
        return f"breakdown counts {breakdown.n_records} of {len(records)} rows"
    counts = defaultdict(int)
    gpu_seconds = defaultdict(float)
    for r in records:
        counts[r.state.value] += 1
        gpu_seconds[r.state.value] += (r.end_time - r.start_time) * r.n_gpus
    total_gpu = sum(gpu_seconds.values())
    reported = {s.value: f for s, f in breakdown.job_fraction.items()}
    if set(reported) != set(counts):
        return f"states {sorted(reported)} != {sorted(counts)}"
    for state, n in counts.items():
        if not close(reported[state], n / len(records)):
            return f"{state}: job fraction {reported[state]} != {n}/{len(records)}"
    for s, f in breakdown.gpu_time_fraction.items():
        if not close(f, gpu_seconds[s.value] / total_gpu, rel=1e-6):
            return f"{s.value}: GPU-time fraction {f}"
    return None


def mttf_projection(analysis):
    """Fig. 7's theory line is 1/(N r_f) for the reported r_f."""
    rf = analysis.failure_rate.rate
    if not rf > 0:
        return f"r_f {rf} is not positive"
    for gpus, hours in analysis.projection.items():
        nodes = math.ceil(gpus / GPUS_PER_NODE)
        if not close(hours, DAY / HOUR / (nodes * rf)):
            return f"MTTF at {gpus} GPUs: {hours} h"
    return None


def fig10_rows(sweep, n_gpus, rates, intervals_minutes, targets, u0):
    """Fig. 10's grid and required intervals equal Eq. 2 recomputed here."""
    n_nodes = max(1, n_gpus // GPUS_PER_NODE)
    for rf in rates:
        for minutes in intervals_minutes:
            want = eq2_ettr(n_nodes, rf, minutes * MINUTE, u0)
            got = sweep.grid[(float(rf), float(minutes * MINUTE))]
            if not close(got, want):
                return f"E[ETTR](rf={rf}, dt={minutes}m) {got} != {want}"
        for target in targets:
            want = eq2_required_interval(n_nodes, rf, target, u0)
            got = sweep.required[(float(rf), float(target))]
            if want is None:
                if not math.isnan(got):
                    return f"required dt(rf={rf}, {target}) {got}, want none"
            elif not close(got, want):
                return f"required dt(rf={rf}, {target}) {got} != {want}"
    return None


# ---------------------------------------------------------------------------
# Served documents
# ---------------------------------------------------------------------------
def whatif_rows(doc, n_gpus, rates_per_1k, intervals_minutes, targets, u0_min):
    """A what-if body's rows equal Eq. 2 over the requested axes."""
    n_nodes = max(1, n_gpus // GPUS_PER_NODE)
    u0 = u0_min * MINUTE
    rows = doc["rows"]
    if [r["rf_per_1k_node_days"] for r in rows] != [
        served_rate(r) for r in rates_per_1k
    ]:
        return f"what-if rates {[r['rf_per_1k_node_days'] for r in rows]}"
    for row in rows:
        rf = row["rf_per_1k_node_days"] / 1000.0
        grid = row["expected_ettr_by_interval_minutes"]
        for minutes in intervals_minutes:
            want = eq2_ettr(n_nodes, rf, minutes * MINUTE, u0)
            if not close(grid[f"{float(minutes):g}"], want):
                return f"what-if E[ETTR](rf={rf}, dt={minutes}m)"
        for target in targets:
            want = eq2_required_interval(n_nodes, rf, target, u0)
            got = row["required_interval_minutes_for_target_ettr"][f"{target:g}"]
            if want is None:
                if got is not None:
                    return f"what-if required dt(rf={rf}, {target}) {got}"
            elif want == math.inf:
                if got != "any":
                    return f"what-if required dt(rf={rf}, {target}) {got}"
            elif not close(got, want / MINUTE):
                return f"what-if required dt(rf={rf}, {target}) {got}"
    return None


def served_rate(rate_per_1k):
    """The per-1k rate as the service round-trips it (r / 1000 * 1000)."""
    return rate_per_1k / 1000.0 * 1000.0


def ettr_forecast(doc, dt, u0):
    """A /v1/ettr forecast equals Eq. 1 (or Eq. 2) for its echoed inputs."""
    f = doc["forecast"]
    n_nodes = max(1, f["gpus"] // GPUS_PER_NODE)
    rf = f["rf_per_1k_node_days"] / 1000.0
    queue = max(1.0, f["queue_hours"] * HOUR)
    runtime = max(HOUR, f["runtime_hours"] * HOUR)
    if f["equation"] == "eq2_simple":
        want = eq2_ettr(n_nodes, rf, dt, u0)
    else:
        want = eq1_ettr(n_nodes, rf, dt, u0, queue, runtime)
    if not close(f["ettr"], want):
        return f"forecast {f['ettr']} != Eq. {f['equation']} {want}"
    return None


def mttf_matches_batch(doc, batch):
    """/v1/mttf agrees with batch ``mttf_analysis`` on the same trace."""
    rf = doc["rf_per_1k_node_days"]
    if rf is None or not close(rf, batch["rf_per_1k_node_days"]):
        return f"served r_f {rf} != batch {batch['rf_per_1k_node_days']}"
    served = {b["gpus"]: b for b in doc["buckets"]}
    for gpus, want in batch["buckets"].items():
        got = served.get(int(gpus))
        if got is None:
            return f"served MTTF lacks the {gpus}-GPU bucket"
        if got["failures"] != want["failures"] or got["n_records"] != want["n_records"]:
            return f"{gpus}-GPU bucket counts differ"
        if not close(got["runtime_hours"], want["runtime_hours"], rel=1e-9):
            return f"{gpus}-GPU bucket runtime differs"
    return None
