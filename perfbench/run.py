#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, checks the
simulated statistics, and prints the metrics as the last line of stdout.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. --trace 0 reports the end-to-end
metrics of an untraced run; --trace 1 runs the workload untraced and then
traced, in two fresh processes, and reports the per-layer metrics.
perfbench/README.md names the workloads and metrics; `--pin` records the
seed's simulated statistics as the pinned ones instead of checking them.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
PINS = os.path.join(HERE, "pins")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import metrics as m  # noqa: E402

WORKLOADS = ("fig6-sweep", "ref-point", "fleet-point", "zero-load")
PINNED_FIELDS = ("cycles", "flit_hops", "delivered", "latency", "p99",
                 "accepted", "saturated")
RUN_BUDGET_S = 170  # for all runs of one invocation, after the build
BUILD_TIMEOUT_S = 700


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, stderr):
    """Runs cmd from the checkout's root in a process group of its own, so a
    timeout stops it with every process it started (a build's compilers)."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=stderr, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


def build():
    """Configures once and builds perfbench; the build is incremental."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError(f"no CMakeLists.txt at {ROOT}: not a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        code, out, _ = run(cmd, BUILD_TIMEOUT_S, subprocess.STDOUT)
        if code != 0:
            sys.stderr.write(out[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, traced, deadline):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd.append("--trace")
    code, out, err = run(cmd, max(1.0, deadline - time.monotonic()),
                         subprocess.PIPE)
    if code != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"perfbench exited with {code}")
    doc = json.loads(out)
    if doc["host"]["build_type"] not in ("Release", "RelWithDebInfo"):
        raise RuntimeError(f"refusing a {doc['host']['build_type']} build")
    return doc


# ---- correctness ------------------------------------------------------------

def key(point):
    return f"{point['label']}@{point['load']!r}"


def stats(point):
    return {f: point[f] for f in PINNED_FIELDS}


def load_pins(workload, seed):
    path = os.path.join(PINS, f"{workload}.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f).get(str(seed))


def invariant_failures(points):
    """Checks for a seed without pins: every point delivers, and every point
    that did not saturate accepts within 5% of its offered load (every
    workload's loads lie below saturation)."""
    return [key(p) for p in points
            if p["delivered"] <= 0 or (not p["saturated"] and
                                       abs(p["accepted"] - p["load"]) >
                                       0.05 * p["load"])]


def check(workload, seed, docs):
    """(attempted, failed): every point of every run is compared with the
    pinned statistics when the seed has pins; otherwise with the first
    untraced result for its key, which must also pass the invariants.
    Traced and repeated runs must therefore reproduce it exactly."""
    pins = load_pins(workload, seed)
    reference = {}
    if pins is not None:
        reference = {key(p): stats(p) for p in pins}
    attempted = failed = 0
    seen = set()
    for doc in docs:
        for p in doc["points"]:
            attempted += 1
            k = key(p)
            seen.add((doc["traced"], p["tag"], k))
            if pins is None and k not in reference:
                reference[k] = stats(p)
            if reference.get(k) != stats(p):
                failed += 1
                log(f"mismatch at {k} ({p['tag']}): {stats(p)} "
                    f"!= {reference.get(k)}")
    if pins is not None:
        # A pinned point that a run did not return is a failure too.
        for doc in docs:
            for tag in {p["tag"] for p in doc["points"]}:
                for k in reference:
                    if (doc["traced"], tag, k) not in seen:
                        attempted += 1
                        failed += 1
                        log(f"missing pinned point {k} ({tag})")
    else:
        bad = invariant_failures(run_points(docs[0]))
        for k in bad:
            log(f"invariant violated at {k}")
        failed += len(bad)
    return attempted, failed


# ---- metrics ----------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def run_points(doc):
    """The points of the first repetition."""
    return [p for p in doc["points"] if p["tag"] == "rep0"]


def timings(doc, scale):
    """wall_s, setup_s and flit_hops_per_s of an untraced run, each time
    passed through `scale`."""
    wall = scale(m.median(doc["wall_s"]))
    hops = sum(p["flit_hops"] for p in run_points(doc))
    return {"wall_s": wall, "setup_s": scale(m.median(doc["setup_s"])),
            "flit_hops_per_s": hops / wall}


def end_to_end(doc):
    """The times are calibrated to the reference host speed (metrics.py)."""
    t = timings(doc, lambda s: m.calibrated(s, doc["calib_ms"]))
    return {
        "wall_s": metric(t["wall_s"], "s"),
        "setup_s": metric(t["setup_s"], "s"),
        "flit_hops_per_s": metric(t["flit_hops_per_s"], "1/s"),
        "peak_rss_mb": metric(doc["peak_rss_bytes"] / 2**20, "MB"),
    }


def per_layer(doc, untraced, declared):
    names = doc["span_names"]
    spans = doc["spans"]
    counts = doc["counts"]
    grid = doc["workload"] == "fig6-sweep"
    reps = len(doc["wall_s"])

    def durations(name):
        return [(e - s) * 1e-9 for n, s, e, _ in spans if names[n] == name]

    # Index of the "rep" span enclosing each span, for per-rep sums.
    rep_of = []
    for n, _, _, parent in spans:
        rep_of.append(len(rep_of) if names[n] == "rep" else
                      (rep_of[parent] if parent >= 0 else -1))

    def per_rep_sum(name):
        sums = {}
        for i, (n, s, e, _) in enumerate(spans):
            if names[n] == name:
                sums[rep_of[i]] = sums.get(rep_of[i], 0.0) + (e - s) * 1e-9
        return m.median(list(sums.values()))

    def per_call_ns(name):
        calls = counts.get(name, 0)
        return sum(durations(name)) * 1e9 / calls if calls else 0.0

    points = run_points(doc)
    hops = sum(p["flit_hops"] for p in points)
    walls = [p["wall_s"] for p in points]
    out = {
        "topo.build_s": metric(per_rep_sum("topo.make"), "s"),
        "routing.build_s": metric(per_rep_sum("routing.make"), "s"),
        "oracle.dist_ns": metric(per_call_ns("oracle.dist"), "ns"),
        "oracle.sample_ns": metric(per_call_ns("oracle.sample"), "ns"),
        "routing.inject_ns": metric(per_call_ns("routing.inject"), "ns"),
        "net.wire_s": metric(m.median(durations("net.construct")), "s"),
        "net.cycles": metric(sum(p["cycles"] for p in points), "count"),
        "net.flit_hops": metric(hops, "count"),
        "net.zero_grant_steps": metric(
            counts.get("net.zero_grant_steps", 0) // reps, "count"),
        "net.ns_per_flit_hop": metric(
            m.ns_per_flit_hop(sum(walls) if grid else m.median(doc["wall_s"]),
                              hops), "ns"),
    }

    steps_us = [d * 1e6 for d in durations("net.step")]
    pct, value, n = m.tail(steps_us)
    out["net.step_us.p50"] = metric(m.percentile(steps_us, 50.0), "us")
    out["net.step_us.tail"] = metric(value, "us")
    out["net.step_us.tail_pct"] = metric(pct, "%")
    out["net.step_us.n"] = metric(n, "count")
    for phase in ("warmup", "measure", "drain"):
        out[f"net.{phase}_s"] = metric(m.median(durations(f"net.{phase}")), "s")

    for w in (2, 4):
        ratios = []
        for rep in sorted({s["repeat"] for s in doc["scaling"]}):
            wall = {s["workers"]: s["wall_s"] for s in doc["scaling"]
                    if s["repeat"] == rep}
            ratios.append(wall[1] / wall[w])
        out[f"net.scaling_x.w{w}.min"] = metric(min(ratios, default=0.0), "x")
        out[f"net.scaling_x.w{w}.max"] = metric(max(ratios, default=0.0), "x")

    grid_wall = doc["wall_s"][0]
    workers = int(doc["resolved"]["across"]) if grid else 1
    out["exp.busy_frac"] = metric(
        m.busy_frac(walls, workers, grid_wall) if grid else 0.0, "ratio")
    out["exp.tail_s"] = metric(
        m.tail_s([p["done_s"] for p in points], workers, grid_wall)
        if grid else 0.0, "s")
    out["exp.point_s.p50"] = metric(
        m.percentile(walls, 50.0) if grid else 0.0, "s")
    out["exp.point_s.p90"] = metric(
        m.percentile(walls, 90.0) if grid else 0.0, "s")
    # One metric per grid series, named in BENCHMARK.json.
    for name in declared:
        if name.startswith("exp.series_s."):
            label = name[len("exp.series_s."):]
            out[name] = metric(sum((p["wall_s"] for p in points
                                    if p["label"] == label), 0.0), "s")

    rep_self = [t * 1e-9 for t, (n, _, _, _) in
                zip(m.self_times([(s, e, p) for _, s, e, p in spans]), spans)
                if names[n] == "rep"]
    out["bench.self_s"] = metric(m.median(rep_self), "s")
    out["trace.overhead_frac"] = metric(
        m.median(doc["wall_s"]) / m.median(untraced["wall_s"]) - 1.0, "ratio")
    out["host.calib_ms"] = metric(m.median(doc["calib_ms"]), "ms")
    # The untraced run's end-to-end times as measured, before calibration.
    for name, value in timings(untraced, lambda s: s).items():
        out[f"host.{name}"] = metric(value, "1/s" if name.endswith("per_s")
                                     else "s")
    return out


def host_record(docs):
    record = {"python_nproc": os.cpu_count()}
    for doc in docs:
        record["traced" if doc["traced"] else "untraced"] = {
            "host": doc["host"], "resolved": doc["resolved"],
            "runs": len(doc["wall_s"]),
            "calib_ms": {"median": m.median(doc["calib_ms"]),
                         "min": min(doc["calib_ms"]),
                         "max": max(doc["calib_ms"]),
                         "n": len(doc["calib_ms"])}}
    return record


def write_pins(workload, seed, doc):
    os.makedirs(PINS, exist_ok=True)
    path = os.path.join(PINS, f"{workload}.json")
    pins = {}
    if os.path.isfile(path):
        with open(path) as f:
            pins = json.load(f)
    pins[str(seed)] = [dict(label=p["label"], load=p["load"], **stats(p))
                       for p in run_points(doc)]
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"pinned {len(pins[str(seed)])} points of seed {seed} in {path}")


def declared_metrics(traced):
    """The metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return sorted(x["name"] for x in
                  bench["per_layer" if traced else "end_to_end"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record this seed's statistics as the pinned ones")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        untraced = run_binary(args.workload, args.seed, args.seconds, False,
                              deadline)
        if args.pin:
            write_pins(args.workload, args.seed, untraced)
            return 0
        docs = [untraced]
        if args.trace:
            docs.append(run_binary(args.workload, args.seed, args.seconds,
                                   True, deadline))
        attempted, failed = check(args.workload, args.seed, docs)
        declared = declared_metrics(args.trace)
        values = (per_layer(docs[1], untraced, declared) if args.trace
                  else end_to_end(untraced))
        if declared != sorted(values):
            raise RuntimeError("metrics differ from BENCHMARK.json")
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"host": host_record(docs)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
