#!/usr/bin/env python3
"""xmpbench: the simulator's end-to-end and per-layer benchmark.

Builds the simulator from source with dune, then measures workloads in
fresh child processes of xmpbench.exe, one child at a time.

One run of one workload:

    python3 xmpbench/run.py --workload bulk.k4 --seed 1 --seconds 25 --trace 0

  --trace 0 repeats the workload for --seconds (at least three children)
  and prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
  traced pass instead and prints the per-layer metrics, writing every
  child's spans as JSONL to --spans. The last line of stdout is
  {"correct", "attempted", "failed", "metrics"}; the exit code is 1 if a
  child failed or a metric is missing.

The whole suite:

    python3 xmpbench/run.py --seed 1 --runs 5 [--sets 2] [--seconds S]
    python3 xmpbench/run.py --smoke

  runs every workload --runs times per set, round-robin, prints each
  (workload, metric) median, quartiles, min, max and n, then one traced
  pass per workload. --sets 2 also says whether the two sets' medians
  agree within each metric's bound. --smoke runs tiny horizons once and
  checks that every metric of BENCHMARK.json is printed. The suite exits
  1 if any child failed, a metric is missing or two medians disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "xmpbench", "xmpbench.exe")
SPANS_DIR = os.path.join(ROOT, "_xmpbench")

MIN_REPS = 3
CHILD_TIMEOUT_S = 60  # a child takes seconds; a run must end within 180 s
CHECK_DOMAINS = 2  # sharded workloads also run here; outputs must not change
MICRO_QUOTA_S = 0.2
SMOKE_SCALE, SMOKE_QUOTA_S = 0.05, 0.01
# Per-layer counts the public API exposes on some workloads only: the
# net.* and transport.* counts need a Driver network or telemetry sink,
# net.shard.mail a shard cluster. Elsewhere they read 0.
PARTIAL_COUNTS = ("net.link.tx_packets", "net.queue.enqueued", "net.queue.dropped",
                  "net.queue.marked", "net.queue.max_depth", "net.shard.mail",
                  "transport.retransmits", "transport.timeouts")


def fail(msg):
    print("xmpbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "./xmpbench/xmpbench.exe"]
    try:
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed")


def spawn(args):
    """Runs one child to completion. Returns its parsed last stdout line,
    or None if it failed or timed out."""
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        if p.returncode == 0:
            return json.loads(p.stdout.decode().strip().splitlines()[-1])
        status = "exited with %d" % p.returncode
    except subprocess.TimeoutExpired:
        status = "timed out"
    except (ValueError, IndexError):
        status = "printed no result"
    print("xmpbench: %s %s" % (" ".join(args), status), file=sys.stderr)
    return None


class Run:
    """The children of one workload and seed, with failure accounting: a
    child fails if it crashes or times out, if launched flows are not
    completed + truncated, or if its digest differs from the pinned one
    (seed 1, full scale) or from the first child's."""

    def __init__(self, workload, seed, scale, pinned):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.expected = pinned.get(workload) if seed == 1 and scale == 1.0 else None
        self.attempted = self.failed = 0
        self.spans = []

    def child(self, domains=1, keep_flows=False, telemetry=False):
        args = ["child", self.workload, "--seed", str(self.seed), "--scale", repr(self.scale),
                "--domains", str(domains)] + (["--keep-flows"] if keep_flows else []) + (
                    ["--telemetry"] if telemetry else [])
        self.attempted += 1
        r = spawn(args)
        if r is None or not self.correct(r):
            self.failed += 1
            return None
        self.spans += [dict(s, workload=self.workload, seed=self.seed, domains=domains,
                            telemetry=telemetry, child=self.attempted) for s in r["spans"]]
        return r

    def seg_hops(self, reps):
        """The segment-hops of the run's traffic, or None. Driver children
        count them; open-loop children keep no flow records (that memory
        would count in peak_rss_mb), so a check child at two domains keeps
        them and counts them. Its digest must still match."""
        if reps and reps[0]["seg_hops"] is not None:
            return reps[0]["seg_hops"]
        r = self.child(CHECK_DOMAINS, keep_flows=True)
        return r and r["seg_hops"]

    def correct(self, r):
        c = r["counts"]
        ended = c["workload.flows_completed"] + c["workload.flows_truncated"]
        if c["workload.flows_launched"] != ended:
            print("xmpbench: %s: launched flows != completed + truncated" % self.workload,
                  file=sys.stderr)
            return False
        if self.expected is None:
            self.expected = r["digest"]
        if r["digest"] != self.expected:
            print("xmpbench: %s seed %d at %d domains: digest %s, expected %s" %
                  (self.workload, self.seed, r["domains"], r["digest"], self.expected),
                  file=sys.stderr)
            return False
        return True

    def repeat(self, seconds, min_reps, domains=1):
        """Children for [seconds], and until [min_reps] succeeded or
        3 x [min_reps] were tried."""
        reps, tries, stop = [], 0, time.monotonic() + seconds
        while time.monotonic() < stop or (len(reps) < min_reps and tries < 3 * min_reps):
            tries += 1
            r = self.child(domains)
            if r is not None:
                reps.append(r)
        return reps


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def end_to_end(run, seconds, min_reps):
    reps = run.repeat(seconds, min_reps)
    seg_hops = run.seg_hops(reps)
    wall = median([r["wall_s"] for r in reps])
    return {"ns_per_seghop": wall * 1e9 / seg_hops if seg_hops else float("nan"),
            "setup_s": median([r["setup_s"] for r in reps]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps])}


def micro(quota):
    return spawn(["micro", "--quota", repr(quota)])


def per_layer(run, costs, reps_n):
    """Counts of the first child, timings as medians over reps_n children,
    the unit costs of the micro-benches, the two-domain speed-up of
    sharded workloads and the telemetry-on cost of Driver workloads."""
    reps = run.repeat(0, reps_n)
    if not reps or costs is None:
        return {}
    first, wall = reps[0], median([r["wall_s"] for r in reps])
    layer = dict.fromkeys(PARTIAL_COUNTS, 0.0)
    layer.update(first["counts"])
    layer.update(costs)
    layer["workload.seg_hops"] = run.seg_hops(reps)
    layer["engine.ns_per_event"] = median([r["counts"]["engine.ns_per_event"] for r in reps])
    enqueued = layer["net.queue.enqueued"]
    layer["net.queue.drop_ratio"] = layer["net.queue.dropped"] / enqueued if enqueued else 0.0
    layer["net.shard.speedup_d2"] = layer["telemetry.overhead"] = 0.0
    if first["sharded"]:
        d2 = run.repeat(0, reps_n, domains=CHECK_DOMAINS)
        if d2:
            layer["net.shard.speedup_d2"] = wall / median([r["wall_s"] for r in d2])
    else:
        traced = run.child(telemetry=True)
        if traced is not None:
            layer["telemetry.overhead"] = traced["wall_s"] / wall
            for k in ("transport.retransmits", "transport.timeouts"):
                layer[k] = traced["counts"][k]
    return layer


def write_spans(path, spans):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s, sort_keys=True) + "\n")


def pick(values, metrics):
    """The named metrics with their units; None if one has no value."""
    out = {}
    for m in metrics:
        v = values.get(m["name"])
        if v is None or v != v:
            print("xmpbench: no value for metric %s" % m["name"], file=sys.stderr)
            return None
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def one_run(args, bench, pinned):
    run = Run(args.workload, args.seed, 1.0, pinned)
    if args.trace:
        values = per_layer(run, micro(MICRO_QUOTA_S), MIN_REPS)
        default = os.path.join(SPANS_DIR, "%s-%d.spans.jsonl" % (args.workload, args.seed))
        write_spans(args.spans or default, run.spans)
        metrics = pick(values, bench["per_layer"])
    else:
        metrics = pick(end_to_end(run, args.seconds, MIN_REPS), bench["end_to_end"])
    failed = run.failed if metrics is not None else max(run.failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": metrics or {}}))
    return 0 if failed == 0 else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def suite(args, bench, pinned):
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    scale, runs, sets, seconds, reps, quota = (
        (SMOKE_SCALE, 1, 1, 0, 1, SMOKE_QUOTA_S) if args.smoke else
        (1.0, args.runs, args.sets, args.seconds, MIN_REPS, MICRO_QUOTA_S))
    failed = attempted = 0
    missing, medians = [], []
    for s in range(sets):
        values = {w: {m["name"]: [] for m in e2e} for w in workloads}
        for _ in range(runs):
            for w in workloads:  # round-robin spreads machine drift over the workloads
                run = Run(w, args.seed, scale, pinned)
                for k, v in end_to_end(run, seconds, reps).items():
                    values[w][k].append(v)
                failed, attempted = failed + run.failed, attempted + run.attempted
        print("set %d: %d runs per workload, seed %d" % (s + 1, runs, args.seed))
        print("%-14s %-14s %-5s %12s %12s %12s %12s %12s %3s" %
              ("workload", "metric", "unit", "median", "q1", "q3", "min", "max", "n"))
        for w in workloads:
            for m in e2e:
                v = [x for x in values[w][m["name"]] if x == x]
                if not v:
                    missing.append("%s %s" % (w, m["name"]))
                    continue
                q1, q3 = quartiles(v)
                print("%-14s %-14s %-5s %12.6g %12.6g %12.6g %12.6g %12.6g %3d" %
                      (w, m["name"], m["unit"], median(v), q1, q3, min(v), max(v), len(v)))
        medians.append({w: {k: median(v) for k, v in values[w].items()} for w in workloads})

    print("traced pass: per-layer metrics (micro-bench costs are shared by all workloads)")
    costs, spans = micro(quota), []
    for name, v in (costs or {}).items():
        print("%-14s %-34s %14.6g ns" % ("micro", name, v))
    for w in workloads:
        run = Run(w, args.seed, scale, pinned)
        layer = per_layer(run, costs, reps)
        failed, attempted = failed + run.failed, attempted + run.attempted
        spans += run.spans
        for m in bench["per_layer"]:
            if m["name"] not in layer:
                missing.append("%s %s" % (w, m["name"]))
            elif m["name"] not in (costs or {}):
                print("%-14s %-34s %14.6g %s" % (w, m["name"], layer[m["name"]], m["unit"]))
    write_spans(args.spans or os.path.join(SPANS_DIR, "suite-%d.spans.jsonl" % args.seed), spans)

    disagree = 0
    if sets == 2:
        print("stability: set 1 vs set 2 medians")
        for w in workloads:
            for m in e2e:
                a, b = medians[0][w][m["name"]], medians[1][w][m["name"]]
                change = (b - a) / a if a else float("nan")
                ok = abs(change) <= m["bound"]
                disagree += not ok
                print("%-14s %-14s %12.6g %12.6g %+7.2f%% (bound %g%%) %s" %
                      (w, m["name"], a, b, 100 * change, 100 * m["bound"],
                       "agree" if ok else "DISAGREE"))
    if missing:
        print("missing metrics: " + ", ".join(missing))
    print("children: %d attempted, %d failed" % (attempted, failed))
    return 1 if failed or disagree or missing else 0


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pinned = load_json(os.path.join(HERE, "pinned.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", help="span JSONL file of the traced pass")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.runs < 1 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative, --runs positive")
    build()
    sys.exit(one_run(args, bench, pinned) if args.workload else suite(args, bench, pinned))


if __name__ == "__main__":
    main()
