#!/usr/bin/env python3
"""End-to-end benchmark of the SkyByte simulator.

    python3 e2ebench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0

Builds the e2ebench driver and the simulator library from this
checkout's src/ (into .bench_build/), runs the workload's sweep points
serially, each in a forked child, checks the outputs, and prints every
metric by name and unit. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 measures the end-to-end metrics (host time unless noted):
  sweep_s           wall seconds of the workload's points (per-point
                    medians, summed); a failed point is charged its 30 s
                    time limit, so fixing a crash cannot raise it
  setup_s           System construction (FTL precondition + SSD-cache
                    warmup + assembly), per-point medians summed
  sim_minstr_per_s  simulated instructions committed by completed points
                    / host seconds of all points
  peak_rss_mb       largest child max-RSS
  point_ok_ratio    completed points / points attempted, a point failing
                    if any execution of it failed (1 - point_fail_ratio;
                    failed/attempted in the JSON)
  speedup_err_pct   simulated: 100*|geomean(Base-CSSD/SkyByte-Full exec)
                    - 6.11| / 6.11
  dram_gap_err_pct  simulated: 100*|geomean(DRAM-Only/SkyByte-Full exec)
                    - 0.75| / 0.75
The paper's two fig14 aggregates are the only reference in the
repository; the model is otherwise unvalidated.

--trace 1 runs an untraced and a traced pass, the System setup phases
and a replay of the workload's input stream through each layer's public
functions, writes the spans to .bench_build/spans/, and prints the
per-layer metrics listed in LAYER_METRICS (each with the end-to-end
metric and workload it should move).

Only the arguments decide what runs: inherited SKYBYTE_* overrides are
dropped by the driver (kernel lanes stay 1) and the seed is printed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-mix", "short-points", "long-trace-4x")
# Metrics in simulated units; every other metric is host time or memory.
SIMULATED = {"speedup_err_pct", "dram_gap_err_pct",
             *metrics.simulated_counts([])}
DRIVER_TIMEOUT_S = 170

# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = [
    ("setup.assemble_s", "s", "lower",
     "setup_s, sweep_s on short-points"),
    ("setup.precondition_s", "s", "lower",
     "setup_s, sweep_s on short-points; <3% on long-trace-4x"),
    ("setup.warmup_s", "s", "lower",
     "setup_s, sweep_s on short-points; <3% on long-trace-4x"),
    ("sim.run_s", "s", "lower",
     "sweep_s, sim_minstr_per_s on paper-mix and long-trace-4x"),
    ("ftl.precondition_ns_per_page", "ns", "lower",
     "setup_s on short-points"),
    ("ftl.ns_per_write", "ns", "lower",
     "sim_minstr_per_s on long-trace-4x"),
    ("flash.gc_runs", "count", "lower",
     "sim_minstr_per_s, point_ok_ratio on long-trace-4x"),
    ("flash.gc_programs", "pages", "lower",
     "sim_minstr_per_s, point_ok_ratio on long-trace-4x"),
    ("flash.host_programs", "pages", "lower",
     "sim_minstr_per_s, point_ok_ratio on long-trace-4x"),
    ("flash.write_amp", "ratio", "lower",
     "sim_minstr_per_s, point_ok_ratio on long-trace-4x"),
    ("flash.reads", "pages", "lower",
     "sim_minstr_per_s on long-trace-4x"),
    ("cache.ns_per_access", "ns", "lower",
     "sim_minstr_per_s, sweep_s on paper-mix; little on short-points"),
    ("cache.llc_hit_ratio", "ratio", "higher",
     "none (replay property; a speed-only change keeps it)"),
    ("mshr.ns_per_op", "ns", "lower",
     "sim_minstr_per_s, sweep_s on paper-mix"),
    ("cpu.llc_accesses", "count", "lower",
     "sim_minstr_per_s on paper-mix"),
    ("cpu.llc_mpki", "1/kinstr", "lower",
     "sim_minstr_per_s on paper-mix"),
    ("cpu.ctx_switches", "count", "lower",
     "sim_minstr_per_s on paper-mix"),
    ("cpu.mem_stall_share", "ratio", "lower",
     "speedup_err_pct on paper-mix"),
    ("ssd.ns_per_request", "ns", "lower",
     "sim_minstr_per_s on paper-mix and long-trace-4x"),
    ("ssd.read_hit_ratio", "ratio", "higher",
     "speedup_err_pct on paper-mix"),
    ("ssd.read_misses", "count", "lower",
     "sim_minstr_per_s, speedup_err_pct on paper-mix"),
    ("ssd.writes", "count", "lower",
     "sim_minstr_per_s on long-trace-4x"),
    ("log.appends", "count", "lower",
     "sim_minstr_per_s on paper-mix and long-trace-4x"),
    ("log.update_hits", "count", "higher",
     "speedup_err_pct on paper-mix"),
    ("log.compactions", "count", "lower",
     "sim_minstr_per_s on long-trace-4x"),
    ("mig.promotions", "count", "higher",
     "speedup_err_pct, dram_gap_err_pct on paper-mix"),
    ("mig.demotions", "count", "lower",
     "sim_minstr_per_s on paper-mix"),
    ("kernel.events", "count", "lower",
     "sim_minstr_per_s on every workload"),
    ("kernel.ns_per_event", "ns", "lower",
     "sim_minstr_per_s on every workload"),
    ("trace.ns_per_record", "ns", "lower",
     "none: <1% of run time (bypass check)"),
    ("cxl.bytes", "bytes", "lower",
     "speedup_err_pct on paper-mix"),
    ("mem.host_reads", "count", "higher",
     "speedup_err_pct, dram_gap_err_pct on paper-mix"),
    ("tracing.sweep_s", "s", "lower", "none (traced pass)"),
    ("tracing.untraced_sweep_s", "s", "lower", "none (untraced pass)"),
    ("tracing.overhead_s", "s", "lower",
     "none: traced sweep_s minus untraced sweep_s"),
]


def die(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the driver; output goes to stderr."""
    try:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                        "-j", str(min(4, os.cpu_count() or 1))],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")
    return os.path.join(BUILD, "e2ebench")


def run_driver(argv):
    """Run the driver in its own process group; kill the group (its
    forked points too) if it overruns, and always reap it."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("driver overran its time limit")
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def point_ids(lines):
    ids = []
    for rec in lines:
        if rec["kind"] == "point" and rec["id"] not in ids:
            ids.append(rec["id"])
    return ids


def print_env(lines):
    ignored = [n for r in lines if r["kind"] == "env" for n in r["ignored"]]
    print("ignored environment overrides: " + (", ".join(ignored) or "none"))


def print_points(title, ids, recs):
    print(f"{title}: {len(ids)} points")
    for rec in metrics.first_outcomes(ids, recs):
        fail = metrics.failure(rec)
        res = metrics.parse_result(rec)
        sim = f"exec={res['exec_time_ms']:.4f}ms(sim)" if res else ""
        print(f"  {rec['id']:<24} {fail or 'ok':<14} "
              f"wall={rec['wall_s']:.3f}s setup={rec.get('setup_s', 0):.3f}s"
              f" {sim}")


def timed(args, binary):
    lines = run_driver([binary, "run", args.workload, str(args.seed),
                        str(args.seconds)])
    recs = [r for r in lines if r["kind"] == "point"]
    ids = point_ids(lines)
    print_env(lines)
    setups = {}
    for r in lines:
        if r["kind"] in ("point", "setup") and "setup_s" in r:
            setups.setdefault(r["id"], []).append(r["setup_s"])
    errors = metrics.consistency_errors(recs)
    values, attempted, failed = metrics.end_to_end(ids, recs, setups)
    print_points("points (first execution)", ids, recs)
    print(f"digest {args.workload} seed={args.seed} "
          f"{metrics.digest(ids, recs)}")
    return values, attempted, failed, errors


def traced(args, binary):
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir,
                              f"{args.workload}-seed{args.seed}.json")
    lines = run_driver([binary, "traced", args.workload, str(args.seed),
                        spans_path])
    ids = point_ids(lines)
    print_env(lines)
    untraced = [r for r in lines
                if r["kind"] == "point" and r["pass"] == "untraced"]
    tracedp = [r for r in lines
               if r["kind"] == "point" and r["pass"] == "traced"]
    recs = untraced + tracedp
    errors = metrics.consistency_errors(recs)
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    values = {}
    for r in lines:
        if r["kind"] == "layer":
            if not r.get("checks_ok", True):
                errors.append("layer replay: " + r["check_msg"])
            for name, v in r["metrics"].items():
                values[name] = (v, units[name])
    values.update(metrics.simulated_counts(tracedp))
    t_sweep = metrics.end_to_end(ids, tracedp, {})[0]["sweep_s"][0]
    u_sweep = metrics.end_to_end(ids, untraced, {})[0]["sweep_s"][0]
    values["tracing.sweep_s"] = (t_sweep, "s")
    values["tracing.untraced_sweep_s"] = (u_sweep, "s")
    values["tracing.overhead_s"] = (t_sweep - u_sweep, "s")
    values["sim.run_s"] = (sum(r.get("run_s", 0.0) for r in tracedp), "s")
    failed = len({r["id"] for r in recs if metrics.failure(r)})
    print_points("traced pass", ids, tracedp)
    print(f"digest {args.workload} seed={args.seed} "
          f"{metrics.digest(ids, tracedp)}")
    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    print(f"spans: {len(spans)} written to {os.path.relpath(spans_path, ROOT)}"
          "; host self time by span name:")
    for name, ns in sorted(metrics.self_times(spans).items(),
                           key=lambda kv: -kv[1]):
        print(f"  {name:<32} {ns / 1e9:10.4f} s")
    missing = [name for name in units if name not in values]
    if missing:
        die("traced run produced no " + ", ".join(missing))
    return {name: values[name] for name in units}, len(ids), failed, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    values, attempted, failed, errors = (traced if args.trace else timed)(
        args, binary)
    for err in errors:
        print(f"INCORRECT: {err}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    print("reference: the paper's fig14 aggregates (6.11x, 75%); the model "
          "is otherwise unvalidated")
    moves = {name: m for name, _, _, m in LAYER_METRICS}
    for name, (value, unit) in values.items():
        domain = "sim " if name in SIMULATED else "host"
        print(f"  [{domain}] {name:<30} {value:>18.6f} {unit:<9}"
              f"{'  -> ' + moves[name] if name in moves else ''}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))


if __name__ == "__main__":
    main()
