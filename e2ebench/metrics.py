"""Metric math of the end-to-end benchmark: pure functions over the
per-point records that the e2ebench driver prints (unit-tested in
test_metrics.py).

A record is one point execution: ``status`` (``ok`` or how the child
failed), host ``wall_s``/``setup_s``/``run_s``, ``maxrss_kb``,
``expected_instr`` and, for ``ok`` children, ``result``: the point's
``toJson(SimResult)``, which holds simulated quantities only.
"""

import hashlib
import json
import math
import statistics

# The repository's only reference numbers: the paper's fig14
# aggregates. The model is otherwise unvalidated.
PAPER_SPEEDUP = 6.11   # geomean SkyByte-Full speedup over Base-CSSD
PAPER_DRAM_GAP = 0.75  # SkyByte-Full performance as a share of DRAM-Only


def parse_result(rec):
    """The record's SimResult as a dict (None for failed children)."""
    if "parsed" not in rec:
        rec["parsed"] = json.loads(rec["result"]) if "result" in rec else None
    return rec["parsed"]


def failure(rec):
    """Why a point execution failed, or None when it completed.

    A point fails when its child exits non-zero, is killed, times out,
    was never started, reports ``timed_out``, or commits fewer
    instructions than requested.
    """
    if rec["status"] != "ok":
        return rec["status"]
    res = parse_result(rec)
    if res["timed_out"]:
        return "sim_timed_out"
    if res["committed_instructions"] < rec["expected_instr"]:
        return "short_commit"
    return None


def geomean(values):
    """Geometric mean; 0 when any value is 0 (a failed pair)."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def error_pct(value, reference):
    """100 * |value - reference| / reference."""
    return 100.0 * abs(value - reference) / reference


def pair_geomean(exec_ticks, numerator, denominator):
    """Geomean over apps of exec(numerator variant) / exec(denominator).

    ``exec_ticks`` maps (app, variant) to simulated execution ticks, or
    to None when that point failed; a pair with a failed side has ratio
    0, so one failure makes the aggregate 0 (a full miss of the paper).
    """
    apps = sorted({app for app, _ in exec_ticks})
    ratios = []
    for app in apps:
        if (app, numerator) not in exec_ticks or \
                (app, denominator) not in exec_ticks:
            continue
        num = exec_ticks[(app, numerator)]
        den = exec_ticks[(app, denominator)]
        ratios.append(0.0 if num is None or den is None else num / den)
    if not ratios:
        raise ValueError(f"no app has both {numerator} and {denominator}")
    return geomean(ratios)


def paper_errors(exec_ticks):
    """(speedup_err_pct, dram_gap_err_pct) of a set of points."""
    speedup = pair_geomean(exec_ticks, "Base-CSSD", "SkyByte-Full")
    gap = pair_geomean(exec_ticks, "DRAM-Only", "SkyByte-Full")
    return error_pct(speedup, PAPER_SPEEDUP), error_pct(gap, PAPER_DRAM_GAP)


def first_outcomes(point_ids, records):
    """The first execution of each point, in point order."""
    first = {}
    for rec in records:
        first.setdefault(rec["id"], rec)
    return [first[pid] for pid in point_ids if pid in first]


def exec_ticks_of(records):
    """(app, variant) -> simulated exec ticks, None when failed."""
    out = {}
    for rec in records:
        key = (rec["app"], rec["variant"])
        out[key] = None if failure(rec) else \
            parse_result(rec)["exec_time_ticks"]
    return out


def digest(point_ids, records):
    """sha256 over every point's toJson(SimResult) (or its failure).

    A change that only speeds the simulator up must leave it
    byte-identical for the same workload and seed.
    """
    h = hashlib.sha256()
    for rec in first_outcomes(point_ids, records):
        body = rec["result"] if rec["status"] == "ok" else \
            "FAILED " + rec["status"]
        h.update(f"{rec['id']}\n{body}\n".encode())
    return h.hexdigest()


SSD_TRAFFIC = ("cxl_bytes", "ssd_read_hits", "ssd_read_misses",
               "ssd_writes", "flash_host_programs", "flash_reads")


def consistency_errors(records):
    """Reasons the outputs are wrong: results that differ between
    executions of one point, that describe another point, or whose
    CXL-SSD traffic contradicts the variant (DRAM-Only has none, every
    other variant some)."""
    errors = []
    seen = {}
    for rec in records:
        if rec["status"] != "ok":
            continue
        res = parse_result(rec)
        if res["variant"] != rec["variant"] or \
                res["workload"] != rec["app"]:
            errors.append(f"{rec['id']}: result labelled "
                          f"{res['workload']}/{res['variant']}")
        if res["exec_time_ticks"] <= 0:
            errors.append(f"{rec['id']}: zero execution time")
        traffic = sum(res[key] for key in SSD_TRAFFIC)
        if (rec["variant"] == "DRAM-Only") != (traffic == 0):
            errors.append(f"{rec['id']}: CXL-SSD traffic {traffic} "
                          "contradicts the variant")
        prev = seen.setdefault(rec["id"], rec["result"])
        if prev != rec["result"]:
            errors.append(f"{rec['id']}: nondeterministic SimResult")
    return errors


def end_to_end(point_ids, records, setup_samples):
    """Host-time end-to-end metrics of a timed run, plus the paper
    errors of its simulated results.

    Per point the median over its executions is taken, then summed over
    points. A failed execution adds its wall time and no work to
    ``sim_minstr_per_s`` and is charged its time limit in ``sweep_s``.
    A point counts as failed when any of its executions failed;
    ``attempted`` and ``failed`` count points.
    """
    by_id = {pid: [] for pid in point_ids}
    for rec in records:
        by_id[rec["id"]].append(rec)
    sweep = wall = instr = setup = 0.0
    failed = 0
    for pid in point_ids:
        recs = by_id[pid]
        if not recs:
            raise ValueError(f"point {pid} never ran")
        fails = [failure(r) for r in recs]
        failed += any(fails)
        sweep += statistics.median(
            r["limit_s"] if f else r["wall_s"] for r, f in zip(recs, fails))
        wall += statistics.median(r["wall_s"] for r in recs)
        instr += statistics.median(
            0 if f else parse_result(r)["committed_instructions"]
            for r, f in zip(recs, fails))
        samples = setup_samples.get(pid, [])
        if samples:
            setup += statistics.median(samples)
    attempted = len(point_ids)
    speedup_err, gap_err = paper_errors(
        exec_ticks_of(first_outcomes(point_ids, records)))
    metrics = {
        "sweep_s": (sweep, "s"),
        "setup_s": (setup, "s"),
        "sim_minstr_per_s": (instr / 1e6 / wall if wall > 0 else 0.0,
                             "Minstr/s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024.0,
                        "MB"),
        "point_ok_ratio": (1.0 - failed / attempted, "ratio"),
        "speedup_err_pct": (speedup_err, "%"),
        "dram_gap_err_pct": (gap_err, "%"),
    }
    return metrics, attempted, failed


def simulated_counts(records):
    """Per-layer simulated counts summed over completed points."""
    tot = {}
    for rec in records:
        if failure(rec):
            continue
        for key, value in parse_result(rec).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                tot[key] = tot.get(key, 0) + value

    def g(key):
        return tot.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    programs = g("flash_host_programs") + g("flash_gc_programs")
    cycles = g("compute_ticks") + g("mem_stall_ticks") + \
        g("ctx_switch_ticks") + g("idle_ticks")
    return {
        "flash.gc_runs": (g("gc_runs"), "count"),
        "flash.gc_programs": (g("flash_gc_programs"), "pages"),
        "flash.host_programs": (g("flash_host_programs"), "pages"),
        "flash.write_amp": (ratio(programs, g("flash_host_programs"))
                            if g("flash_host_programs") else 1.0, "ratio"),
        "flash.reads": (g("flash_reads"), "pages"),
        "cpu.llc_accesses": (g("llc_accesses"), "count"),
        "cpu.llc_mpki": (1000.0 * ratio(g("llc_misses"),
                                        g("committed_instructions")),
                         "1/kinstr"),
        "cpu.ctx_switches": (g("context_switches"), "count"),
        "cpu.mem_stall_share": (ratio(g("mem_stall_ticks"), cycles),
                                "ratio"),
        "ssd.read_hit_ratio": (ratio(g("ssd_read_hits"),
                                     g("ssd_read_hits")
                                     + g("ssd_read_misses")), "ratio"),
        "ssd.read_misses": (g("ssd_read_misses"), "count"),
        "ssd.writes": (g("ssd_writes"), "count"),
        "log.appends": (g("log_appends"), "count"),
        "log.update_hits": (g("log_update_hits"), "count"),
        "log.compactions": (g("compactions"), "count"),
        "mig.promotions": (g("promotions"), "count"),
        "mig.demotions": (g("demotions"), "count"),
        "cxl.bytes": (g("cxl_bytes"), "bytes"),
        "mem.host_reads": (g("host_reads"), "count"),
    }


def self_times(spans):
    """Host self time per span name: duration minus its children's."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0) + \
            s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0) + own
    return out
