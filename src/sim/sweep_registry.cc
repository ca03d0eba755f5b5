/**
 * @file
 * The paper's experiment grids as registered SweepSpecs — every figure,
 * table and ablation sweep under a stable name, each next to the
 * printer of its paper table. skybyte_sweep, the tables and CI all
 * read these shared definitions, so a grid change lands everywhere at
 * once.
 *
 * Axis order is apply order: axes that rebuild the config (variant and
 * combined config axes) come before knob axes that tweak it.
 */

#include <cstdio>
#include <map>

#include "sim/sweep.h"
#include "trace/workload.h"

namespace skybyte {
namespace detail {

void registerSweepUnlocked(SweepSpec spec); // sweep.cc

namespace {

double
execTicks(const SimResult &r)
{
    return static_cast<double>(r.execTime);
}

/** Execution time of @p num over @p den (a speedup of den over num). */
double
execRatio(const SimResult &num, const SimResult &den)
{
    return execTicks(num) / execTicks(den);
}

/** Share of busy cycles stalled on memory, in percent. */
double
memStallPct(const SimResult &r)
{
    const double busy = static_cast<double>(
        r.computeTicks + r.memStallTicks + r.ctxSwitchTicks);
    return busy > 0 ? 100.0 * static_cast<double>(r.memStallTicks) / busy
                    : 0.0;
}

/** Flash pages programmed on the data path (+1: no 0/0 on tiny runs). */
double
hostProgramsPlusOne(const SimResult &r)
{
    return static_cast<double>(r.flashHostPrograms) + 1.0;
}

/** A workload x variant table of exec time normalized to @p baseline. */
TablePrinter
normalizedExecTable(std::string title, std::string baseline)
{
    return [title = std::move(title), baseline = std::move(baseline)](
               const ResultGrid &g, std::ostream &os) {
        printHeader(os, title);
        printNormalized(os, g, g.labels(0), g.labels(1), baseline,
                        execTicks);
    };
}

/** Fig 9: context-switch trigger threshold (us) on SkyByte-Full. */
SweepSpec
fig09()
{
    SweepSpec s;
    s.name = "fig09";
    s.title = "context-switch trigger threshold sensitivity (2-80 us)";
    s.axes.push_back(
        workloadAxis({"bc", "bfs-dense", "srad", "tpcc"}));
    SweepAxis axis{"cs_threshold_us", {}};
    for (const double us : {2.0, 10.0, 20.0, 40.0, 60.0, 80.0}) {
        axis.values.push_back(
            {std::to_string(static_cast<int>(us)), [us](SweepPoint &p) {
                 p.cfg.policy.csThreshold = usToTicks(us);
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedExecTable(
        "Figure 9: normalized execution time vs context switch trigger "
        "threshold (us), 2us = 1.0",
        "2");
    return s;
}

void
fig10Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 10: scheduling policies — normalized exec "
                    "time and breakdown (ctx/comp/mem %)");
    writef(os, "%-10s %-8s %10s %8s %8s %8s\n", "workload", "policy",
           "norm.time", "ctx%", "comp%", "mem%");
    for (const auto &w : g.labels(0)) {
        const double base = execTicks(g.at(w, "RR"));
        for (const auto &name : g.labels(1)) {
            const SimResult &r = g.at(w, name);
            const double busy = static_cast<double>(
                r.computeTicks + r.memStallTicks + r.ctxSwitchTicks);
            writef(os, "%-10s %-8s %10.3f %8.1f %8.1f %8.1f\n",
                   w.c_str(), name.c_str(),
                   base > 0 ? execTicks(r) / base : 0.0,
                   100.0 * static_cast<double>(r.ctxSwitchTicks) / busy,
                   100.0 * static_cast<double>(r.computeTicks) / busy,
                   100.0 * static_cast<double>(r.memStallTicks) / busy);
        }
    }
}

/** Fig 10: thread scheduling policies under coordinated switching. */
SweepSpec
fig10()
{
    SweepSpec s;
    s.name = "fig10";
    s.title = "thread scheduling policies (RR/Random/CFS)";
    s.axes.push_back(workloadAxis({"bc", "radix", "srad", "tpcc"}));
    SweepAxis axis{"policy", {}};
    const std::pair<const char *, SchedPolicy> policies[] = {
        {"RR", SchedPolicy::RoundRobin},
        {"Random", SchedPolicy::Random},
        {"CFS", SchedPolicy::Cfs}};
    for (const auto &[label, policy] : policies) {
        axis.values.push_back({label, [policy = policy](SweepPoint &p) {
                                   p.cfg.policy.schedPolicy = policy;
                               }});
    }
    s.axes.push_back(std::move(axis));
    s.table = fig10Table;
    return s;
}

void
fig20Table(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    const std::vector<std::string> &sizes = g.labels(1);
    printHeader(os, "Figure 20: flash write traffic vs write log size "
                    "(pages programmed, normalized to the 16 KB log)");
    printNormalized(os, g, workloads, sizes, "16", hostProgramsPlusOne);
    writef(os, "\nCompactions and log appends per run:\n");
    for (const auto &w : workloads) {
        writef(os, "  %-12s", w.c_str());
        for (const auto &kb : sizes) {
            const SimResult &r = g.at(w, kb);
            writef(os, " %5lux/%-8lu",
                   static_cast<unsigned long>(r.compactions),
                   static_cast<unsigned long>(r.logAppends));
        }
        writef(os, "\n");
    }
}

/** Figs 19/20: write log size with total SSD DRAM fixed. */
SweepSpec
logSizeSweep(const char *name, const char *title, TablePrinter table)
{
    SweepSpec s;
    s.name = name;
    s.title = title;
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"log_kb", {}};
    for (const std::uint64_t kb : {16ULL, 64ULL, 256ULL, 1024ULL,
                                   2048ULL, 4096ULL}) {
        axis.values.push_back(
            {std::to_string(kb), [kb](SweepPoint &p) {
                 // Re-split the SSD DRAM: kb KB of log, rest cache.
                 const std::uint64_t total =
                     p.cfg.ssdCache.writeLogBytes
                     + p.cfg.ssdCache.dataCacheBytes;
                 p.cfg.ssdCache.writeLogBytes = kb * 1024;
                 p.cfg.ssdCache.dataCacheBytes = total - kb * 1024;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = std::move(table);
    return s;
}

void
fig15Table(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &threads = g.labels(1);
    printHeader(os, "Figure 15: normalized throughput / SSD bandwidth "
                    "vs thread count (8 threads = SkyByte-WP = 1.0)");
    writef(os, "%-12s %-6s", "workload", "metric");
    for (const auto &t : threads)
        writef(os, "%9s", t.c_str());
    writef(os, "\n");
    for (const auto &w : g.labels(0)) {
        const SimResult &base = g.at(w, "8");
        writef(os, "%-12s %-6s", w.c_str(), "thrpt");
        for (const auto &t : threads) {
            const SimResult &r = g.at(w, t);
            writef(os, "%9.2f",
                   base.throughput() > 0
                       ? r.throughput() / base.throughput()
                       : 0.0);
        }
        writef(os, "\n%-12s %-6s", "", "bw");
        for (const auto &t : threads) {
            const SimResult &r = g.at(w, t);
            writef(os, "%9.2f",
                   base.cxlBandwidthGbps() > 0
                       ? r.cxlBandwidthGbps() / base.cxlBandwidthGbps()
                       : 0.0);
        }
        writef(os, "\n");
    }
}

/** Fig 15: thread scaling (8 = SkyByte-WP baseline, rest Full). */
SweepSpec
fig15()
{
    SweepSpec s;
    s.name = "fig15";
    s.title = "throughput/bandwidth vs thread count (8-48)";
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"threads", {}};
    for (const int t : {8, 16, 24, 32, 40, 48}) {
        // 8 threads = SkyByte-WP (no switching benefit at 1/core).
        const std::string variant =
            t == 8 ? "SkyByte-WP" : "SkyByte-Full";
        axis.values.push_back(
            {std::to_string(t), [t, variant](SweepPoint &p) {
                 p.cfg = makeBenchConfig(variant);
                 p.cfg.seed = p.opt.seed;
                 p.opt.threadsOverride = t;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = fig15Table;
    return s;
}

/** Fig 21's SSD DRAM sizes (MB) and variants. */
const std::uint64_t kFig21DramMb[] = {2, 4, 8, 16, 32};
const char *const kFig21Variants[] = {"Base-CSSD", "SkyByte-P",
                                      "SkyByte-W", "SkyByte-WP",
                                      "SkyByte-Full"};

std::string
fig21Label(const std::string &variant, std::uint64_t mb)
{
    return variant + "@" + std::to_string(mb) + "MB";
}

void
fig21Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 21: execution time vs SSD DRAM size "
                    "(normalized to SkyByte-Full @ 8MB default)");
    for (const auto &w : g.labels(0)) {
        const double base = execTicks(g.at(w, "SkyByte-Full@8MB"));
        writef(os, "\n%s (SSD DRAM MB: rows = variant)\n", w.c_str());
        writef(os, "  %-14s", "variant");
        for (const std::uint64_t mb : kFig21DramMb)
            writef(os, "%10lu", static_cast<unsigned long>(mb));
        writef(os, "\n");
        for (const char *v : kFig21Variants) {
            writef(os, "  %-14s", v);
            for (const std::uint64_t mb : kFig21DramMb) {
                writef(os, "%10.2f",
                       base > 0
                           ? execTicks(g.at(w, fig21Label(v, mb))) / base
                           : 0.0);
            }
            writef(os, "\n");
        }
    }
}

/** Fig 21: SSD DRAM size x variant (4:1 host ratio, 1:7 log split). */
SweepSpec
fig21()
{
    SweepSpec s;
    s.name = "fig21";
    s.title = "SSD DRAM size sweep across variants";
    s.defaultInstrPerThread = 60'000;
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"config", {}};
    for (const std::uint64_t mb : kFig21DramMb) {
        for (const char *v : kFig21Variants) {
            const std::string variant = v;
            axis.values.push_back(
                {fig21Label(variant, mb), [variant, mb](SweepPoint &p) {
                     p.cfg = makeBenchConfig(variant);
                     p.cfg.seed = p.opt.seed;
                     const std::uint64_t total = mb * 1024 * 1024;
                     p.cfg.ssdCache.writeLogBytes = total / 8;
                     p.cfg.ssdCache.dataCacheBytes = total - total / 8;
                     p.cfg.hostMem.promotedBytesMax = total * 4;
                 }});
        }
    }
    s.axes.push_back(std::move(axis));
    s.table = fig21Table;
    return s;
}

/** Fig 22's NAND families (Table IV). */
const NandType kFig22Nand[] = {NandType::ULL, NandType::ULL2,
                               NandType::SLC, NandType::MLC};

void
fig22Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Table IV: NAND flash parameters");
    writef(os, "%-6s %10s %12s %10s\n", "type", "read(us)", "program(us)",
           "erase(us)");
    for (const NandType nand : kFig22Nand) {
        const NandTiming t = nandTiming(nand);
        writef(os, "%-6s %10.0f %12.0f %10.0f\n",
               nandTypeName(nand).c_str(), ticksToUs(t.readLatency),
               ticksToUs(t.programLatency), ticksToUs(t.eraseLatency));
    }
    printHeader(os, "Figure 22: execution time by NAND type "
                    "(normalized to ULL / Full-24 per workload)");
    for (const auto &w : g.labels(0)) {
        const double base = execTicks(g.at(w, "Full-24/ULL"));
        writef(os, "\n%s\n  %-12s", w.c_str(), "config");
        for (const NandType nand : kFig22Nand)
            writef(os, "%10s", nandTypeName(nand).c_str());
        writef(os, "\n");
        for (const auto &c : g.labels(1)) {
            writef(os, "  %-12s", c.c_str());
            for (const NandType nand : kFig22Nand) {
                const std::string col = c + "/" + nandTypeName(nand);
                writef(os, "%10.2f",
                       base > 0 ? execTicks(g.at(w, col)) / base : 0.0);
            }
            writef(os, "\n");
        }
    }
}

/** Fig 22 / Table IV: NAND families x SkyByte configurations. */
SweepSpec
fig22()
{
    SweepSpec s;
    s.name = "fig22";
    s.title = "NAND flash families x SkyByte configs";
    s.defaultInstrPerThread = 60'000;
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis config{"config", {}};
    struct Config
    {
        const char *label;
        const char *variant;
        int threads; // 0 = paper default
    };
    const Config configs[] = {
        {"SkyByte-P", "SkyByte-P", 0},   {"SkyByte-W", "SkyByte-W", 0},
        {"SkyByte-WP", "SkyByte-WP", 0}, {"Full-16", "SkyByte-Full", 16},
        {"Full-24", "SkyByte-Full", 24}, {"Full-32", "SkyByte-Full", 32}};
    for (const Config &c : configs) {
        const std::string v = c.variant;
        const int t = c.threads;
        config.values.push_back({c.label, [v, t](SweepPoint &p) {
                                     p.cfg = makeBenchConfig(v);
                                     p.cfg.seed = p.opt.seed;
                                     p.opt.threadsOverride = t;
                                 }});
    }
    s.axes.push_back(std::move(config));
    SweepAxis nand{"nand", {}};
    for (const NandType type : kFig22Nand) {
        nand.values.push_back(
            {nandTypeName(type), [type](SweepPoint &p) {
                 p.cfg.flash.timing = nandTiming(type);
             }});
    }
    s.axes.push_back(std::move(nand));
    s.table = fig22Table;
    return s;
}

void
fig23Table(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    const std::vector<std::string> &variants = g.labels(1);
    printHeader(os, "Figure 23: page migration mechanisms — execution "
                    "time normalized to SkyByte-C (lower is better)");
    printNormalized(os, g, workloads, variants, "SkyByte-C", execTicks);
    writef(os, "\nPromotions (pages moved to host DRAM):\n");
    for (const auto &w : workloads) {
        writef(os, "  %-12s", w.c_str());
        for (const auto &v : variants) {
            writef(os, " %10lu",
                   static_cast<unsigned long>(g.at(w, v).promotions));
        }
        writef(os, "\n");
    }
}

/** Fig 23: page-migration mechanisms. */
SweepSpec
fig23()
{
    SweepSpec s;
    s.name = "fig23";
    s.title = "page migration mechanisms (TPP/AstriFlash/"
        "SkyByte)";
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"mechanism", {}};
    for (const char *v : {"SkyByte-C", "AstriFlash-CXL", "SkyByte-CT",
                          "SkyByte-CP", "SkyByte-WCT", "SkyByte-Full"}) {
        const std::string variant = v;
        axis.values.push_back({variant, [variant](SweepPoint &p) {
                                   p.cfg = makeBenchConfig(variant);
                                   p.cfg.seed = p.opt.seed;
                                   if (variant == "AstriFlash-CXL") {
                                       // User-level switches are much
                                       // cheaper than an OS switch [23].
                                       p.cfg.policy.ctxSwitchOverhead =
                                           p.cfg.policy
                                               .astriSwitchOverhead;
                                   }
                               }});
    }
    s.axes.push_back(std::move(axis));
    s.table = fig23Table;
    return s;
}

void
fig05Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 5: fraction of cachelines ACCESSED per "
                    "cached page (CDF at thresholds; mean)");
    writef(os, "%-8s %-6s %8s %8s %8s %8s %8s\n", "workload", "ratio",
           "<=12.5%", "<=25%", "<=50%", "<=75%", "mean%");
    for (const auto &w : g.labels(0)) {
        for (const auto &col : g.labels(1)) {
            const RatioHistogram &h = g.at(w, col).readLocality;
            writef(os, "%-8s %-6s %8.3f %8.3f %8.3f %8.3f %8.1f\n",
                   w.c_str(), col.c_str(), h.cdfAt(0.125), h.cdfAt(0.25),
                   h.cdfAt(0.5), h.cdfAt(0.75), 100.0 * h.mean());
        }
    }
}

void
fig06Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 6: fraction of cachelines DIRTY per page "
                    "flushed to flash (CDF at thresholds; mean)");
    writef(os, "%-8s %-6s %8s %8s %8s %8s %8s %10s\n", "workload",
           "ratio", "<=12.5%", "<=25%", "<=50%", "<=75%", "mean%",
           "flushes");
    for (const auto &w : g.labels(0)) {
        for (const auto &col : g.labels(1)) {
            const RatioHistogram &h = g.at(w, col).writeLocality;
            writef(os, "%-8s %-6s %8.3f %8.3f %8.3f %8.3f %8.1f %10lu\n",
                   w.c_str(), col.c_str(), h.cdfAt(0.125), h.cdfAt(0.25),
                   h.cdfAt(0.5), h.cdfAt(0.75), 100.0 * h.mean(),
                   static_cast<unsigned long>(h.count()));
        }
    }
}

/** Figs 5/6: footprint:cache ratio sweep on Base-CSSD. */
SweepSpec
localitySweep(const char *name, const char *title, bool disable_log,
              TablePrinter table)
{
    SweepSpec s;
    s.name = name;
    s.title = title;
    s.baseVariant = "Base-CSSD";
    s.defaultInstrPerThread = 80'000;
    s.axes.push_back(workloadAxis({"bc", "dlrm", "radix", "ycsb"}));
    SweepAxis axis{"ratio", {}};
    for (const std::uint64_t n : {4ULL, 8ULL, 16ULL, 32ULL, 64ULL}) {
        axis.values.push_back(
            {"1:" + std::to_string(n), [n, disable_log](SweepPoint &p) {
                 // Fix the footprint, scale the cache to footprint/n.
                 p.opt.footprintBytes = 128ULL * 1024 * 1024;
                 p.cfg.ssdCache.dataCacheBytes =
                     p.opt.footprintBytes / n;
                 if (disable_log)
                     p.cfg.ssdCache.writeLogBytes = 0;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = std::move(table);
    return s;
}

void
ablDramModelTable(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    printHeader(os, "Ablation: DRAM timing model (normalized exec "
                    "time; <variant>/fixed = 1.0 per variant)");
    writef(os, "%-16s%18s%18s\n", "workload", "Base banked/fixed",
           "Full banked/fixed");
    for (const auto &w : workloads) {
        writef(os, "%-16s%18.3f%18.3f\n", w.c_str(),
               execRatio(g.at(w, "Base-CSSD/banked"),
                         g.at(w, "Base-CSSD/fixed")),
               execRatio(g.at(w, "SkyByte-Full/banked"),
                         g.at(w, "SkyByte-Full/fixed")));
    }
    printHeader(os, "Speedup Full over Base under each DRAM model "
                    "(the headline claim must survive the model swap)");
    writef(os, "%-16s%14s%14s\n", "workload", "fixed", "banked");
    for (const auto &w : workloads) {
        writef(os, "%-16s%14.2f%14.2f\n", w.c_str(),
               execRatio(g.at(w, "Base-CSSD/fixed"),
                         g.at(w, "SkyByte-Full/fixed")),
               execRatio(g.at(w, "Base-CSSD/banked"),
                         g.at(w, "SkyByte-Full/banked")));
    }
}

/** Ablation: fixed-latency vs banked DRAM timing. */
SweepSpec
ablDramModel()
{
    SweepSpec s;
    s.name = "abl_dram_model";
    s.title = "DRAM timing model ablation (fixed vs banked)";
    s.axes.push_back(workloadAxis({"bc", "srad", "tpcc", "ycsb"}));
    s.axes.push_back(variantAxis({"Base-CSSD", "SkyByte-Full"}));
    SweepAxis axis{"dram_model", {}};
    axis.values.push_back({"fixed", nullptr});
    axis.values.push_back({"banked", [](SweepPoint &p) {
                               p.cfg.hostDram.bank = ddr5BankTiming();
                               p.cfg.ssdDram.bank = lpddr4BankTiming();
                           }});
    s.axes.push_back(std::move(axis));
    s.table = ablDramModelTable;
    return s;
}

void
ablGcWearTable(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    const std::vector<std::string> &cols = g.labels(1);
    printHeader(os, "Ablation: GC threshold x wear-aware allocation "
                    "(normalized exec time, gc=20% = 1.0 — Table II "
                    "default)");
    printNormalized(os, g, workloads, cols, "gc=20%", execTicks);
    printHeader(os, "GC runs");
    printMatrix(
        os, g, "workload", workloads, cols,
        [](const SimResult &r) { return static_cast<double>(r.gcRuns); },
        "%12.0f");
    printHeader(os, "Write amplification factor");
    printMatrix(os, g, "workload", workloads, cols,
                [](const SimResult &r) { return r.writeAmplification; });
    printHeader(os, "Block P/E spread (max - min erase count)");
    printMatrix(
        os, g, "workload", workloads, cols,
        [](const SimResult &r) {
            return static_cast<double>(r.wearSpread);
        },
        "%12.0f");
}

/** Ablation: GC threshold x wear-aware allocation on Base-CSSD. */
SweepSpec
ablGcWear()
{
    SweepSpec s;
    s.name = "abl_gc_wear";
    s.title = "GC threshold x wear-aware allocation ablation";
    // Base-CSSD: page-granular writebacks keep the flash programming
    // (SkyByte's write log would coalesce most GC pressure away).
    s.baseVariant = "Base-CSSD";
    s.axes.push_back(workloadAxis({"srad", "bfs-dense"}));
    SweepAxis axis{"gc", {}};
    for (const double threshold : {0.10, 0.20, 0.40}) {
        for (const bool wear : {false, true}) {
            char label[48];
            std::snprintf(label, sizeof(label), "gc=%.0f%%%s",
                          threshold * 100.0, wear ? "/wear" : "");
            axis.values.push_back(
                {label, [threshold, wear](SweepPoint &p) {
                     p.cfg.flash.gcFreeBlockThreshold = threshold;
                     p.cfg.flash.gcRestoreThreshold = threshold + 0.05;
                     p.cfg.flash.wearAwareAllocation = wear;
                 }});
        }
    }
    s.axes.push_back(std::move(axis));
    s.table = ablGcWearTable;
    return s;
}

/**
 * A workload x knob table: exec time normalized to @p baseline, then
 * @p countTitle as a matrix of @p count.
 */
TablePrinter
normalizedWithCountTable(std::string title, std::string baseline,
                         std::string countTitle,
                         std::uint64_t SimResult::*count)
{
    return [title = std::move(title), baseline = std::move(baseline),
            countTitle = std::move(countTitle),
            count](const ResultGrid &g, std::ostream &os) {
        const std::vector<std::string> &workloads = g.labels(0);
        const std::vector<std::string> &cols = g.labels(1);
        printHeader(os, title);
        printNormalized(os, g, workloads, cols, baseline, execTicks);
        printHeader(os, countTitle);
        printMatrix(
            os, g, "workload", workloads, cols,
            [count](const SimResult &r) {
                return static_cast<double>(r.*count);
            },
            "%12.0f");
    };
}

/** Ablation: migration granularity (4 KB / 64 KB / 2 MB / none). */
SweepSpec
ablHugepage()
{
    SweepSpec s;
    s.name = "abl_hugepage";
    s.title = "migration granularity ablation "
        "(huge pages via two-level PLB)";
    s.axes.push_back(workloadAxis({"bc", "tpcc", "ycsb", "radix"}));
    SweepAxis axis{"granularity", {}};
    struct Mode
    {
        const char *label;
        std::uint64_t hugeBytes;
        bool promote;
    };
    const Mode modes[] = {{"no-migration", 0, false},
                          {"4KB-pages", 0, true},
                          {"64KB-regions", 64ULL * 1024, true},
                          {"2MB-huge", 2ULL * 1024 * 1024, true}};
    for (const Mode &mode : modes) {
        const std::uint64_t bytes = mode.hugeBytes;
        const bool promote = mode.promote;
        axis.values.push_back(
            {mode.label, [bytes, promote](SweepPoint &p) {
                 p.cfg = makeBenchConfig(promote ? "SkyByte-Full"
                                                 : "SkyByte-W");
                 p.cfg.seed = p.opt.seed;
                 p.cfg.hostMem.hugePageBytes = bytes;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedWithCountTable(
        "Ablation: migration granularity (§IV huge pages; normalized "
        "exec time, 4KB-pages = 1.0)",
        "4KB-pages", "Promotions completed (regions)",
        &SimResult::promotions);
    return s;
}

/** Ablation: MSHR handling on context-switch squash. */
SweepSpec
ablMshrFree()
{
    SweepSpec s;
    s.name = "abl_mshr_free";
    s.title = "MSHR free-on-squash vs hold-until-fill ablation";
    s.axes.push_back(workloadAxis({"bc", "bfs-dense", "srad", "ycsb"}));
    SweepAxis axis{"mshr", {}};
    for (const bool free_mshr : {true, false}) {
        axis.values.push_back(
            {free_mshr ? "free-on-squash" : "hold-until-fill",
             [free_mshr](SweepPoint &p) {
                 p.cfg.cpu.freeMshrOnSquash = free_mshr;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedExecTable(
        "Ablation: MSHR handling on squash (SkyByte-Full; normalized "
        "exec time, free-on-squash = 1.0)",
        "free-on-squash");
    return s;
}

/** Ablation: hot-page promotion threshold. */
SweepSpec
ablPromotion()
{
    SweepSpec s;
    s.name = "abl_promotion";
    s.title = "hot-page promotion threshold sensitivity";
    s.axes.push_back(workloadAxis({"bc", "tpcc", "ycsb", "bfs-dense"}));
    SweepAxis axis{"hot", {}};
    for (const std::uint32_t threshold : {2u, 8u, 32u, 128u, 512u}) {
        axis.values.push_back(
            {"hot=" + std::to_string(threshold),
             [threshold](SweepPoint &p) {
                 p.cfg.policy.hotPageThreshold = threshold;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedWithCountTable(
        "Ablation: hot-page promotion threshold sweep (normalized exec "
        "time, hot=32 default = 1.0)",
        "hot=32", "Promotions at each threshold", &SimResult::promotions);
    return s;
}

/** Ablation: demotion victim selection under a tight host budget. */
SweepSpec
ablReclaim()
{
    SweepSpec s;
    s.name = "abl_reclaim";
    s.title = "reclaim policy ablation (lru-scan vs active-inactive)";
    s.axes.push_back(workloadAxis({"bc", "tpcc", "ycsb", "dlrm"}));
    SweepAxis axis{"reclaim", {}};
    for (const ReclaimPolicy policy :
         {ReclaimPolicy::LruScan, ReclaimPolicy::ActiveInactive}) {
        axis.values.push_back(
            {policy == ReclaimPolicy::LruScan ? "lru-scan"
                                              : "active-inactive",
             [policy](SweepPoint &p) {
                 // 1/32 of the default budget plus an eager promotion
                 // threshold: the hot set must overflow the host so
                 // the reclaim path actually runs.
                 p.cfg.hostMem.promotedBytesMax /= 32;
                 p.cfg.policy.hotPageThreshold = 8;
                 p.cfg.hostMem.reclaim = policy;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedWithCountTable(
        "Ablation: reclaim policy under a tight host budget (normalized "
        "exec time, lru-scan = 1.0)",
        "lru-scan", "Demotions under each policy", &SimResult::demotions);
    return s;
}

/** workload x variant grid (the most common figure shape). */
SweepSpec
variantGrid(const char *name, const char *title,
            std::vector<std::string> workloads,
            std::vector<std::string> variants,
            std::uint64_t instr, TablePrinter table = {})
{
    SweepSpec s;
    s.name = name;
    s.title = title;
    s.defaultInstrPerThread = instr;
    s.axes.push_back(workloadAxis(std::move(workloads)));
    s.axes.push_back(variantAxis(std::move(variants)));
    s.table = std::move(table);
    return s;
}

void
fig03Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 3: off-chip access latency CDFs "
                    "(latency_ns cumulative_fraction)");
    for (const auto &w : g.labels(0)) {
        for (const auto &v : g.labels(1)) {
            const LatencyHistogram &lat = g.at(w, v).offchipLatency;
            writef(os,
                   "\n[%s / %s] p50=%.0fns p90=%.0fns p99=%.0fns "
                   "p99.9=%.0fns\n",
                   w.c_str(), v.c_str(),
                   ticksToNs(lat.percentileTicks(0.5)),
                   ticksToNs(lat.percentileTicks(0.9)),
                   ticksToNs(lat.percentileTicks(0.99)),
                   ticksToNs(lat.percentileTicks(0.999)));
            int printed = 0;
            for (const auto &[ns, frac] : lat.cdfPoints()) {
                writef(os, "  %10.0f %7.4f", ns, frac);
                if (++printed % 4 == 0)
                    writef(os, "\n");
            }
            writef(os, "\n");
        }
    }
}

void
fig04Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 4: cycles bounded by memory vs compute (%)");
    writef(os, "%-12s %22s %22s\n", "workload", "DRAM mem/comp",
           "CXL-SSD mem/comp");
    for (const auto &w : g.labels(0)) {
        const double dram_mem = memStallPct(g.at(w, "DRAM-Only"));
        const double cssd_mem = memStallPct(g.at(w, "Base-CSSD"));
        writef(os, "%-12s %10.1f /%9.1f %11.1f /%9.1f\n", w.c_str(),
               dram_mem, 100.0 - dram_mem, cssd_mem, 100.0 - cssd_mem);
    }
}

void
fig14Table(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    printHeader(os, "Figure 14: normalized execution time over "
                    "Base-CSSD (lower is better)");
    printNormalized(os, g, workloads, g.labels(1), "Base-CSSD",
                    execTicks);
    writef(os, "\nSpeedup of SkyByte-Full over Base-CSSD "
               "(higher is better):\n");
    std::vector<double> speedups;
    for (const auto &w : workloads) {
        const double s =
            execRatio(g.at(w, "Base-CSSD"), g.at(w, "SkyByte-Full"));
        speedups.push_back(s);
        writef(os, "  %-12s %6.2fx\n", w.c_str(), s);
    }
    writef(os, "  %-12s %6.2fx   (paper: 6.11x at full scale)\n",
           "geo.mean", geoMean(speedups));
    std::vector<double> vs_ideal;
    for (const auto &w : workloads) {
        vs_ideal.push_back(
            execRatio(g.at(w, "DRAM-Only"), g.at(w, "SkyByte-Full")));
    }
    writef(os, "\nSkyByte-Full reaches %.0f%% of DRAM-Only performance "
               "(paper: 75%%)\n",
           100.0 * geoMean(vs_ideal));
}

void
fig16Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Figure 16: memory request breakdown (%) under "
                    "SkyByte-Full");
    writef(os, "%-12s %9s %9s %9s %9s\n", "workload", "H-R/W", "S-R-H",
           "S-R-M", "S-W");
    for (const auto &w : g.labels(0)) {
        const SimResult &r = g.at(w, "SkyByte-Full");
        const double total = static_cast<double>(
            r.hostReads + r.hostWrites + r.ssdReadHits + r.ssdReadMisses
            + r.ssdWrites);
        if (total == 0)
            continue;
        auto pct = [total](std::uint64_t n) {
            return 100.0 * static_cast<double>(n) / total;
        };
        writef(os, "%-12s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n", w.c_str(),
               pct(r.hostReads + r.hostWrites), pct(r.ssdReadHits),
               pct(r.ssdReadMisses), pct(r.ssdWrites));
    }
}

void
fig17Table(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    const std::vector<std::string> &variants = g.labels(1);
    printHeader(os, "Figure 17a: AMAT normalized to Base-CSSD");
    printNormalized(os, g, workloads, variants, "Base-CSSD",
                    [](const SimResult &r) {
                        return r.amatTotalTicks > 0 ? r.amatTotalTicks
                                                    : 1.0;
                    });
    printHeader(os, "Figure 17b: AMAT component breakdown (ns per "
                    "off-chip read): host/protocol/indexing/ssdDram/"
                    "flash");
    auto ns = [](double ticks) {
        return ticksToNs(static_cast<Tick>(ticks));
    };
    for (const auto &w : workloads) {
        writef(os, "\n%s\n", w.c_str());
        for (const auto &v : variants) {
            const SimResult &r = g.at(w, v);
            writef(os,
                   "  %-14s host=%8.1f proto=%7.1f idx=%6.1f "
                   "dram=%8.1f flash=%10.1f total=%10.1f\n",
                   v.c_str(), ns(r.amatHostTicks),
                   ns(r.amatProtocolTicks), ns(r.amatIndexingTicks),
                   ns(r.amatSsdDramTicks), ns(r.amatFlashTicks),
                   ns(r.amatTotalTicks));
        }
    }
}

void
fig18Table(const ResultGrid &g, std::ostream &os)
{
    const std::vector<std::string> &workloads = g.labels(0);
    const std::vector<std::string> &variants = g.labels(1);
    printHeader(os, "Figure 18: flash write traffic (pages programmed, "
                    "normalized to Base-CSSD; log scale in paper)");
    printNormalized(os, g, workloads, variants, "Base-CSSD",
                    hostProgramsPlusOne);
    writef(os, "\nAbsolute pages programmed (data path / GC):\n");
    for (const auto &w : workloads) {
        writef(os, "  %-12s", w.c_str());
        for (const auto &v : variants) {
            const SimResult &r = g.at(w, v);
            writef(os, " %8lu/%-6lu",
                   static_cast<unsigned long>(r.flashHostPrograms),
                   static_cast<unsigned long>(r.flashGcPrograms));
        }
        writef(os, "\n");
    }
}

void
table1Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Table I: workload characteristics "
                    "(measured vs paper)");
    writef(os, "%-10s %-9s %12s %12s %9s %9s %9s %9s\n", "name", "suite",
           "footprint", "paper(GB)", "wr%", "paper%", "MPKI",
           "paperMPKI");
    for (const auto &w : g.labels(0)) {
        const WorkloadInfo &info = workloadInfo(w);
        const SimResult &r = g.at(w, "Base-CSSD");

        // Measured write ratio of the generated trace.
        WorkloadParams params;
        params.numThreads = 1;
        params.instrPerThread = 200'000;
        auto wl = makeWorkload(w, params);
        std::uint64_t writes = 0, mem_ops = 0;
        TraceCursor cursor(*wl, 0);
        TraceRecord rec;
        while (cursor.next(rec)) {
            mem_ops++;
            writes += rec.isWrite ? 1 : 0;
        }
        const double footprint_mb =
            static_cast<double>(wl->footprintBytes()) / (1024 * 1024);

        writef(os,
               "%-10s %-9s %9.0fMB %12.2f %8.1f%% %8.1f%% %9.1f %9.1f\n",
               w.c_str(), info.suite.c_str(), footprint_mb,
               info.paperFootprintGb,
               100.0 * static_cast<double>(writes)
                   / static_cast<double>(mem_ops),
               100.0 * info.paperWriteRatio, r.llcMpki(),
               info.paperLlcMpki);
    }
    writef(os, "\n(footprints are deliberately 1/64 of the paper's; MPKI "
               "is measured at bench scale so absolute values differ — "
               "the cross-workload ordering is the reproduction "
               "target)\n");
}

void
table3Table(const ResultGrid &g, std::ostream &os)
{
    printHeader(os, "Table III: average flash read latency of "
                    "SkyByte-WP (us)");
    writef(os, "%-12s %12s %12s\n", "workload", "measured(us)",
           "paper(us)");
    const std::map<std::string, double> paper = {
        {"bc", 3.5},    {"bfs-dense", 25.7}, {"dlrm", 3.4},
        {"radix", 4.9}, {"srad", 22.5},      {"tpcc", 19.6},
        {"ycsb", 3.3}};
    for (const auto &w : g.labels(0)) {
        writef(os, "%-12s %12.1f %12.1f\n", w.c_str(),
               g.at(w, "SkyByte-WP").flashReadLatencyUs, paper.at(w));
    }
}

} // namespace

void
registerBuiltinSweeps()
{
    const std::vector<std::string> paper = paperWorkloadNames();

    registerSweepUnlocked(variantGrid(
        "fig02", "DRAM vs Base-CSSD end-to-end execution time", paper,
        {"DRAM-Only", "Base-CSSD"}, 120'000,
        normalizedExecTable("Figure 2: Normalized execution time, DRAM "
                            "vs Base-CSSD (DRAM = 1.0)",
                            "DRAM-Only")));
    registerSweepUnlocked(variantGrid(
        "fig03", "off-chip access latency CDFs (DRAM vs CXL-SSD)",
        {"bc", "bfs-dense", "srad", "tpcc"},
        {"DRAM-Only", "Base-CSSD"}, 100'000, fig03Table));
    registerSweepUnlocked(variantGrid(
        "fig04", "memory- vs compute-bounded cycle breakdown", paper,
        {"DRAM-Only", "Base-CSSD"}, 120'000, fig04Table));
    registerSweepUnlocked(localitySweep(
        "fig05", "cachelines accessed per cached page (read locality)",
        true, fig05Table));
    registerSweepUnlocked(localitySweep(
        "fig06", "cachelines dirty per flushed page (write locality)",
        false, fig06Table));
    registerSweepUnlocked(fig09());
    registerSweepUnlocked(fig10());
    registerSweepUnlocked(variantGrid(
        "fig14", "headline ablation: all variants vs Base-CSSD", paper,
        allVariantNames(), 150'000, fig14Table));
    registerSweepUnlocked(fig15());
    registerSweepUnlocked(variantGrid(
        "fig16", "memory request breakdown under SkyByte-Full", paper,
        {"SkyByte-Full"}, 120'000, fig16Table));
    registerSweepUnlocked(variantGrid(
        "fig17", "AMAT and its component breakdown", paper,
        {"Base-CSSD", "SkyByte-P", "SkyByte-W", "SkyByte-WP",
         "SkyByte-Full", "DRAM-Only"},
        100'000, fig17Table));
    registerSweepUnlocked(variantGrid(
        "fig18", "flash write traffic by variant", paper,
        {"Base-CSSD", "SkyByte-P", "SkyByte-C", "SkyByte-W",
         "SkyByte-CP", "SkyByte-WP", "SkyByte-Full"},
        150'000, fig18Table));
    registerSweepUnlocked(logSizeSweep(
        "fig19", "execution time vs write log size",
        normalizedExecTable("Figure 19: normalized execution time vs "
                            "write log size (KB; total SSD DRAM fixed; "
                            "1024 KB = default 1/8 split = 1.0)",
                            "1024")));
    registerSweepUnlocked(logSizeSweep(
        "fig20", "flash write traffic vs write log size", fig20Table));
    registerSweepUnlocked(fig21());
    registerSweepUnlocked(fig22());
    registerSweepUnlocked(fig23());
    registerSweepUnlocked(variantGrid(
        "table1", "workload characteristics on Base-CSSD", paper,
        {"Base-CSSD"}, 120'000, table1Table));
    registerSweepUnlocked(variantGrid(
        "table3", "flash read latency of SkyByte-WP demand fetches",
        paper, {"SkyByte-WP"}, 120'000, table3Table));
    registerSweepUnlocked(ablDramModel());
    registerSweepUnlocked(ablGcWear());
    registerSweepUnlocked(ablHugepage());
    registerSweepUnlocked(ablMshrFree());
    registerSweepUnlocked(ablPromotion());
    registerSweepUnlocked(ablReclaim());

    // Tiny 2x2 grid for CI shard/merge checks and quick demos.
    SweepSpec smoke = variantGrid(
        "smoke", "tiny 2x2 grid for CI shard/merge checks",
        {"ycsb", "srad"}, {"Base-CSSD", "SkyByte-Full"}, 4'000);
    registerSweepUnlocked(std::move(smoke));

    // The parameterized synthetic scenarios as a workload axis of spec
    // strings — beyond-the-paper coverage, and the grid CI's
    // workload-fingerprint job diffs against a checked-in reference
    // report to catch accidental simulation or generator drift.
    registerSweepUnlocked(variantGrid(
        "scenarios",
        "parameterized synthetic scenarios (workload spec strings)",
        {"zipf:theta=0.8,footprint=32M", "scan:stride=128",
         "ptrchase:footprint=16M,chain=32",
         "phased:phase_instr=8000,write_ratio=0.3"},
        {"Base-CSSD", "SkyByte-Full"}, 4'000));

    // Multi-tenant co-location: heterogeneous mixes sharing one device
    // (write-log pressure, PLB thrash and migration churn only show up
    // with co-located tenants). Per-tenant stat buckets land in each
    // point's SimResult; CI gates the report against
    // tests/data/colocation.reference.json and proves shard/merge
    // byte-identity on this sweep too.
    registerSweepUnlocked(variantGrid(
        "colocation",
        "multi-tenant co-location mixes (mix: spec combinator)",
        {"mix:hot=zipf:theta=0.9,footprint=16M;"
         "stream=scan:stride=128,footprint=16M,threads=2",
         "mix:a=zipf:footprint=8M;"
         "b=zipf:footprint=8M,write_ratio=0.4,threads=2",
         "mix:chase=ptrchase:footprint=8M,chain=16,threads=2;"
         "oltp=tpcc:footprint=16M"},
        {"Base-CSSD", "SkyByte-W", "SkyByte-Full"}, 4'000));

    // Per-tenant QoS: a noisy random-access tenant (3 threads of
    // uniform over 24M — every access an LLC compulsory miss, high
    // MLP, weight 1) co-located with a latency-sensitive pointer chase
    // (serial dependent loads, weight 4), swept over progressively
    // stricter throttling policies. The pinned reference
    // (tests/data/qos.reference.json) demonstrates the SLO effect: the
    // lat tenant's offchip_p99_ns drops measurably once weighted
    // admission throttles the noisy tenant's device request rate.
    {
        SweepSpec qos;
        qos.name = "qos";
        qos.title =
            "per-tenant QoS throttling (noisy uniform vs ptrchase SLO)";
        qos.defaultInstrPerThread = 20'000;
        qos.axes.push_back(workloadAxis(
            {"mix:noisy=uniform:footprint=24M,write_ratio=0.2,"
             "threads=3,qos=1;lat=ptrchase:footprint=8M,chain=16,qos=4"}));
        qos.axes.push_back(variantAxis({"SkyByte-W", "SkyByte-Full"}));
        // Single-value axis: a microbenchmark-scale memory system so the
        // noisy tenant's dirty lines actually evict to the device within
        // the sweep's instruction budget (with the default 16 MB LLC
        // nothing ever spills) and the shrunken write log makes the
        // per-tenant quota reachable between log flushes.
        SweepAxis scale{"scale", {}};
        scale.values.push_back({"micro", [](SweepPoint &p) {
                                    p.cfg.cpu.l2.sizeBytes = 128 * 1024;
                                    p.cfg.cpu.llc.sizeBytes = 256 * 1024;
                                    p.cfg.ssdCache.writeLogBytes =
                                        64 * 1024;
                                }});
        qos.axes.push_back(std::move(scale));
        SweepAxis policy{"qos_policy", {}};
        policy.values.push_back({"off", [](SweepPoint &) {}});
        // 5 us epochs, 4:1 credit split (256 credits -> 204 lat / 51
        // noisy): the lat tenant's budget is ~2x its measured offered
        // load (~105 ops / 5 us on SkyByte-Full) so only its retry
        // storms get paced, while the noisy tenant's MLP bursts are
        // spread across the epoch. Tighter pools bind the lat tenant
        // and its delay-hint retries then snowball into extra spend.
        policy.values.push_back({"admission", [](SweepPoint &p) {
                                     p.cfg.qos.weightedAdmission = true;
                                     p.cfg.qos.epochTicks =
                                         usToTicks(5.0);
                                     p.cfg.qos.creditsPerEpoch = 256;
                                 }});
        policy.values.push_back(
            {"admission+quota", [](SweepPoint &p) {
                 p.cfg.qos.weightedAdmission = true;
                 p.cfg.qos.epochTicks = usToTicks(5.0);
                 p.cfg.qos.creditsPerEpoch = 256;
                 p.cfg.qos.writeLogQuota = true;
             }});
        policy.values.push_back({"full", [](SweepPoint &p) {
                                     p.cfg.qos.weightedAdmission = true;
                                     p.cfg.qos.epochTicks =
                                         usToTicks(5.0);
                                     p.cfg.qos.creditsPerEpoch = 256;
                                     p.cfg.qos.writeLogQuota = true;
                                     p.cfg.qos.migrationShare = true;
                                 }});
        qos.axes.push_back(std::move(policy));
        registerSweepUnlocked(std::move(qos));
    }

    // Trace-capture replay: the workload axis is a tracelog: spec
    // pointing at a file the runner materializes first (skybyte_
    // tracegen / tracepack). The spec replays either encoding by
    // magic, so CI runs this sweep against a flat capture, rewrites
    // the same path as STRC, reruns, and `skybyte_sweep --diff`
    // proves the two reports byte-identical.
    registerSweepUnlocked(variantGrid(
        "tracereplay",
        "replay a trace capture (flat or STRC) at ./replay.trace",
        {"tracelog:path=replay.trace"},
        {"Base-CSSD", "SkyByte-Full"}, 4'000));
}

} // namespace detail
} // namespace skybyte
