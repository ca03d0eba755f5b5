/**
 * @file
 * End-to-end integration tests: whole-system runs across variants,
 * checking completion, accounting invariants, and the paper's headline
 * orderings at small scale (SkyByte beats Base-CSSD, DRAM-Only beats
 * everything, write log cuts flash write traffic).
 */

#include <gtest/gtest.h>

#include "sim/config_file.h"
#include "sim/experiment.h"
#include "sim/system.h"

namespace skybyte {
namespace {

ExperimentOptions
smallOpts()
{
    ExperimentOptions opt;
    opt.instrPerThread = 30'000;
    opt.footprintBytes = 32ULL * 1024 * 1024;
    return opt;
}

/**
 * Shrink the cache hierarchy so a 32 MB footprint behaves like the
 * paper's 8 GB footprints against 16 MB of LLC: without this, test-sized
 * runs never evict dirty lines to the SSD.
 */
SimConfig
testConfig(const std::string &variant)
{
    SimConfig cfg = makeConfig(variant);
    cfg.cpu.l1d.sizeBytes = 16 * 1024;
    cfg.cpu.l2.sizeBytes = 64 * 1024;
    cfg.cpu.llc.sizeBytes = 1024 * 1024;
    cfg.ssdCache.writeLogBytes = 512 * 1024;
    cfg.ssdCache.dataCacheBytes = 3584 * 1024;
    cfg.hostMem.promotedBytesMax = 16ULL * 1024 * 1024;
    return cfg;
}

SimResult
runTestVariant(const std::string &variant, const std::string &workload,
               const ExperimentOptions &opt)
{
    SimConfig cfg = testConfig(variant);
    return runConfig(cfg, workload, opt);
}

constexpr Tick kLimit = usToTicks(2'000'000.0); // 2 s simulated

TEST(SystemSmoke, DramOnlyCompletes)
{
    SimConfig cfg = testConfig("DRAM-Only");
    SimResult res = runConfig(cfg, "uniform", smallOpts());
    EXPECT_FALSE(res.timedOut);
    EXPECT_GT(res.execTime, 0u);
    EXPECT_GT(res.committedInstructions, 0u);
    EXPECT_EQ(res.ssdWrites, 0u);
    EXPECT_EQ(res.ssdReadMisses, 0u);
}

TEST(SystemSmoke, BaseCssdCompletes)
{
    SimResult res = runTestVariant("Base-CSSD", "uniform", smallOpts());
    EXPECT_FALSE(res.timedOut);
    EXPECT_GT(res.ssdReadMisses, 0u);
    EXPECT_GT(res.ssdWrites, 0u);
    EXPECT_GT(res.flashHostPrograms, 0u);
}

TEST(SystemSmoke, AllVariantsComplete)
{
    for (const auto &variant : allVariantNames()) {
        SCOPED_TRACE(variant);
        SimConfig cfg = testConfig(variant);
        System sys(cfg, "uniform", makeParams(cfg, smallOpts()));
        SimResult res = sys.run(kLimit);
        EXPECT_FALSE(res.timedOut) << variant;
        EXPECT_GT(res.committedInstructions, 0u) << variant;
    }
}

TEST(SystemSmoke, AlternativeMigrationVariantsComplete)
{
    for (const std::string variant :
         {"SkyByte-CT", "SkyByte-WCT", "AstriFlash-CXL"}) {
        SCOPED_TRACE(variant);
        SimConfig cfg = testConfig(variant);
        System sys(cfg, "uniform", makeParams(cfg, smallOpts()));
        SimResult res = sys.run(kLimit);
        EXPECT_FALSE(res.timedOut) << variant;
        EXPECT_GT(res.committedInstructions, 0u) << variant;
    }
}

TEST(SystemOrdering, DramOnlyFastest)
{
    SimResult base = runTestVariant("Base-CSSD", "uniform", smallOpts());
    SimResult ideal = runTestVariant("DRAM-Only", "uniform", smallOpts());
    EXPECT_LT(ideal.execTime, base.execTime);
}

TEST(SystemOrdering, WriteLogCutsFlashWriteTraffic)
{
    SimResult base = runTestVariant("Base-CSSD", "uniform", smallOpts());
    SimResult w = runTestVariant("SkyByte-W", "uniform", smallOpts());
    EXPECT_LT(w.flashHostPrograms, base.flashHostPrograms);
}

TEST(SystemOrdering, FullBeatsBase)
{
    SimResult base = runTestVariant("Base-CSSD", "uniform", smallOpts());
    SimResult full = runTestVariant("SkyByte-Full", "uniform", smallOpts());
    EXPECT_LT(full.execTime, base.execTime);
}

TEST(SystemAccounting, TimeBucketsCoverExecution)
{
    SimResult res = runTestVariant("SkyByte-Full", "uniform", smallOpts());
    // Per-core buckets: compute + memstall + ctxswitch + idle should not
    // exceed cores * execTime by more than scheduling slack.
    const double total = static_cast<double>(
        res.computeTicks + res.memStallTicks + res.ctxSwitchTicks);
    EXPECT_GT(total, 0.0);
    EXPECT_GT(res.contextSwitches, 0u);
}

TEST(SystemAccounting, RequestBreakdownNonzero)
{
    // ycsb's zipfian skew creates hot pages, so promotions kick in and
    // host DRAM sees traffic.
    SimResult res = runTestVariant("SkyByte-WP", "ycsb", smallOpts());
    EXPECT_GT(res.ssdReadHits + res.ssdReadMisses, 0u);
    EXPECT_GT(res.hostReads + res.hostWrites, 0u);
    EXPECT_GT(res.promotions, 0u);
    EXPECT_GT(res.ssdWrites, 0u);
}

TEST(SystemTenants, PerTenantCountsSumToAggregateTotals)
{
    // Co-located runs partition every request: each tenant owns a
    // disjoint device-address range and a disjoint thread set, so the
    // per-tenant buckets must sum exactly to the aggregate SimResult
    // totals on every variant.
    const std::string mix =
        "mix:hot=zipf:theta=0.9,footprint=8M;"
        "cold=uniform:footprint=8M,write_ratio=0.4,threads=2";
    for (const std::string variant :
         {"DRAM-Only", "Base-CSSD", "SkyByte-W", "SkyByte-Full"}) {
        SCOPED_TRACE(variant);
        SimConfig cfg = testConfig(variant);
        ExperimentOptions opt = smallOpts();
        opt.footprintBytes = 0; // tenants size their own footprints
        System sys(cfg, mix, makeParams(cfg, opt));
        const SimResult res = sys.run(kLimit);
        ASSERT_FALSE(res.timedOut);
        ASSERT_EQ(res.tenants.size(), 2u);
        EXPECT_EQ(res.tenants[0].name, "hot");
        EXPECT_EQ(res.tenants[1].name, "cold");
        EXPECT_EQ(res.tenants[1].threads, 2);

        std::uint64_t instructions = 0;
        std::uint64_t host_reads = 0;
        std::uint64_t host_writes = 0;
        std::uint64_t ssd_hits = 0;
        std::uint64_t ssd_misses = 0;
        std::uint64_t ssd_writes = 0;
        std::uint64_t log_appends = 0;
        int threads = 0;
        for (const TenantResult &t : res.tenants) {
            instructions += t.instructions;
            host_reads += t.hostReads;
            host_writes += t.hostWrites;
            ssd_hits += t.ssdReadHits;
            ssd_misses += t.ssdReadMisses;
            ssd_writes += t.ssdWrites;
            log_appends += t.logAppends;
            threads += t.threads;
            EXPECT_GT(t.instructions, 0u) << t.name;
            EXPECT_LE(t.execTime, res.execTime) << t.name;
        }
        EXPECT_EQ(threads, sys.workload().numThreads());
        EXPECT_EQ(instructions, res.committedInstructions);
        EXPECT_EQ(host_reads, res.hostReads);
        EXPECT_EQ(host_writes, res.hostWrites);
        EXPECT_EQ(ssd_hits, res.ssdReadHits);
        EXPECT_EQ(ssd_misses, res.ssdReadMisses);
        EXPECT_EQ(ssd_writes, res.ssdWrites);
        EXPECT_EQ(log_appends, res.logAppends);
        // The run must actually exercise both sides of the split.
        if (variant != "DRAM-Only") {
            EXPECT_GT(ssd_hits + ssd_misses, 0u);
            EXPECT_GT(ssd_writes, 0u);
        }
    }
}

TEST(SystemTenants, PerTenantLatencyHistogramsPartitionAggregate)
{
    // Tenant off-chip latency histograms record at the same uncore
    // sample sites as the aggregate, so merging them must reproduce the
    // aggregate exactly — same total count, same per-bucket CDF, same
    // percentiles. Every off-chip line is either a tenant device line
    // or a thread-private line, both of which classify to a tenant.
    const std::string mix =
        "mix:hot=zipf:theta=0.9,footprint=8M;"
        "cold=uniform:footprint=8M,write_ratio=0.4,threads=2";
    for (const std::string variant :
         {"Base-CSSD", "SkyByte-W", "SkyByte-Full"}) {
        SCOPED_TRACE(variant);
        SimConfig cfg = testConfig(variant);
        ExperimentOptions opt = smallOpts();
        opt.footprintBytes = 0;
        System sys(cfg, mix, makeParams(cfg, opt));
        const SimResult res = sys.run(kLimit);
        ASSERT_FALSE(res.timedOut);
        ASSERT_EQ(res.tenants.size(), 2u);
        LatencyHistogram merged;
        for (const TenantResult &t : res.tenants) {
            EXPECT_GT(t.offchipLatency.count(), 0u) << t.name;
            merged.merge(t.offchipLatency);
        }
        EXPECT_EQ(merged.count(), res.offchipLatency.count());
        EXPECT_EQ(merged.cdfPoints(), res.offchipLatency.cdfPoints());
        for (const double p : {0.5, 0.95, 0.99})
            EXPECT_EQ(merged.percentileTicks(p),
                      res.offchipLatency.percentileTicks(p));
    }
}

TEST(SystemTenants, WeightedAdmissionDelaysAreAccountedPerTenant)
{
    // A deliberately tight credit pool paces both tenants; the delays
    // must show up in the per-tenant QoS counters and the run must
    // still complete with a sane fairness index.
    const std::string mix =
        "mix:hot=zipf:theta=0.9,footprint=8M,qos=3;"
        "cold=uniform:footprint=8M,write_ratio=0.4,threads=2,qos=1";
    SimConfig cfg = testConfig("SkyByte-W");
    cfg.qos.weightedAdmission = true;
    cfg.qos.epochTicks = usToTicks(5.0);
    cfg.qos.creditsPerEpoch = 32;
    ExperimentOptions opt = smallOpts();
    opt.footprintBytes = 0;
    System sys(cfg, mix, makeParams(cfg, opt));
    const SimResult res = sys.run(kLimit);
    ASSERT_FALSE(res.timedOut);
    ASSERT_EQ(res.tenants.size(), 2u);
    EXPECT_DOUBLE_EQ(res.tenants[0].qosWeight, 3.0);
    EXPECT_DOUBLE_EQ(res.tenants[1].qosWeight, 1.0);
    std::uint64_t delayed = 0;
    double delay_us = 0;
    for (const TenantResult &t : res.tenants) {
        delayed += t.qosDelayedReads + t.qosDelayedWrites;
        delay_us += t.qosThrottleDelayUs;
    }
    EXPECT_GT(delayed, 0u);
    EXPECT_GT(delay_us, 0.0);
    EXPECT_GT(res.fairnessIpc(), 0.0);
    EXPECT_LE(res.fairnessIpc(), 1.0);
}

TEST(SystemTenants, MigrationSharesKeepPromotedSetsMoving)
{
    // Two zipf tenants whose hot sets outgrow 1 MB of host DRAM. Once a
    // tenant fills its share it must demote its own cold regions to
    // promote new ones instead of freezing its promoted set.
    ExperimentSpec spec;
    for (const char *line :
         {"workload=mix:a=zipf:footprint=16M;b=zipf:footprint=16M",
          "instr_per_thread=200000", "host_dram_size_byte=1048576",
          "promotion_enable=true", "migration_mechanism=skybyte",
          "qos_migration_share=true"}) {
        applyAssignment(line, spec);
    }
    System sys(spec.config, spec.workload, spec.params);
    const SimResult res = sys.run(kLimit);
    ASSERT_FALSE(res.timedOut);
    EXPECT_GT(res.demotions, 0u);
    EXPECT_GT(res.promotions, 256u); // 1 MB of 4 KB regions
}

TEST(SystemDeterminism, SameSeedSameResult)
{
    SimResult a = runTestVariant("SkyByte-Full", "uniform", smallOpts());
    SimResult b = runTestVariant("SkyByte-Full", "uniform", smallOpts());
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
    EXPECT_EQ(a.flashHostPrograms, b.flashHostPrograms);
}

} // namespace
} // namespace skybyte
