/**
 * @file
 * Tests for the declarative sweep API: the global registry holds every
 * figure/table/ablation sweep, the cross-product expansion applies
 * axes in order, the shard selector partitions any sweep into
 * disjoint, complete subsets for adversarial shard counts, and every
 * paper sweep's table printer reads only cells of its own grid.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace skybyte {
namespace {

/** Every paper figure/table/ablation sweep; each prints a table. */
const char *const kPaperSweeps[] = {
    "fig02",          "fig03",          "fig04",        "fig05",
    "fig06",          "fig09",          "fig10",        "fig14",
    "fig15",          "fig16",          "fig17",        "fig18",
    "fig19",          "fig20",          "fig21",        "fig22",
    "fig23",          "table1",         "table3",       "abl_dram_model",
    "abl_gc_wear",    "abl_hugepage",   "abl_mshr_free", "abl_promotion",
    "abl_reclaim"};

TEST(SweepRegistry, EnumeratesEveryPaperSweep)
{
    const std::vector<const SweepSpec *> all = registeredSweeps();
    std::set<std::string> names;
    for (const SweepSpec *spec : all) {
        names.insert(spec->name);
        EXPECT_FALSE(spec->title.empty()) << spec->name;
        EXPECT_GT(spec->pointCount(), 0u) << spec->name;
    }
    for (const char *required : kPaperSweeps)
        EXPECT_TRUE(names.count(required)) << required;
    EXPECT_TRUE(names.count("smoke"));
    EXPECT_EQ(findSweep("no-such-sweep"), nullptr);
}

/** A run of @p spec's full grid where every point returned @p result. */
SweepExecution
syntheticExecution(const SweepSpec &spec, const SimResult &result)
{
    SweepExecution exec;
    exec.points = spec.expand(ExperimentOptions{});
    exec.totalPoints = exec.points.size();
    exec.results.assign(exec.points.size(), result);
    return exec;
}

/** Nonzero in every field a printer divides by. */
SimResult
syntheticResult()
{
    SimResult r;
    r.execTime = 1'000'000;
    r.committedInstructions = 80'000;
    r.computeTicks = 600'000;
    r.memStallTicks = 300'000;
    r.ctxSwitchTicks = 100'000;
    r.hostReads = 10;
    r.ssdReadHits = 5;
    r.ssdReadMisses = 3;
    r.ssdWrites = 2;
    r.amatTotalTicks = 4'000.0;
    r.flashHostPrograms = 7;
    r.promotions = 4;
    return r;
}

TEST(SweepTables, EveryPaperSweepPrintsItsTable)
{
    for (const char *name : kPaperSweeps) {
        const SweepSpec *spec = findSweep(name);
        ASSERT_NE(spec, nullptr) << name;
        ASSERT_TRUE(spec->table) << name << " has no table printer";
        const SweepExecution exec =
            syntheticExecution(*spec, syntheticResult());
        std::ostringstream out;
        EXPECT_NO_THROW(spec->table(resultGrid(*spec, exec), out))
            << name;
        EXPECT_EQ(out.str().rfind("\n=====", 0), 0u)
            << name << " does not open with its header";
    }
}

TEST(SweepTables, MissingCellThrowsNamingRowAndColumn)
{
    ResultGrid grid({{"bc"}, {"Base-CSSD"}});
    grid.set("bc", "Base-CSSD", syntheticResult());
    EXPECT_EQ(grid.at("bc", "Base-CSSD").execTime, 1'000'000u);
    try {
        grid.at("bc", "SkyByte-Full");
        FAIL() << "lookup outside the grid did not throw";
    } catch (const std::out_of_range &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"bc\""), std::string::npos) << what;
        EXPECT_NE(what.find("\"SkyByte-Full\""), std::string::npos)
            << what;
    }

    // A printer over an incomplete grid fails loudly instead of
    // printing a default-constructed result for the missing point.
    const SweepSpec *fig14 = findSweep("fig14");
    ASSERT_NE(fig14, nullptr);
    SweepExecution exec = syntheticExecution(*fig14, syntheticResult());
    exec.points.pop_back();
    exec.results.pop_back();
    std::ostringstream out;
    EXPECT_THROW(fig14->table(resultGrid(*fig14, exec), out),
                 std::out_of_range);
}

TEST(SweepRegistry, RegistersUserSweepsAndRejectsDuplicates)
{
    SweepSpec spec;
    spec.name = "test_user_sweep";
    spec.title = "user-defined";
    spec.axes.push_back(workloadAxis({"ycsb"}));
    registerSweep(spec);
    ASSERT_NE(findSweep("test_user_sweep"), nullptr);
    EXPECT_THROW(registerSweep(spec), std::invalid_argument);

    SweepSpec empty;
    empty.name = "test_empty_sweep";
    EXPECT_THROW(registerSweep(empty), std::invalid_argument);
}

TEST(SweepSpec, ExpandsTheFullCrossProductInOrder)
{
    const SweepSpec *spec = findSweep("fig09");
    ASSERT_NE(spec, nullptr);
    ASSERT_EQ(spec->axes.size(), 2u);
    const std::size_t nw = spec->axes[0].values.size();
    const std::size_t nt = spec->axes[1].values.size();
    EXPECT_EQ(spec->pointCount(), nw * nt);

    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const std::vector<LabeledPoint> points = spec->expand(opt);
    ASSERT_EQ(points.size(), nw * nt);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const LabeledPoint &lp = points[i];
        EXPECT_EQ(lp.index, i);
        ASSERT_EQ(lp.labels.size(), 2u);
        // Row-major: first axis (workload) varies slowest.
        EXPECT_EQ(lp.labels[0], spec->axes[0].values[i / nt].label);
        EXPECT_EQ(lp.labels[1], spec->axes[1].values[i % nt].label);
        EXPECT_EQ(lp.row(), lp.labels[0]);
        EXPECT_EQ(lp.col(), lp.labels[1]);
        EXPECT_EQ(lp.id(), lp.labels[0] + "/" + lp.labels[1]);
        // The axes actually mutated the point.
        EXPECT_EQ(lp.point.workload, lp.labels[0]);
        EXPECT_EQ(lp.point.cfg.policy.csThreshold,
                  usToTicks(std::stod(lp.labels[1])));
        EXPECT_EQ(lp.point.opt.instrPerThread, 1'000u);
    }
}

TEST(SweepSpec, AxesApplyInDeclarationOrder)
{
    // fig22's config axis rebuilds the variant config; the nand axis
    // then overwrites the flash timing. If apply order ever flipped,
    // the timing would be reset to the variant default (ULL).
    const SweepSpec *spec = findSweep("fig22");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    const std::vector<LabeledPoint> points = spec->expand(opt);
    bool saw_mlc_full = false;
    for (const LabeledPoint &lp : points) {
        if (lp.labels[1] == "Full-24" && lp.labels[2] == "MLC") {
            saw_mlc_full = true;
            EXPECT_EQ(lp.point.cfg.name, "SkyByte-Full");
            EXPECT_EQ(lp.point.opt.threadsOverride, 24);
            EXPECT_EQ(lp.point.cfg.flash.timing.readLatency,
                      nandTiming(NandType::MLC).readLatency);
            EXPECT_EQ(lp.col(), "Full-24/MLC");
        }
    }
    EXPECT_TRUE(saw_mlc_full);
}

TEST(Shard, ParsesAndRejects)
{
    EXPECT_EQ(parseShard("0/1").index, 0u);
    EXPECT_EQ(parseShard("0/1").count, 1u);
    EXPECT_EQ(parseShard("2/3").index, 2u);
    EXPECT_EQ(parseShard("2/3").count, 3u);
    for (const char *bad : {"", "1", "3/3", "4/3", "x/2", "1/x",
                            "1/0", "1/2junk", "/2", "1/", "1/-1",
                            "-1/2", "+1/2", "4294967296/4294967297"}) {
        EXPECT_THROW(parseShard(bad), std::invalid_argument) << bad;
    }
}

TEST(Shard, PartitionsAreDisjointAndCompleteForAdversarialCounts)
{
    const SweepSpec *spec = findSweep("fig09");
    ASSERT_NE(spec, nullptr);
    const std::size_t total = spec->pointCount();
    // More shards than points, prime counts, exact fit, one shard.
    for (const std::uint32_t n :
         {1u, 2u, 3u, 5u, 7u, static_cast<std::uint32_t>(total),
          29u, 1000u}) {
        std::set<std::size_t> seen;
        for (std::uint32_t i = 0; i < n; ++i) {
            const ShardSpec shard{i, n};
            for (std::size_t idx = 0; idx < total; ++idx) {
                if (!shardOwns(shard, idx))
                    continue;
                EXPECT_TRUE(seen.insert(idx).second)
                    << "index " << idx << " owned twice at N=" << n;
            }
        }
        EXPECT_EQ(seen.size(), total) << "incomplete at N=" << n;
    }
}

TEST(Shard, ShardedRunsMatchTheUnshardedRunExactly)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 2'000;
    const SweepExecution full = runSweepShard(*spec, opt, {0, 1}, 2);
    ASSERT_EQ(full.points.size(), spec->pointCount());
    std::size_t covered = 0;
    for (std::uint32_t i = 0; i < 2; ++i) {
        const SweepExecution shard =
            runSweepShard(*spec, opt, {i, 2}, 2);
        EXPECT_EQ(shard.totalPoints, full.points.size());
        for (std::size_t k = 0; k < shard.points.size(); ++k) {
            const std::size_t idx = shard.points[k].index;
            ASSERT_LT(idx, full.results.size());
            EXPECT_EQ(shard.results[k].execTime,
                      full.results[idx].execTime);
            EXPECT_EQ(shard.results[k].committedInstructions,
                      full.results[idx].committedInstructions);
            EXPECT_EQ(shard.results[k].flashHostPrograms,
                      full.results[idx].flashHostPrograms);
            covered++;
        }
    }
    EXPECT_EQ(covered, full.points.size());
}

} // namespace
} // namespace skybyte
