/**
 * @file
 * The memory-side data oracle (`check_data=1`): its rules on hand-made
 * read/write sequences, every fig14 variant on every paper app, a
 * write-heavy spec that drives flash GC and write-log compaction, reads
 * of lines copied mid-promotion, and every point of the co-located
 * `qos` sweep run with it on, where each load must pass and the result
 * must equal the unchecked run's byte for byte.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config_file.h"
#include "sim/data_oracle.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/sweep.h"
#include "sim/system.h"

namespace skybyte {
namespace {

TEST(DataOracle, NeverWrittenLineReadsZero)
{
    DataOracle oracle;
    const DataOracle::Ticket t = oracle.onRead(0x1000);
    EXPECT_NO_THROW(oracle.finish(t, true, 0));
    EXPECT_THROW(oracle.finish(oracle.onRead(0x1040), true, 3),
                 std::logic_error);
    EXPECT_EQ(oracle.checkedReads(), 2u);
}

TEST(DataOracle, AcceptsIssueValueOrALaterWrite)
{
    DataOracle oracle;
    oracle.onWrite(0x40, 5);
    const DataOracle::Ticket before = oracle.onRead(0x40);
    const DataOracle::Ticket other = oracle.onRead(0x40);
    oracle.onWrite(0x40, 6);
    oracle.onWrite(0x40, 7);
    EXPECT_NO_THROW(oracle.finish(before, true, 5)); // value at issue
    EXPECT_NO_THROW(oracle.finish(other, true, 6));  // written later
    // Issued after the write of 7: 5 and 6 are stale now.
    EXPECT_THROW(oracle.finish(oracle.onRead(0x40), true, 6),
                 std::logic_error);
    EXPECT_NO_THROW(oracle.finish(oracle.onRead(0x40), true, 7));
    EXPECT_EQ(oracle.nonzeroReads(), 4u);
}

TEST(DataOracle, ErrorNamesTheLine)
{
    DataOracle oracle;
    oracle.onWrite(0xabc0, 11);
    try {
        oracle.finish(oracle.onRead(0xabc0), true, 10);
        FAIL() << "stale value accepted";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("0xabc0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DataOracle, DelayHintOnlyRetiresTheRead)
{
    DataOracle oracle;
    oracle.onWrite(0x80, 9);
    EXPECT_NO_THROW(oracle.finish(oracle.onRead(0x80), false, 123));
    EXPECT_EQ(oracle.checkedReads(), 0u);
}

TEST(DataOracle, ConfigKeyDefaultsOff)
{
    ExperimentSpec spec;
    EXPECT_FALSE(spec.config.checkData);
    applyAssignment("check_data=1", spec);
    EXPECT_TRUE(spec.config.checkData);
    EXPECT_THROW(applyAssignment("check_data=maybe", spec),
                 std::invalid_argument);
}

/** What a run with the oracle on saw. */
struct CheckedRun
{
    SimResult result;
    std::uint64_t checkedReads = 0;
    std::uint64_t nonzeroReads = 0;
};

/**
 * Run @p workload on @p cfg with the oracle on, which throws on a bad
 * load, and expect the result to equal the unchecked run's byte for
 * byte.
 */
CheckedRun
runChecked(SimConfig cfg, const std::string &workload,
           const WorkloadParams &params)
{
    cfg.checkData = false;
    const std::string plain = toJson(runSimulation(cfg, workload, params));
    cfg.checkData = true;
    System sys(cfg, workload, params);
    CheckedRun run;
    run.result = sys.run();
    EXPECT_EQ(toJson(run.result), plain);
    const DataOracle *oracle = sys.dataOracle();
    EXPECT_NE(oracle, nullptr);
    if (oracle != nullptr) {
        run.checkedReads = oracle->checkedReads();
        run.nonzeroReads = oracle->nonzeroReads();
    }
    return run;
}

/** Each fig14 variant on every paper app at 20k instructions/thread. */
class DataOracleSystem : public ::testing::TestWithParam<std::string>
{};

TEST_P(DataOracleSystem, EveryLoadChecksAndResultsAreUnchanged)
{
    ExperimentOptions opt;
    opt.instrPerThread = 20'000;
    opt.seed = 1;
    std::uint64_t nonzero = 0;
    for (const std::string &app : paperWorkloadNames()) {
        SCOPED_TRACE(app);
        SimConfig cfg = makeBenchConfig(GetParam());
        cfg.seed = opt.seed;
        const CheckedRun run = runChecked(cfg, app, makeParams(cfg, opt));
        EXPECT_GT(run.checkedReads, 0u);
        nonzero += run.nonzeroReads;
    }
    // Stores reach memory and are read back (bfs-dense does at this
    // trace length), so the check is not vacuous.
    EXPECT_GT(nonzero, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fig14, DataOracleSystem, ::testing::ValuesIn(allVariantNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/**
 * A small, write-heavy spec whose writes reach flash: 90% stores over
 * 32 MB with 1 MB of host DRAM for promotions. GC relocates written
 * pages on both points and SkyByte-Full also compacts its write log,
 * so both paths carry nonzero values past the oracle. At 300k
 * instructions Base-CSSD runs out of free flash blocks on this spec:
 * host programs are not yet held back for GC.
 */
TEST(DataOracleSystem, GcAndCompactionCarryWrittenData)
{
    ExperimentOptions opt;
    opt.instrPerThread = 200'000;
    opt.footprintBytes = 32ULL << 20;
    opt.seed = 1;
    for (const std::string variant : {"Base-CSSD", "SkyByte-Full"}) {
        SCOPED_TRACE(variant);
        SimConfig cfg = makeBenchConfig(variant);
        cfg.seed = opt.seed;
        cfg.hostMem.promotedBytesMax = 1ULL << 20;
        const CheckedRun run = runChecked(cfg, "uniform:write_ratio=0.9",
                                          makeParams(cfg, opt));
        EXPECT_GT(run.result.flashGcPrograms, 0u);
        if (variant == "SkyByte-Full") {
            EXPECT_GT(run.result.compactions, 0u);
        }
        EXPECT_GT(run.nonzeroReads, 0u);
    }
}

/**
 * Promotion without the write log on 8 MB of 90% stores: many reads
 * land on a region while it copies to the host, after a write of an
 * already-copied line went only to the host copy. Such a read is timed
 * as the SSD read it is but must carry the host copy's value; it used
 * to return the SSD's stale one.
 */
TEST(DataOracleSystem, ReadsDuringPromotionSeeRedirectedWrites)
{
    ExperimentOptions opt;
    opt.instrPerThread = 300'000;
    opt.footprintBytes = 8ULL << 20;
    opt.seed = 1;
    SimConfig cfg = makeBenchConfig("SkyByte-P");
    cfg.seed = opt.seed;
    const CheckedRun run = runChecked(cfg, "uniform:write_ratio=0.9",
                                      makeParams(cfg, opt));
    EXPECT_GT(run.result.promotions, 0u);
    EXPECT_GT(run.nonzeroReads, 0u);
}

TEST(DataOracleSystem, QosSweepPointsCheckAndResultsAreUnchanged)
{
    // Two tenants under admission credits, write-log quotas and
    // migration shares: stores from the noisy tenant reach the device
    // and are read back, so each point checks real (nonzero) data.
    const SweepSpec *spec = findSweep("qos");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = spec->defaultInstrPerThread;
    const std::vector<LabeledPoint> points = spec->expand(opt);
    ASSERT_EQ(points.size(), 8u);
    for (const LabeledPoint &lp : points) {
        SCOPED_TRACE(lp.id());
        SweepPoint p = lp.point;
        const std::string plain =
            toJson(runConfig(p.cfg, p.workload, p.opt));
        p.cfg.checkData = true;
        System sys(p.cfg, p.workload, makeParams(p.cfg, p.opt));
        SimResult checked;
        ASSERT_NO_THROW(checked = sys.run());
        EXPECT_EQ(toJson(checked), plain);

        const DataOracle *oracle = sys.dataOracle();
        ASSERT_NE(oracle, nullptr);
        EXPECT_GT(oracle->nonzeroReads(), 0u);
    }
}

} // namespace
} // namespace skybyte
