/**
 * @file
 * The memory-side data oracle (`check_data=1`): its rules on hand-made
 * read/write sequences, every fig14 variant on every paper app, and
 * every point of the co-located `qos` sweep run with it on, where each
 * load must pass and the result must equal the unchecked run's byte
 * for byte.
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
        const WorkloadParams params = makeParams(cfg, opt);

        const std::string plain = toJson(runSimulation(cfg, app, params));
        cfg.checkData = true;
        System sys(cfg, app, params);
        SimResult checked;
        ASSERT_NO_THROW(checked = sys.run());
        EXPECT_EQ(toJson(checked), plain);

        const DataOracle *oracle = sys.dataOracle();
        ASSERT_NE(oracle, nullptr);
        EXPECT_GT(oracle->checkedReads(), 0u);
        nonzero += oracle->nonzeroReads();
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
