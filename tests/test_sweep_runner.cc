/**
 * @file
 * Tests for the thread-pooled sweep runner: positional result
 * alignment, and bit-identical results regardless of worker count —
 * every run is seeded solely by its own SweepPoint, so parallel and
 * serial execution must agree exactly.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace skybyte {
namespace {

/** The deterministic fields two identical runs must agree on. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
    EXPECT_EQ(a.hostReads, b.hostReads);
    EXPECT_EQ(a.hostWrites, b.hostWrites);
    EXPECT_EQ(a.ssdReadHits, b.ssdReadHits);
    EXPECT_EQ(a.ssdReadMisses, b.ssdReadMisses);
    EXPECT_EQ(a.ssdWrites, b.ssdWrites);
    EXPECT_EQ(a.flashHostPrograms, b.flashHostPrograms);
    EXPECT_EQ(a.flashGcPrograms, b.flashGcPrograms);
    EXPECT_EQ(a.compactions, b.compactions);
    EXPECT_EQ(a.logAppends, b.logAppends);
    EXPECT_EQ(a.logIndexBytesPeak, b.logIndexBytesPeak);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_EQ(a.cxlBytes, b.cxlBytes);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

std::vector<SweepPoint>
smallSweep()
{
    ExperimentOptions opt;
    opt.instrPerThread = 4'000;
    std::vector<SweepPoint> points;
    for (const char *v : {"Base-CSSD", "SkyByte-Full"}) {
        for (const char *w : {"ycsb", "srad"}) {
            points.push_back(makeSweepPoint(v, w, opt));
        }
    }
    // A custom-seeded point: the seed must travel with the point.
    ExperimentOptions seeded = opt;
    seeded.seed = 1234;
    points.push_back(makeSweepPoint("SkyByte-WP", "bc", seeded));
    return points;
}

TEST(SweepRunner, ResultsAlignWithPoints)
{
    const std::vector<SweepPoint> points = smallSweep();
    const std::vector<SimResult> res = runSweep(points, 2);
    ASSERT_EQ(res.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(res[i].workload, points[i].workload);
        EXPECT_EQ(res[i].variant, points[i].cfg.name);
        EXPECT_GT(res[i].committedInstructions, 0u);
    }
}

TEST(SweepRunner, ParallelMatchesSerialExactly)
{
    const std::vector<SweepPoint> points = smallSweep();
    const std::vector<SimResult> serial = runSweep(points, 1);
    const std::vector<SimResult> parallel = runSweep(points, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(points[i].cfg.name + "/" + points[i].workload);
        expectSameResult(serial[i], parallel[i]);
    }
}

TEST(SweepRunner, RepeatedRunsAreDeterministic)
{
    const std::vector<SweepPoint> points = smallSweep();
    const std::vector<SimResult> first = runSweep(points, 3);
    const std::vector<SimResult> second = runSweep(points, 3);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(points[i].cfg.name + "/" + points[i].workload);
        expectSameResult(first[i], second[i]);
    }
}

TEST(SweepRunner, PointErrorReachesTheCallerFromWorkers)
{
    std::vector<SweepPoint> points = smallSweep();
    points[3].workload = "no-such-workload-b";
    points[1].workload = "no-such-workload-a";
    const auto message = [&](int nthreads) {
        try {
            runSweep(points, nthreads);
        } catch (const std::exception &e) {
            return std::string(e.what());
        }
        return std::string("no exception");
    };
    const std::string serial = message(1);
    EXPECT_NE(serial.find("no-such-workload-a"), std::string::npos)
        << serial;
    // Workers must not let the error escape their thread, and report
    // the same (lowest-indexed) failure as the serial loop.
    EXPECT_EQ(message(2), serial);
    EXPECT_EQ(message(4), serial);
}

TEST(SweepRunner, EmptyAndThreadCountResolution)
{
    EXPECT_TRUE(runSweep({}, 4).empty());
    EXPECT_EQ(sweepThreads(3, 10), 3);
    EXPECT_EQ(sweepThreads(8, 2), 2);  // never more workers than points
    EXPECT_GE(sweepThreads(0, 10), 1); // env/hardware fallback
}

// Only sweepThreads()'s returned count is checked: no pool is started.
TEST(SweepRunner, NthreadsEnvIsParsedStrictly)
{
    setenv("SKYBYTE_BENCH_NTHREADS", "3", 1);
    EXPECT_EQ(sweepThreads(0, 10), 3);
    EXPECT_EQ(sweepThreads(2, 10), 2); // an explicit count wins
    for (const char *bad : {"abc", "-1", "3x", "", "4294967299"}) {
        setenv("SKYBYTE_BENCH_NTHREADS", bad, 1);
        try {
            sweepThreads(0, 10);
            ADD_FAILURE() << '"' << bad << '"';
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("SKYBYTE_BENCH_NTHREADS"),
                      std::string::npos)
                << e.what();
        }
    }
    unsetenv("SKYBYTE_BENCH_NTHREADS");
}

} // namespace
} // namespace skybyte
