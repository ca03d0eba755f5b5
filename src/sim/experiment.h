/**
 * @file
 * Experiment presets shared by the sweep registry, examples and
 * integration tests: variant construction, the paper's thread-count rule
 * (§VI-A: 24 threads on 8 cores when coordinated context switch is
 * enabled, 8 threads otherwise), and environment-tunable run scale.
 */

#ifndef SKYBYTE_SIM_EXPERIMENT_H
#define SKYBYTE_SIM_EXPERIMENT_H

#include <cstdint>
#include <string>

#include "sim/system.h"

namespace skybyte {

/** Scale knobs for a batch of runs. */
struct ExperimentOptions
{
    /** Instructions per thread (env SKYBYTE_BENCH_INSTR overrides). */
    std::uint64_t instrPerThread = 400'000;
    /** 0 = paper rule (24 with context switch, 8 without). */
    int threadsOverride = 0;
    /** 0 = workload default footprint (1/64 of the paper's). */
    std::uint64_t footprintBytes = 0;
    std::uint64_t seed = 42;

    /**
     * Read overrides from the environment:
     *  - SKYBYTE_BENCH_INSTR: instructions per thread
     *  - SKYBYTE_BENCH_THREADS: thread count
     *  - SKYBYTE_BENCH_FOOTPRINT_MB: workload footprint
     */
    static ExperimentOptions fromEnv();
};

/** Threads the paper runs for @p cfg (§VI-A). */
int defaultThreadsFor(const SimConfig &cfg, const ExperimentOptions &opt);

/**
 * Shrink the cache hierarchy to the bench scale (README "Scale model"):
 * the default workload footprints are 1/64 of the paper's, so the 16 MB
 * LLC must shrink too or no writeback ever reaches the SSD at bench
 * trace lengths. The LLC shrinks 8x, so footprint:LLC is 1/8 of the
 * paper's ratio; footprint:SSD-DRAM is the paper's.
 */
void applyBenchScale(SimConfig &cfg);

/** makeConfig() + applyBenchScale(). */
SimConfig makeBenchConfig(const std::string &variant);

/** Build WorkloadParams for one run. */
WorkloadParams makeParams(const SimConfig &cfg,
                          const ExperimentOptions &opt);

/**
 * Run @p variant on @p workload at the options' scale.
 * Variant names are those accepted by makeConfig().
 */
SimResult runVariant(const std::string &variant,
                     const std::string &workload,
                     const ExperimentOptions &opt);

/** Run a fully custom config (already-tweaked knobs). */
SimResult runConfig(const SimConfig &cfg, const std::string &workload,
                    const ExperimentOptions &opt);

/**
 * One point of a parameter sweep: a fully-specified, self-contained
 * run. All randomness of a run derives from the point itself (cfg.seed
 * and opt.seed), never from shared state.
 */
struct SweepPoint
{
    SimConfig cfg;
    std::string workload;
    ExperimentOptions opt;
};

/** SweepPoint mirroring runVariant (cfg.seed taken from opt.seed). */
SweepPoint makeSweepPoint(const std::string &variant,
                          const std::string &workload,
                          const ExperimentOptions &opt);

/**
 * Run independent simulation points on a pool of worker threads.
 *
 * Results are positionally aligned with @p points. Each run is an
 * isolated System seeded only by its point, so the output is identical
 * to running the points serially — regardless of @p nthreads or OS
 * scheduling.
 *
 * @param nthreads worker count; <= 0 reads SKYBYTE_BENCH_NTHREADS and
 *                 falls back to the hardware concurrency
 * @throws the exception of the lowest-indexed failing point, once
 *         every worker has stopped (serially: as soon as it fails)
 */
std::vector<SimResult> runSweep(const std::vector<SweepPoint> &points,
                                int nthreads = 0);

/** Worker count runSweep will use for @p nthreads. */
int sweepThreads(int nthreads, std::size_t npoints);

} // namespace skybyte

#endif // SKYBYTE_SIM_EXPERIMENT_H
