/**
 * @file
 * Trace generator, standing in for the artifact's PIN capture pipeline
 * (appendix §G "Capturing Custom Program's Traces"): renders any
 * registered workload spec into an STRC capture (the seekable
 * compressed trace log of trace/trace_log/trace_log.h) so it can be
 * replayed repeatedly — through the "tracelog:path=..." workload spec,
 * by TraceLogWorkload-based experiments, or by skybyte_traceinfo for
 * offline analysis. The workload is drained through the batched
 * TraceBatch contract (TraceCursor per thread).
 *
 *   skybyte_tracegen -w <workload-spec> -o <path> [-n threads]
 *                    [-i instr-per-thread] [-m footprint-mb] [-s seed]
 *                    [--block-records=N]
 *
 * <workload-spec> is a registered name, optionally parameterized:
 * "ycsb", "zipf:theta=0.99,footprint=64M", ...
 */

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/parse.h"
#include "trace/mix_workload.h"
#include "trace/trace_log/trace_log.h"
#include "trace/workload.h"

using namespace skybyte;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skybyte_tracegen -w <workload-spec> -o <path>"
        " [-n threads]\n"
        "                        [-i instr-per-thread] [-m footprint-mb]"
        " [-s seed]\n"
        "                        [--block-records=N]\n"
        "workload specs: name[:key=value,...], e.g."
        " zipf:theta=0.99,footprint=64M\n"
        "co-location:    mix:tenant=spec[;tenant=spec]..., e.g."
        " \"mix:a=zipf:footprint=4G;b=scan:threads=2\"\nregistered:");
    for (const std::string &name : registeredWorkloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string out_path;
    std::uint32_t block_records = kTraceLogDefaultBlockRecords;
    WorkloadParams params;
    params.instrPerThread = 200'000;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for "
                                                + arg);
                return argv[++i];
            };
            if (arg == "-w") {
                workload_name = next();
            } else if (arg == "-o") {
                out_path = next();
            } else if (arg == "-n") {
                params.numThreads =
                    static_cast<int>(parseCount(arg, next(), 65536));
            } else if (arg == "-i") {
                params.instrPerThread = parseCount(arg, next());
            } else if (arg == "-m") {
                params.footprintBytes = parseMegabytes(arg, next());
            } else if (arg == "-s") {
                params.seed = parseCount(arg, next());
            } else if (arg.rfind("--block-records=", 0) == 0) {
                block_records = static_cast<std::uint32_t>(parseCount(
                    "--block-records", arg.substr(16),
                    std::numeric_limits<std::uint32_t>::max()));
            } else {
                usage();
                return 2;
            }
        }
        if (workload_name.empty() || out_path.empty()) {
            usage();
            return 2;
        }
        auto workload = makeWorkload(workload_name, params);
        if (const auto *mix =
                dynamic_cast<const MixWorkload *>(workload.get())) {
            // Expand the mix so the capture's tenant layout (thread
            // split, namespaced device regions) is on record next to
            // the trace file.
            for (const MixTenant &t : mix->tenants())
                std::fputs(describeMixTenant(t).c_str(), stdout);
        }
        const std::uint64_t records =
            writeTraceLog(out_path, *workload, block_records);
        std::printf("wrote %llu records (%d threads, %s, %.1f MB "
                    "footprint) to %s\n",
                    static_cast<unsigned long long>(records),
                    workload->numThreads(), workload->name().c_str(),
                    static_cast<double>(workload->footprintBytes())
                        / (1024.0 * 1024.0),
                    out_path.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_tracegen: %s\n", e.what());
        return 1;
    }
    return 0;
}
