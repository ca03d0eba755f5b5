/**
 * @file
 * Binary trace file format, mirroring the role of the MacSim trace files
 * in the original artifact: one file per thread of fixed-size records,
 * with a small header carrying thread count and footprint. Lets users
 * capture a generated (or custom) trace once and replay it repeatedly.
 */

#ifndef SKYBYTE_TRACE_TRACE_FILE_H
#define SKYBYTE_TRACE_TRACE_FILE_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/workload.h"

namespace skybyte {

/** On-disk record layout (packed, little-endian). */
struct TraceFileRecord
{
    std::uint64_t vaddr;
    std::uint32_t computeOps;
    std::uint32_t isWrite; // 0/1; padded to keep the record 16 bytes
};
static_assert(sizeof(TraceFileRecord) == 16);

/**
 * Write a whole workload to @p path (single file, per-thread sections).
 * @return number of records written.
 * @throws std::runtime_error on I/O failure.
 */
std::uint64_t writeTraceFile(const std::string &path, Workload &workload);

/**
 * A Workload backed by a trace file previously produced by
 * writeTraceFile(). The raw per-thread record sections are loaded
 * eagerly (intended for modest test/example traces) and decoded into
 * TraceRecords a batch at a time in refill(), so the replay front end
 * pays the same once-per-batch cost as the synthetic generators.
 */
class TraceFileWorkload : public Workload
{
  public:
    /** @throws std::runtime_error on parse/I/O failure. */
    explicit TraceFileWorkload(const std::string &path);

    std::string name() const override { return name_; }
    std::uint64_t footprintBytes() const override { return footprint_; }
    int numThreads() const override
    {
        return static_cast<int>(perThread_.size());
    }
    std::uint32_t refill(int tid, TraceBatch &batch) override;
    std::uint64_t instructionsEmitted(int tid) const override
    {
        return emitted_[tid];
    }

  private:
    std::string name_;
    std::uint64_t footprint_ = 0;
    std::vector<std::vector<TraceFileRecord>> perThread_;
    std::vector<std::uint64_t> cursor_;
    std::vector<std::uint64_t> emitted_;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TRACE_FILE_H
