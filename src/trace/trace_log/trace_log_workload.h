/**
 * @file
 * Streaming replay of STRC captures: a Workload whose refill() pulls
 * records through the TraceLogReader's per-thread cursor, decoding one
 * block at a time on the caller's thread. Peak memory is one decoded
 * block per simulated thread regardless of trace size.
 *
 * The record stream per thread is the captured workload's stream; the
 * fingerprint tests in tests/test_trace_log.cc pin that a System
 * replaying a capture through `tracelog:path=...` is independent of
 * the capture's block size.
 */

#ifndef SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H
#define SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_log/trace_log.h"
#include "trace/workload.h"

namespace skybyte {

/** Replay of one STRC capture. */
class TraceLogWorkload : public Workload
{
  public:
    /** @throws TraceLogError / std::runtime_error on a missing, foreign
     *  or corrupt capture (the message names @p path). */
    explicit TraceLogWorkload(const std::string &path);

    std::string name() const override { return reader_.name(); }
    std::uint64_t footprintBytes() const override
    {
        return reader_.footprintBytes();
    }
    int numThreads() const override { return reader_.numThreads(); }
    std::uint32_t refill(int tid, TraceBatch &batch) override;
    std::uint64_t instructionsEmitted(int tid) const override
    {
        return emitted_[static_cast<std::size_t>(tid)];
    }

    /** Blocks decoded so far (monotonic). */
    std::uint64_t blocksDecoded() const
    {
        return reader_.blocksDecoded();
    }

  private:
    TraceLogReader reader_;
    std::vector<std::uint64_t> emitted_;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H
