#include "trace/trace_log/trace_log_workload.h"

namespace skybyte {

TraceLogWorkload::TraceLogWorkload(const std::string &path)
    : reader_(path),
      emitted_(static_cast<std::size_t>(reader_.numThreads()), 0)
{}

std::uint32_t
TraceLogWorkload::refill(int tid, TraceBatch &batch)
{
    std::uint64_t &emitted = emitted_[static_cast<std::size_t>(tid)];
    std::uint32_t n = 0;
    while (n < TraceBatch::kCapacity
           && reader_.next(tid, batch.records[n])) {
        emitted += batch.records[n].computeOps + 1;
        ++n;
    }
    batch.count = n;
    batch.cursor = 0;
    return n;
}

} // namespace skybyte
