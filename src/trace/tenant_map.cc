#include "trace/tenant_map.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "trace/workload.h"

namespace skybyte {

TenantMap::TenantMap(std::vector<Addr> starts, Addr end,
                     std::vector<int> thread_tenant,
                     std::vector<double> weights)
    : starts_(std::move(starts)), end_(end),
      threadTenant_(std::move(thread_tenant)), weights_(std::move(weights))
{
    if (starts_.empty() || starts_.front() != 0
        || !std::is_sorted(starts_.begin(), starts_.end())
        || starts_.back() >= end_)
        throw std::invalid_argument("tenant bounds must start at 0, "
                                    "ascend, and end before the footprint");
    if (weights_.size() != starts_.size())
        throw std::invalid_argument("tenant map needs one weight a tenant");
    for (const double w : weights_) {
        if (!std::isfinite(w) || w <= 0.0)
            throw std::invalid_argument("tenant weights must be positive");
        totalWeight_ += w;
    }
    for (const int t : threadTenant_) {
        if (t < 0 || static_cast<std::size_t>(t) >= starts_.size())
            throw std::invalid_argument("tenant map thread names no tenant");
    }
}

int
TenantMap::ofDevice(Addr dev) const
{
    if (dev >= end_)
        return -1;
    std::size_t t = starts_.size() - 1;
    while (t > 0 && dev < starts_[t])
        t--;
    return static_cast<int>(t);
}

int
TenantMap::ofVaddr(Addr vaddr) const
{
    if (vaddr >= Workload::kDataBase && vaddr - Workload::kDataBase < end_)
        return ofDevice(vaddr - Workload::kDataBase);
    if (vaddr < Workload::kPrivateBase)
        return -1;
    const Addr tid =
        (vaddr - Workload::kPrivateBase) / Workload::kPrivateStride;
    return tid < threadTenant_.size() ? threadTenant_[tid] : -1;
}

std::uint64_t
TenantMap::share(std::uint64_t budget, std::uint64_t floor,
                 std::size_t t) const
{
    return std::max<std::uint64_t>(
        floor, static_cast<std::uint64_t>(static_cast<double>(budget)
                                          * weights_[t] / totalWeight_));
}

} // namespace skybyte
