/**
 * @file
 * The tenant map of a co-located (`mix:`) run: the one place that
 * decides which tenant owns an address and each tenant's weighted
 * share of a device budget. MixWorkload::tenantMap() builds it; System
 * keeps one only for mixes of two or more tenants and hands a
 * `const TenantMap *` (null = no tenants) to the SSD controller, the
 * migration engine, the memory router and the uncore.
 */

#ifndef SKYBYTE_TRACE_TENANT_MAP_H
#define SKYBYTE_TRACE_TENANT_MAP_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace skybyte {

class TenantMap
{
  public:
    /**
     * Tenant i owns device bytes [starts[i], starts[i+1]), the last up
     * to @p end (the mix footprint); @p thread_tenant maps a global
     * thread id to its tenant and @p weights holds the `qos=` weights.
     * @throws std::invalid_argument unless the starts begin at 0,
     *         ascend and stay below @p end, each tenant has one
     *         positive finite weight and each thread names a tenant.
     */
    TenantMap(std::vector<Addr> starts, Addr end,
              std::vector<int> thread_tenant, std::vector<double> weights);

    std::size_t size() const { return starts_.size(); }

    /** Tenant owning device offset @p dev; -1 at or past the footprint
     *  end (a prefetch running off the last region belongs to nobody). */
    int ofDevice(Addr dev) const;

    /** Tenant owning host address @p vaddr: shared data by its device
     *  region, a per-thread private address by its thread; else -1. */
    int ofVaddr(Addr vaddr) const;

    /** Tenant @p t's part of @p budget: max(floor, budget * w[t] /
     *  sum(w)), computed in double in exactly that order, truncated. */
    std::uint64_t share(std::uint64_t budget, std::uint64_t floor,
                        std::size_t t) const;

  private:
    std::vector<Addr> starts_;
    Addr end_;
    std::vector<int> threadTenant_;
    std::vector<double> weights_;
    double totalWeight_ = 0.0;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TENANT_MAP_H
