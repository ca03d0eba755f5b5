/**
 * @file
 * Tests for TenantMap, the one classifier of co-located (`mix:`) runs:
 * region edges, the past-the-footprint rule, private addresses, the
 * single floor rule of weighted shares, and bound validation.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/mix_workload.h"
#include "trace/tenant_map.h"
#include "trace/workload.h"

namespace skybyte {
namespace {

/** Three tenants over [0, 4K), [4K, 12K), [12K, 16K); threads 0..3. */
TenantMap
threeTenants()
{
    return TenantMap({0, 4096, 12288}, 16384, {0, 1, 2, 1},
                     {1.0, 2.0, 1.0});
}

TEST(TenantMap, FirstAndLastByteOfEachRegion)
{
    const TenantMap map = threeTenants();
    ASSERT_EQ(map.size(), 3u);
    EXPECT_EQ(map.ofDevice(0), 0);
    EXPECT_EQ(map.ofDevice(4095), 0);
    EXPECT_EQ(map.ofDevice(4096), 1);
    EXPECT_EQ(map.ofDevice(12287), 1);
    EXPECT_EQ(map.ofDevice(12288), 2);
    EXPECT_EQ(map.ofDevice(16383), 2);
}

TEST(TenantMap, PastTheFootprintBelongsToNoTenant)
{
    const TenantMap map = threeTenants();
    EXPECT_EQ(map.ofDevice(16384), -1);
    EXPECT_EQ(map.ofDevice(1ULL << 40), -1);
    EXPECT_EQ(map.ofVaddr(Workload::kDataBase + 16384), -1);
    EXPECT_EQ(map.ofVaddr(Workload::kDataBase - 1), -1);
}

TEST(TenantMap, VaddrClassifiesDataAndPrivateAddresses)
{
    const TenantMap map = threeTenants();
    EXPECT_EQ(map.ofVaddr(Workload::kDataBase), 0);
    EXPECT_EQ(map.ofVaddr(Workload::kDataBase + 4096), 1);
    EXPECT_EQ(map.ofVaddr(Workload::kDataBase + 16383), 2);
    // Thread 3's private region belongs to its tenant (1), at its first
    // and last byte; a thread id the mix does not have belongs to none.
    const Addr priv3 = Workload::kPrivateBase + 3 * Workload::kPrivateStride;
    EXPECT_EQ(map.ofVaddr(priv3), 1);
    EXPECT_EQ(map.ofVaddr(priv3 + Workload::kPrivateStride - 1), 1);
    EXPECT_EQ(map.ofVaddr(Workload::kPrivateBase + 2), 0);
    EXPECT_EQ(map.ofVaddr(priv3 + Workload::kPrivateStride), -1);
}

TEST(TenantMap, ShareSplitsByWeightAboveTheFloor)
{
    const TenantMap map = threeTenants();
    EXPECT_EQ(map.share(256, 1, 0), 64u);
    EXPECT_EQ(map.share(256, 1, 1), 128u);
    EXPECT_EQ(map.share(256, 1, 2), 64u);
    EXPECT_EQ(map.share(256, 100, 0), 100u);
    // budget * w / sum(w) truncates: 10 * 1 / 4 = 2.5 -> 2.
    EXPECT_EQ(map.share(10, 0, 0), 2u);
}

TEST(TenantMap, FloorWinsForATinyWeight)
{
    // Built through the mix spec, so the qos= parser admits the weight.
    WorkloadParams params;
    params.numThreads = 2;
    params.instrPerThread = 100;
    MixWorkload mix(parseWorkloadSpec("mix:a=zipf:footprint=4M,qos=1;"
                                      "b=uniform:footprint=4M,qos=0.000001"),
                    params);
    const TenantMap map = mix.tenantMap();
    EXPECT_EQ(map.share(256, 1, 1), 1u);
    EXPECT_EQ(map.share(256, 1, 0), 255u);
    EXPECT_EQ(map.share(32ULL << 20, 4096, 1), 4096u);
}

TEST(TenantMap, BadBoundsThrow)
{
    // Starts not beginning at 0.
    EXPECT_THROW(TenantMap({4096, 8192}, 16384, {}, {1.0, 1.0}),
                 std::invalid_argument);
    // Not ascending.
    EXPECT_THROW(TenantMap({0, 8192, 4096}, 16384, {}, {1.0, 1.0, 1.0}),
                 std::invalid_argument);
    // Last start at or past the end.
    EXPECT_THROW(TenantMap({0, 16384}, 16384, {}, {1.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW(TenantMap({0}, 0, {}, {1.0}), std::invalid_argument);
    EXPECT_THROW(TenantMap({}, 16384, {}, {}), std::invalid_argument);
    EXPECT_NO_THROW(TenantMap({0, 16383}, 16384, {}, {1.0, 1.0}));
}

TEST(TenantMap, BadWeightsAndThreadsThrow)
{
    EXPECT_THROW(TenantMap({0, 4096}, 8192, {}, {1.0}),
                 std::invalid_argument);
    EXPECT_THROW(TenantMap({0, 4096}, 8192, {}, {1.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(TenantMap({0, 4096}, 8192, {0, 2}, {1.0, 1.0}),
                 std::invalid_argument);
}

} // namespace
} // namespace skybyte
