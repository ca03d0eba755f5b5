/**
 * @file
 * Tests for the shared uncore: L3 behaviour, LLC MSHR capacity and
 * cross-core coalescing (§III-A C1: one CXL.mem request can serve
 * instructions from several cores), DelayHint fan-out, the waiter
 * chain's reference handling, and the off-chip latency histogram that
 * backs Figure 3.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.h"
#include "cpu/uncore.h"

namespace skybyte {
namespace {

/** Backend that lets the test control response timing and kind. */
class ManualBackend : public MemoryBackend
{
  public:
    struct Pending
    {
        Addr line;
        MemCallback cb;
    };

    void
    read(const MemRequest &req, Tick, MemCallback cb) override
    {
        pending.push_back({req.lineAddr, std::move(cb)});
    }

    void
    write(const MemRequest &req, Tick) override
    {
        writes.push_back(req.lineAddr);
    }

    void
    respondAll(MemResponseKind kind, LineValue value = 0)
    {
        auto batch = std::move(pending);
        pending.clear();
        for (auto &p : batch) {
            MemResponse resp;
            resp.kind = kind;
            resp.lineAddr = p.line;
            resp.value = value;
            p.cb(resp);
        }
    }

    std::vector<Pending> pending;
    std::vector<Addr> writes;
};

struct UncoreFixture
{
    UncoreFixture()
    {
        cfg.llc.sizeBytes = 64 * kCachelineBytes;
        cfg.llc.mshrs = 4;
        uncore = std::make_unique<Uncore>(cfg, eq, backend);
    }

    /** Slab-backed miss record (MissRef replaced the shared_ptr). */
    MissRef
    makeStatus(Addr line)
    {
        MissRef st = uncore->makeMiss();
        st->lineAddr = line;
        st->owner = nullptr; // no core callbacks in these tests
        return st;
    }

    EventQueue eq;
    CpuConfig cfg;
    ManualBackend backend;
    std::unique_ptr<Uncore> uncore;
};

TEST(Uncore, MissGoesToBackendOnce)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x1000);
    EXPECT_EQ(fx.uncore->load(s1, 0), UncoreLoadResult::Pending);
    EXPECT_EQ(fx.backend.pending.size(), 1u);
    EXPECT_EQ(fx.uncore->llcMisses(), 1u);
}

TEST(Uncore, SameLineCoalesces)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x2000);
    auto s2 = fx.makeStatus(0x2000);
    fx.uncore->load(s1, 0);
    EXPECT_EQ(fx.uncore->load(s2, 0), UncoreLoadResult::Pending);
    // One backend request serves both statuses.
    EXPECT_EQ(fx.backend.pending.size(), 1u);
    EXPECT_EQ(fx.uncore->llcCoalesced(), 1u);
}

TEST(Uncore, MshrCapacityBlocks)
{
    UncoreFixture fx; // 4 LLC MSHRs
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(fx.uncore->load(fx.makeStatus(a * 0x1000), 0),
                  UncoreLoadResult::Pending);
    EXPECT_EQ(fx.uncore->load(fx.makeStatus(0x9000), 0),
              UncoreLoadResult::MshrBlocked);
    EXPECT_EQ(fx.uncore->llcMshrBlocks(), 1u);
    // A response frees the entry.
    fx.backend.respondAll(MemResponseKind::Data);
    EXPECT_EQ(fx.uncore->load(fx.makeStatus(0x9000), 0),
              UncoreLoadResult::Pending);
}

TEST(Uncore, CoalescedWaitersTakeNoMshr)
{
    UncoreFixture fx; // 4 LLC MSHRs
    std::vector<MissRef> held;
    for (Addr a = 0; a < 4; ++a) {
        held.push_back(fx.makeStatus(a * 0x1000));
        EXPECT_EQ(fx.uncore->load(held.back(), 0),
                  UncoreLoadResult::Pending);
    }
    // Every entry is taken, yet a load of an in-flight line coalesces.
    for (int i = 0; i < 3; ++i) {
        held.push_back(fx.makeStatus(0x2000));
        EXPECT_EQ(fx.uncore->load(held.back(), 0),
                  UncoreLoadResult::Pending);
    }
    EXPECT_EQ(fx.uncore->llcCoalesced(), 3u);
    EXPECT_EQ(fx.uncore->load(fx.makeStatus(0x9000), 0),
              UncoreLoadResult::MshrBlocked);
    EXPECT_EQ(fx.backend.pending.size(), 4u);
    fx.backend.respondAll(MemResponseKind::Data, 5);
    for (const MissRef &st : held) {
        EXPECT_TRUE(st->done);
        EXPECT_EQ(st->value, 5u);
    }
}

TEST(Uncore, ReloadAfterHintIssuesFreshRequest)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x7000);
    EXPECT_EQ(fx.uncore->load(s1, 0), UncoreLoadResult::Pending);
    fx.backend.respondAll(MemResponseKind::DelayHint);
    EXPECT_TRUE(s1->hinted);
    EXPECT_TRUE(fx.backend.pending.empty());
    // The hint ended the transaction: the reload is a new miss with its
    // own backend request, not a coalesce onto a stale entry.
    auto s2 = fx.makeStatus(0x7000);
    EXPECT_EQ(fx.uncore->load(s2, 0), UncoreLoadResult::Pending);
    EXPECT_EQ(fx.backend.pending.size(), 1u);
    EXPECT_EQ(fx.uncore->llcMisses(), 2u);
    EXPECT_EQ(fx.uncore->llcCoalesced(), 0u);
    fx.backend.respondAll(MemResponseKind::Data, 9);
    EXPECT_TRUE(s2->done);
    EXPECT_FALSE(s1->done);
}

TEST(Uncore, DroppedHandlesCompleteCleanly)
{
    UncoreFixture fx;
    // The only references left are the waiter chain's own links.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(fx.uncore->load(fx.makeStatus(0x8000), 0),
                  UncoreLoadResult::Pending);
    }
    fx.uncore->load(fx.makeStatus(0xa000), 0);
    fx.backend.respondAll(MemResponseKind::Data, 3);
    EXPECT_EQ(fx.uncore->offchipLatency().count(), 4u);
    // A dropped waiter still in flight is released when the uncore
    // goes away (the sanitizer builds check for leaks and stale reads).
    fx.uncore->load(fx.makeStatus(0xb000), 0);
    fx.uncore.reset();
    fx.backend.pending.clear();
}

TEST(Uncore, DataResponseFillsL3)
{
    UncoreFixture fx;
    auto s = fx.makeStatus(0x3000);
    fx.uncore->load(s, 0);
    fx.backend.respondAll(MemResponseKind::Data, 777);
    EXPECT_TRUE(s->done);
    EXPECT_EQ(s->value, 777u);
    // Subsequent load hits in L3 with the functional value.
    auto s2 = fx.makeStatus(0x3000);
    EXPECT_EQ(fx.uncore->load(s2, 0), UncoreLoadResult::HitL3);
    EXPECT_EQ(s2->value, 777u);
}

TEST(Uncore, HintMarksAllWaiters)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x4000);
    auto s2 = fx.makeStatus(0x4000);
    fx.uncore->load(s1, 0);
    fx.uncore->load(s2, 0);
    fx.backend.respondAll(MemResponseKind::DelayHint);
    EXPECT_TRUE(s1->hinted);
    EXPECT_TRUE(s2->hinted);
    EXPECT_FALSE(s1->done);
    // The transaction ended: the line is NOT in L3.
    auto s3 = fx.makeStatus(0x4000);
    EXPECT_EQ(fx.uncore->load(s3, 0), UncoreLoadResult::Pending);
}

TEST(Uncore, DirtyL3VictimWritesBack)
{
    UncoreFixture fx;
    // Fill L3 with dirty lines via writebacks until something spills.
    for (Addr i = 0; i < 200; ++i)
        fx.uncore->writebackToL3(i * kCachelineBytes, i, 0);
    EXPECT_GT(fx.backend.writes.size(), 0u);
}

TEST(Uncore, OffchipHistogramRecordsLatency)
{
    UncoreFixture fx;
    auto s = fx.makeStatus(0x5000);
    s->issuedAt = 0;
    fx.uncore->load(s, 0);
    // Respond at a later simulated time.
    fx.eq.schedule(nsToTicks(500.0), [&] {
        fx.backend.respondAll(MemResponseKind::Data);
    });
    fx.eq.run();
    EXPECT_EQ(fx.uncore->offchipLatency().count(), 1u);
    EXPECT_GE(fx.uncore->offchipLatency().meanTicks(),
              static_cast<double>(nsToTicks(400.0)));
}

} // namespace
} // namespace skybyte
