/**
 * @file
 * Tests for the flash substrate: channel timing per NAND family
 * (Table IV), die/bus queueing, the Algorithm 1 delay estimator, FTL
 * mapping with out-of-place updates, GC triggering and reclamation,
 * preconditioning (§VI-A), a pinned golden state of a seeded GC-heavy
 * run, and the always-on checks on out-of-range LPNs and free-block
 * exhaustion.
 */

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/event_queue.h"
#include "common/rng.h"
#include "ssd/flash.h"
#include "ssd/ftl.h"

namespace skybyte {
namespace {

FlashConfig
tinyFlash()
{
    FlashConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 2;
    cfg.diesPerChip = 2;
    cfg.blocksPerPlane = 4; // 16 blocks/channel
    cfg.pagesPerBlock = 8;
    return cfg;
}

TEST(FlashChannel, ReadLatencyIsCellPlusTransfer)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    FlashChannel ch(0, cfg, eq);
    Tick done = 0;
    ch.enqueue(FlashOpKind::Read, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, cfg.timing.readLatency + cfg.pageTransferTime);
}

TEST(FlashChannel, NandPresetsOrdering)
{
    // Table IV: ULL < ULL2 < SLC < MLC read latency.
    const Tick ull = nandTiming(NandType::ULL).readLatency;
    const Tick ull2 = nandTiming(NandType::ULL2).readLatency;
    const Tick slc = nandTiming(NandType::SLC).readLatency;
    const Tick mlc = nandTiming(NandType::MLC).readLatency;
    EXPECT_LT(ull, ull2);
    EXPECT_LT(ull2, slc);
    EXPECT_LT(slc, mlc);
    EXPECT_EQ(ull, usToTicks(3.0));
    EXPECT_EQ(nandTiming(NandType::MLC).eraseLatency, usToTicks(3000.0));
}

TEST(FlashChannel, DieParallelismOverlapsReads)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash(); // 4 dies on the channel
    FlashChannel ch(0, cfg, eq);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i)
        ch.enqueue(FlashOpKind::Read, 0, [&](Tick t) { done.push_back(t); });
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // Cell reads overlap; only the bus transfers serialize.
    const Tick serial = 4 * (cfg.timing.readLatency + cfg.pageTransferTime);
    EXPECT_LT(done.back(), serial);
    EXPECT_GE(done.back(),
              cfg.timing.readLatency + 4 * cfg.pageTransferTime);
}

TEST(FlashChannel, EstimateGrowsWithQueueDepth)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    FlashChannel ch(0, cfg, eq);
    const Tick idle = ch.estimateReadDelay(0);
    EXPECT_EQ(idle, cfg.timing.readLatency + cfg.pageTransferTime);
    for (int i = 0; i < 16; ++i)
        ch.enqueue(FlashOpKind::Read, 0, nullptr);
    EXPECT_GT(ch.estimateReadDelay(0), idle);
    EXPECT_EQ(ch.pendingReads(), 16u);
    eq.run();
    EXPECT_EQ(ch.pendingReads(), 0u);
    EXPECT_EQ(ch.completedReads(), 16u);
}

TEST(FlashChannel, GcActiveFlag)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    FlashChannel ch(0, cfg, eq);
    EXPECT_FALSE(ch.gcActive());
    ch.setGcActive(true);
    EXPECT_TRUE(ch.gcActive());
}

TEST(Ftl, ReadMapsOnDemandAndCompletes)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    Tick done = 0;
    ftl.readPage(5, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ftl.stats().hostReads, 1u);
}

TEST(Ftl, WriteIsOutOfPlace)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    PageData data{};
    data[0] = 42;
    ftl.writePage(3, 0, data, nullptr);
    ftl.writePage(3, 0, data, nullptr); // rewrite invalidates the old
    eq.run();
    EXPECT_EQ(ftl.stats().hostPrograms, 2u);
    EXPECT_EQ(ftl.pageData(3)[0], 42u);
}

TEST(Ftl, FunctionalLinePeek)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    PageData data{};
    data[7] = 1234;
    ftl.writePage(2, 0, data, nullptr);
    EXPECT_EQ(ftl.peekLine(2 * kPageBytes + 7 * kCachelineBytes), 1234u);
    EXPECT_EQ(ftl.peekLine(9 * kPageBytes), 0u);
}

TEST(Ftl, GcTriggersAndReclaims)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    // Write the same small set of pages repeatedly: out-of-place updates
    // create dead pages until GC must run.
    PageData data{};
    for (int round = 0; round < 60; ++round) {
        for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
            ftl.writePage(lpn * cfg.channels, eq.now(), data, nullptr);
        eq.run();
    }
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_GT(ftl.stats().gcErases, 0u);
    // Device still functional and mapped.
    Tick done = 0;
    ftl.readPage(0, eq.now(), [&](Tick t) { done = t; });
    eq.run();
    EXPECT_GT(done, 0u);
    // Free blocks recovered above zero.
    EXPECT_GT(ftl.freeBlocks(0), 0u);
}

TEST(Ftl, PreconditionLeavesFreeBlocksNearThreshold)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    ftl.precondition(16);
    const auto threshold = static_cast<std::uint32_t>(
        cfg.blocksPerChannel() * cfg.gcFreeBlockThreshold);
    for (std::uint32_t c = 0; c < cfg.channels; ++c) {
        EXPECT_GE(ftl.freeBlocks(c), threshold);
        EXPECT_LE(ftl.freeBlocks(c), threshold + 3);
    }
}

TEST(Ftl, EstimatorSeesGc)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    EXPECT_FALSE(ftl.gcActiveFor(0));
}

TEST(Ftl, ChannelStriping)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    // LPN n maps to channel n % channels.
    EXPECT_EQ(&ftl.channelOf(0), &ftl.channelOf(2));
    EXPECT_NE(&ftl.channelOf(0), &ftl.channelOf(1));
}

/**
 * Golden state of a seeded run: precondition, then a random mix of
 * reads and writes over (and past) the footprint that drives dozens of
 * GC rounds. The pinned values were recorded from the hash-map FTL, so
 * any change to mapping, victim choice or GC timing shows up here.
 */
TEST(Ftl, SeededGcRunMatchesGoldenState)
{
    FlashConfig cfg = tinyFlash();
    cfg.blocksPerPlane = 8; // 32 blocks/channel
    cfg.pagesPerBlock = 16; // 512 pages/channel
    EventQueue eq;
    Ftl ftl(cfg, eq, 7);
    ftl.precondition(192);
    Rng rng(99);
    for (std::uint64_t i = 0; i < 3000; ++i) {
        const std::uint64_t lpn = rng.below(256);
        if (rng.chance(0.6)) {
            PageData data{};
            data[lpn % kLinesPerPage] = i + 1;
            ftl.writePage(lpn, eq.now(), data, nullptr);
        } else {
            ftl.readPage(lpn, eq.now(), nullptr);
        }
        if (i % 8 == 7)
            eq.run();
    }
    eq.run();

    const FtlStats &s = ftl.stats();
    EXPECT_EQ(s.hostReads, 1167u);
    EXPECT_EQ(s.hostPrograms, 1833u);
    EXPECT_EQ(s.gcPageMoves, 2230u);
    EXPECT_EQ(s.gcErases, 251u);
    EXPECT_EQ(s.gcRuns, 49u);
    EXPECT_EQ(s.mappingUpdates, 4823u);
    EXPECT_EQ(ftl.freeBlocks(0), 7u);
    EXPECT_EQ(ftl.freeBlocks(1), 6u);
    const Ftl::WearSummary wear = ftl.wearSummary();
    EXPECT_EQ(wear.minErase, 0u);
    EXPECT_EQ(wear.maxErase, 12u);
    EXPECT_DOUBLE_EQ(wear.meanErase, 3.921875);
    EXPECT_DOUBLE_EQ(ftl.writeAmplification(), 4063.0 / 1833.0);
    EXPECT_EQ(ftl.totalPrograms(), 4063u);
    EXPECT_EQ(ftl.totalReads(), 3397u);
    EXPECT_EQ(eq.now(), 5491194925u);
    const std::pair<std::uint64_t, LineValue> peeks[] = {
        {0, 2743},   {7, 2835},   {100, 2579},
        {191, 2162}, {200, 2637}, {255, 2584}};
    for (const auto &[lpn, value] : peeks) {
        EXPECT_EQ(ftl.peekLine(lpn * kPageBytes
                               + (lpn % kLinesPerPage) * kCachelineBytes),
                  value)
            << "lpn " << lpn;
    }
}

/** What PreconditionMatchesGoldenState pins for one configuration. */
struct PreconditionGolden
{
    bool wearAware;
    double rewriteFraction;
    std::array<std::uint32_t, 4> freeBlocks; ///< per channel, after
    std::uint64_t preconditionUpdates;       ///< mappingUpdates, after
    // A seeded GC run that follows.
    std::uint64_t hostReads, hostPrograms, gcPageMoves, gcErases, gcRuns,
        mappingUpdates;
    std::array<std::uint32_t, 4> finalFreeBlocks;
    std::uint32_t minErase, maxErase;
    double meanErase;
    Tick end;
};

/**
 * Golden state of preconditioning on an awkward geometry: a footprint
 * that is not a multiple of the 4 channels and leaves each channel's
 * open block part-full, wear-aware allocation off and on, and rewrite
 * fractions 0, 0.3 and 1.0. Pins the free blocks of every channel and
 * the mapping updates after precondition, then the stats, free blocks,
 * wear and end tick of a seeded GC run that follows, so any change to
 * block order, cold padding or the RNG draws shows up here. The values
 * were recorded from the page-at-a-time precondition that gave every
 * cold page its own LPN (which was right only for power-of-two channel
 * counts; see ColdPaddingIsReclaimableOnAnyChannelCount).
 */
TEST(Ftl, PreconditionMatchesGoldenState)
{
    const PreconditionGolden goldens[] = {
        {false, 0.0, {6, 6, 6, 6}, 1092,
         769, 1731, 1555, 199, 44, 4390, {6, 4, 5, 4},
         0, 7, 2.0729166666666665, 4028768425},
        {false, 0.3, {6, 6, 6, 6}, 1092,
         769, 1731, 930, 159, 43, 3765, {4, 4, 4, 6},
         0, 5, 1.65625, 3156937550},
        {false, 1.0, {6, 6, 6, 6}, 1092,
         769, 1731, 326, 123, 41, 3161, {4, 6, 5, 5},
         0, 4, 1.28125, 2415365025},
        {true, 0.0, {6, 6, 6, 6}, 1092,
         769, 1731, 1629, 205, 46, 4464, {5, 6, 4, 5},
         0, 5, 2.1354166666666665, 4105972825},
        {true, 0.3, {6, 6, 6, 6}, 1092,
         769, 1731, 948, 161, 43, 3783, {5, 4, 4, 6},
         0, 4, 1.6770833333333333, 3291285250},
        {true, 1.0, {6, 6, 6, 6}, 1092,
         769, 1731, 342, 126, 42, 3177, {6, 6, 5, 5},
         0, 3, 1.3125, 2418960350},
    };
    for (const PreconditionGolden &g : goldens) {
        SCOPED_TRACE("wearAware " + std::to_string(g.wearAware)
                     + " rewriteFraction "
                     + std::to_string(g.rewriteFraction));
        FlashConfig cfg = tinyFlash();
        cfg.channels = 4;
        cfg.blocksPerPlane = 6; // 24 blocks/channel
        cfg.pagesPerBlock = 16; // 384 pages/channel
        cfg.wearAwareAllocation = g.wearAware;
        EventQueue eq;
        Ftl ftl(cfg, eq, 11);
        ftl.precondition(270, g.rewriteFraction); // 68, 68, 67, 67 pages
        for (std::uint32_t c = 0; c < cfg.channels; ++c)
            EXPECT_EQ(ftl.freeBlocks(c), g.freeBlocks[c])
                << "channel " << c;
        EXPECT_EQ(ftl.stats().mappingUpdates, g.preconditionUpdates);

        Rng rng(5);
        for (std::uint64_t i = 0; i < 2500; ++i) {
            const std::uint64_t lpn = rng.below(310);
            if (rng.chance(0.7)) {
                PageData data{};
                data[lpn % kLinesPerPage] = i + 1;
                ftl.writePage(lpn, eq.now(), data, nullptr);
            } else {
                ftl.readPage(lpn, eq.now(), nullptr);
            }
            if (i % 8 == 7)
                eq.run();
        }
        eq.run();
        const FtlStats &s = ftl.stats();
        const Ftl::WearSummary wear = ftl.wearSummary();
        EXPECT_EQ(s.hostReads, g.hostReads);
        EXPECT_EQ(s.hostPrograms, g.hostPrograms);
        EXPECT_EQ(s.gcPageMoves, g.gcPageMoves);
        EXPECT_EQ(s.gcErases, g.gcErases);
        EXPECT_EQ(s.gcRuns, g.gcRuns);
        EXPECT_EQ(s.mappingUpdates, g.mappingUpdates);
        for (std::uint32_t c = 0; c < cfg.channels; ++c) {
            EXPECT_EQ(ftl.freeBlocks(c), g.finalFreeBlocks[c])
                << "channel " << c;
        }
        EXPECT_EQ(wear.minErase, g.minErase);
        EXPECT_EQ(wear.maxErase, g.maxErase);
        EXPECT_DOUBLE_EQ(wear.meanErase, g.meanErase);
        EXPECT_EQ(eq.now(), g.end);
    }
}

/**
 * A quarter of the cold padding is dead, so once host writes of fresh
 * pages push a channel below the GC threshold, GC finds victims with
 * space to reclaim even with no host page rewritten. Cold pages that
 * carried their own LPN were invalidated on the wrong channel (and so
 * not at all) whenever 2^40 was not a multiple of the channel count.
 */
TEST(Ftl, ColdPaddingIsReclaimableOnAnyChannelCount)
{
    for (const std::uint32_t channels : {2u, 3u, 5u, 6u}) {
        SCOPED_TRACE("channels " + std::to_string(channels));
        FlashConfig cfg = tinyFlash();
        cfg.channels = channels;
        cfg.pagesPerBlock = 16;
        EventQueue eq;
        Ftl ftl(cfg, eq, 3);
        ftl.precondition(20 * channels, 0.0);
        PageData data{};
        for (std::uint64_t lpn = 20 * channels; lpn < 80 * channels; ++lpn)
            ftl.writePage(lpn, eq.now(), data, nullptr);
        eq.run();
        EXPECT_GT(ftl.stats().gcErases, 0u);
        EXPECT_GT(ftl.stats().gcPageMoves, 0u);
    }
}

TEST(Ftl, FootprintLargerThanTheDeviceThrows)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    try {
        ftl.precondition(cfg.totalPages() + 1);
        FAIL() << "a footprint past the device did not throw";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("flash channel 0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Ftl, PagesFarPastTheFootprint)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    ftl.precondition(16);
    PageData &first = ftl.mutablePageData(0);
    first[3] = 77;

    // Lazily mapped LPNs far past the footprint grow the dense arrays.
    PageData data{};
    data[5] = 99;
    ftl.writePage(1'000'000, 0, data, nullptr);
    Tick done = 0;
    ftl.readPage(2'000'001, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ftl.stats().hostPrograms, 1u);
    EXPECT_EQ(ftl.stats().hostReads, 1u);
    EXPECT_EQ(ftl.peekLine(1'000'000 * kPageBytes + 5 * kCachelineBytes),
              99u);
    EXPECT_EQ(ftl.peekLine(2'000'001 * kPageBytes), 0u);
    EXPECT_EQ(ftl.peekLine(5'000'000 * kPageBytes), 0u);

    // mutablePageData() references stay valid across the growth, and
    // the reader sees the same storage.
    EXPECT_EQ(&ftl.mutablePageData(0), &first);
    EXPECT_EQ(&ftl.pageData(0), &first);
    EXPECT_EQ(first[3], 77u);
    EXPECT_EQ(ftl.peekLine(3 * kCachelineBytes), 77u);
}

TEST(Ftl, HostLpnPastTheLimitThrows)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    ftl.precondition(16);
    PageData data{};
    // At the limit (where the page-slot sentinels start) and at 2^40,
    // the start of the numbered cold range this limit replaced.
    for (const std::uint64_t lpn :
         {Ftl::kHostLpnLimit, std::uint64_t{1} << 40}) {
        SCOPED_TRACE("lpn " + std::to_string(lpn));
        EXPECT_THROW(ftl.writePage(lpn, 0, data, nullptr),
                     std::logic_error);
        EXPECT_THROW(ftl.readPage(lpn, 0, nullptr), std::logic_error);
        EXPECT_THROW(ftl.pageData(lpn), std::logic_error);
        EXPECT_THROW(ftl.mutablePageData(lpn), std::logic_error);
    }
    EXPECT_EQ(ftl.stats().hostPrograms, 0u);
    EXPECT_EQ(ftl.stats().hostReads, 0u);
}

TEST(Ftl, ReadsOfUnwrittenPagesAllocateNothing)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    ftl.precondition(16);
    // Reads inside and far past the footprint: every line is 0, and
    // they all share one zero page instead of allocating their own.
    for (const std::uint64_t lpn : {0ULL, 7ULL, 15ULL, 300'000ULL}) {
        ftl.readPage(lpn, 0, nullptr);
        EXPECT_EQ(ftl.pageData(lpn)[lpn % kLinesPerPage], 0u);
        EXPECT_EQ(ftl.peekLine(lpn * kPageBytes), 0u);
        EXPECT_EQ(&ftl.pageData(lpn), &ftl.pageData(1));
    }
    eq.run();
    EXPECT_EQ(ftl.stats().hostReads, 4u);
    EXPECT_EQ(ftl.storedPages(), 0u);

    // An all-zero program stores nothing either; a nonzero line does.
    PageData zeros{};
    ftl.writePage(4, eq.now(), zeros, nullptr);
    EXPECT_EQ(ftl.storedPages(), 0u);
    PageData one{};
    one[9] = 5;
    ftl.writePage(4, eq.now(), one, nullptr);
    EXPECT_EQ(ftl.storedPages(), 1u);
    EXPECT_EQ(ftl.peekLine(4 * kPageBytes + 9 * kCachelineBytes), 5u);
    // Zeros over a stored page overwrite it.
    ftl.writePage(4, eq.now(), zeros, nullptr);
    eq.run();
    EXPECT_EQ(ftl.peekLine(4 * kPageBytes + 9 * kCachelineBytes), 0u);
    EXPECT_EQ(ftl.stats().hostPrograms, 3u);
}

TEST(Ftl, ExhaustedFreeListThrows)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    cfg.gcFreeBlockThreshold = 0.0; // GC never starts
    Ftl ftl(cfg, eq, 1);
    PageData data{};
    // One more distinct page than channel 0 holds.
    const std::uint64_t pages = cfg.pagesPerChannel() + 1;
    try {
        for (std::uint64_t i = 0; i < pages; ++i)
            ftl.writePage(i * cfg.channels, 0, data, nullptr);
        FAIL() << "filling the channel past capacity did not throw";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("flash channel 0"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace skybyte
