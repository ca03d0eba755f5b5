/**
 * @file
 * Tests for the DRAM timing/functional model and the CXL link: fixed
 * latency, bandwidth queueing, channel spreading, functional payloads,
 * protocol latency and NDR opcodes.
 */

#include <gtest/gtest.h>

#include "cxl/cxl.h"
#include "mem/dram.h"

namespace skybyte {
namespace {

TEST(Dram, ReadLatencyIsAccessPlusTransfer)
{
    EventQueue eq;
    DramModel dram(eq, nsToTicks(70.0), 1, 64.0); // 64 B/ns
    Tick done = 0;
    MemRequest req;
    req.lineAddr = 0x1000;
    dram.read(req, 0, [&](const MemResponse &) { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, nsToTicks(70.0) + nsToTicks(1.0));
}

TEST(Dram, BandwidthSerializesSameChannel)
{
    EventQueue eq;
    DramModel dram(eq, 0, 1, 1.0); // 1 B/ns, zero latency, 1 channel
    const Tick t1 = dram.serviceAt(0, 64, 0);
    const Tick t2 = dram.serviceAt(0, 64, kCachelineBytes);
    EXPECT_EQ(t1, nsToTicks(64.0));
    EXPECT_EQ(t2, nsToTicks(128.0)); // queued behind the first
}

TEST(Dram, ChannelsSpreadPageAlignedTraffic)
{
    EventQueue eq;
    DramModel dram(eq, 0, 8, 1.0);
    // 4 KB-aligned addresses must not all land on one channel (this was
    // a real bug: plain modulo pinned page installs to channel 0).
    Tick worst = 0;
    for (int i = 0; i < 16; ++i) {
        const Tick done = dram.serviceAt(
            0, kPageBytes, static_cast<Addr>(i) * kPageBytes);
        worst = std::max(worst, done);
    }
    // Perfect spread would be 2 pages per channel = 8192 ns; a single
    // channel would be 65536 ns. Require clearly better than serial.
    EXPECT_LT(worst, nsToTicks(30000.0));
}

TEST(Dram, FunctionalStoreReadsBack)
{
    EventQueue eq;
    DramModel dram(eq, nsToTicks(10.0), 2, 16.0);
    MemRequest wr;
    wr.lineAddr = 0x40;
    wr.isWrite = true;
    wr.value = 77;
    dram.write(wr, 0);
    LineValue got = 0;
    MemRequest rd;
    rd.lineAddr = 0x40;
    dram.read(rd, 0, [&](const MemResponse &r) { got = r.value; });
    eq.run();
    EXPECT_EQ(got, 77u);
    EXPECT_EQ(dram.peek(0x40), 77u);
    EXPECT_EQ(dram.peek(0x80), 0u);
    dram.poke(0x80, 5);
    EXPECT_EQ(dram.peek(0x80), 5u);
}

TEST(Dram, ZeroLinesHoldNoEntry)
{
    EventQueue eq;
    DramModel dram(eq, nsToTicks(10.0), 2, 16.0);
    // A migration copy pokes every line of a page; only nonzero lines
    // are stored.
    for (Addr off = 0; off < kPageBytes; off += kCachelineBytes)
        dram.poke(off, off == 3 * kCachelineBytes ? 9 : 0);
    EXPECT_EQ(dram.storedLines(), 1u);
    EXPECT_EQ(dram.peek(3 * kCachelineBytes), 9u);

    // Poking (or writing) 0 over a stored line erases its entry.
    dram.poke(3 * kCachelineBytes, 0);
    EXPECT_EQ(dram.storedLines(), 0u);
    EXPECT_EQ(dram.peek(3 * kCachelineBytes), 0u);
    MemRequest wr;
    wr.lineAddr = 0x40;
    wr.isWrite = true;
    wr.value = 4;
    dram.write(wr, 0);
    EXPECT_EQ(dram.storedLines(), 1u);
    wr.value = 0;
    dram.write(wr, 0);
    EXPECT_EQ(dram.storedLines(), 0u);
    EXPECT_EQ(dram.writes(), 2u);
}

TEST(Dram, CountsTraffic)
{
    EventQueue eq;
    DramModel dram(eq, 0, 1, 16.0);
    MemRequest req;
    dram.read(req, 0, [](const MemResponse &) {});
    dram.write(req, 0);
    eq.run();
    EXPECT_EQ(dram.reads(), 1u);
    EXPECT_EQ(dram.writes(), 1u);
    EXPECT_EQ(dram.bytesTransferred(), 2u * kCachelineBytes);
}

TEST(CxlLink, ProtocolLatencyApplied)
{
    EventQueue eq;
    CxlConfig cfg;
    CxlLink link(eq, cfg);
    const Tick t = link.deliverToDevice(0, 16);
    EXPECT_EQ(t, cfg.protocolLatency + nsToTicks(1.0));
}

TEST(CxlLink, DirectionsAreIndependent)
{
    EventQueue eq;
    CxlConfig cfg;
    cfg.bytesPerNs = 1.0; // slow link to expose queueing
    CxlLink link(eq, cfg);
    const Tick a = link.deliverToDevice(0, 4096);
    const Tick b = link.deliverToHost(0, 4096);
    EXPECT_EQ(a, b); // no cross-direction interference
    const Tick c = link.deliverToDevice(0, 4096);
    EXPECT_GT(c, a); // same direction queues
}

TEST(CxlLink, TracksBytesAndTags)
{
    EventQueue eq;
    CxlLink link(eq, CxlConfig{});
    link.deliverToDevice(0, 64);
    link.deliverToHost(0, 64);
    EXPECT_EQ(link.bytesTransferred(), 128u);
    const std::uint16_t t0 = link.nextTag();
    EXPECT_EQ(link.nextTag(), static_cast<std::uint16_t>(t0 + 1));
}

TEST(CxlOpcodes, SkyByteDelayUsesReservedEncoding)
{
    // Figure 8: SkyByte claims the 0b111 reserved NDR opcode.
    EXPECT_EQ(static_cast<int>(CxlNdrOpcode::SkyByteDelay), 0b111);
    EXPECT_EQ(static_cast<int>(CxlNdrOpcode::Cmp), 0b000);
    EXPECT_EQ(static_cast<int>(CxlNdrOpcode::BiConflictAck), 0b100);
}

} // namespace
} // namespace skybyte
