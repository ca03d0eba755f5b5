/**
 * @file
 * Tests for the core model + uncore against a scripted memory backend:
 * ROB-window stalls, MLP limited by L1 MSHRs, which MSHR stalls an LLC
 * response wakes, LLC-level coalescing, memory-bound accounting, and the
 * coordinated context switch path (hint -> Long Delay Exception ->
 * squash -> replay, §III-A C1-C4).
 */

#include <gtest/gtest.h>

#include "common/event_queue.h"
#include "core/os.h"
#include "cpu/core.h"
#include "cpu/uncore.h"
#include "trace/workload.h"

namespace skybyte {
namespace {

/** Backend with programmable latency that can emit DelayHints. */
class ScriptedBackend : public MemoryBackend
{
  public:
    explicit ScriptedBackend(EventQueue &eq) : eq_(eq) {}

    void
    read(const MemRequest &req, Tick when, MemCallback cb) override
    {
        reads_++;
        if (hintAll) {
            MemResponse resp;
            resp.kind = MemResponseKind::DelayHint;
            resp.lineAddr = req.lineAddr;
            eq_.schedule(when + hintLatency,
                         [cb = std::move(cb), resp]() mutable { cb(resp); });
            return;
        }
        MemResponse resp;
        resp.kind = MemResponseKind::Data;
        resp.lineAddr = req.lineAddr;
        const auto core = static_cast<std::size_t>(req.coreId);
        const Tick latency =
            core < coreLatency.size() ? coreLatency[core] : dataLatency;
        eq_.schedule(when + latency,
                     [cb = std::move(cb), resp]() mutable { cb(resp); });
    }

    void
    write(const MemRequest &, Tick) override
    {
        writes_++;
    }

    EventQueue &eq_;
    Tick dataLatency = nsToTicks(1000.0);
    /** Per-core data latency, indexed by core id (overrides the above). */
    std::vector<Tick> coreLatency;
    Tick hintLatency = nsToTicks(100.0);
    bool hintAll = false;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

/** Fixed sequential single-thread workload: strided cold loads. */
class StrideWorkload : public Workload
{
  public:
    StrideWorkload(std::uint64_t records, std::uint32_t compute,
                   bool writes = false)
        : records_(records), compute_(compute), writes_(writes)
    {}

    std::string name() const override { return "stride"; }
    std::uint64_t footprintBytes() const override { return 1 << 30; }
    int numThreads() const override { return 1; }
    std::uint64_t instructionsEmitted(int) const override
    {
        return emitted_;
    }

    std::uint32_t
    refill(int, TraceBatch &batch) override
    {
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity && produced_ < records_) {
            produced_++;
            TraceRecord &rec = batch.records[n++];
            rec.computeOps = compute_;
            rec.isWrite = writes_;
            rec.vaddr = kDataBase + produced_ * kPageBytes; // uncached
            emitted_ += compute_ + 1;
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  private:
    std::uint64_t records_;
    std::uint32_t compute_;
    bool writes_;
    std::uint64_t produced_ = 0;
    std::uint64_t emitted_ = 0;
};

/** Fixed per-thread record lists, one thread per list. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<std::vector<TraceRecord>> recs)
        : recs_(std::move(recs)), next_(recs_.size(), 0)
    {}

    std::string name() const override { return "scripted"; }
    std::uint64_t footprintBytes() const override { return 1 << 30; }
    int numThreads() const override
    {
        return static_cast<int>(recs_.size());
    }
    std::uint64_t instructionsEmitted(int) const override { return 0; }

    std::uint32_t
    refill(int t, TraceBatch &batch) override
    {
        const auto &recs = recs_[static_cast<std::size_t>(t)];
        std::size_t &next = next_[static_cast<std::size_t>(t)];
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity && next < recs.size())
            batch.records[n++] = recs[next++];
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  private:
    std::vector<std::vector<TraceRecord>> recs_;
    std::vector<std::size_t> next_;
};

/** @p n cold loads to distinct pages from @p first_page on. */
std::vector<TraceRecord>
coldLoads(std::uint64_t n, std::uint64_t first_page, std::uint32_t compute)
{
    std::vector<TraceRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr vaddr =
            Workload::kDataBase + (first_page + i) * kPageBytes;
        recs.push_back({compute, false, vaddr});
    }
    return recs;
}

struct CoreFixture
{
    explicit CoreFixture(std::unique_ptr<Workload> wl,
                         PolicyConfig pol = {}, CpuConfig cpu_cfg = {},
                         int num_cores = 1)
        : workload(std::move(wl)), backend(eq), cpu(cpu_cfg),
          policy(pol), uncore(cpu, eq, backend), sched(pol.schedPolicy, 1)
    {
        std::vector<Core *> core_ptrs;
        for (int c = 0; c < num_cores; ++c) {
            cores.push_back(
                std::make_unique<Core>(c, cpu, policy, eq, uncore));
            cores.back()->setScheduler(&sched);
            core_ptrs.push_back(cores.back().get());
        }
        core = core_ptrs.front();
        sched.setCores(core_ptrs);
        for (int t = 0; t < workload->numThreads(); ++t) {
            threads.push_back(std::make_unique<ThreadContext>(
                t, workload.get()));
            sched.addThread(threads.back().get());
        }
    }

    void
    run()
    {
        sched.start(0);
        while (!sched.allFinished() && eq.step()) {
        }
    }

    EventQueue eq;
    std::unique_ptr<Workload> workload;
    ScriptedBackend backend;
    CpuConfig cpu;
    PolicyConfig policy;
    Uncore uncore;
    CxlAwareScheduler sched;
    std::vector<std::unique_ptr<ThreadContext>> threads;
    std::vector<std::unique_ptr<Core>> cores;
    Core *core = nullptr; ///< cores[0]
};

TEST(CoreModel, ExecutesAllInstructions)
{
    CoreFixture fx(std::make_unique<StrideWorkload>(200, 4));
    fx.run();
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_EQ(fx.core->stats().committedInstructions, 200u * 5u);
}

TEST(CoreModel, MlpIsBoundedByMshrs)
{
    // 200 cold loads, 1 ms latency each, 8 L1 MSHRs: runtime must be
    // about (200/8) * latency, NOT 200 * latency (serial) and NOT one
    // latency (infinite MLP).
    CoreFixture fx(std::make_unique<StrideWorkload>(200, 0));
    fx.run();
    const double waves = 200.0 / fx.cpu.l1d.mshrs;
    const double expected =
        waves * static_cast<double>(fx.backend.dataLatency);
    const auto elapsed = static_cast<double>(fx.eq.now());
    EXPECT_GT(elapsed, expected * 0.8);
    EXPECT_LT(elapsed, expected * 1.6);
}

TEST(CoreModel, StallsAccountedAsMemoryBound)
{
    CoreFixture fx(std::make_unique<StrideWorkload>(100, 1));
    fx.run();
    const CoreStats &st = fx.core->stats();
    EXPECT_GT(st.memStallTicks, st.computeTicks * 10);
}

TEST(CoreModel, StoresDoNotStall)
{
    CoreFixture fx(std::make_unique<StrideWorkload>(500, 0, true));
    fx.run();
    // Stores allocate without fetching: total time is tiny.
    EXPECT_LT(fx.eq.now(), usToTicks(50.0));
    EXPECT_EQ(fx.backend.reads_, 0u);
}

TEST(CoreModel, DirtyEvictionsReachBackend)
{
    // Write more distinct lines than a shrunken hierarchy holds so the
    // dirty data cascades L1 -> L2 -> L3 -> backend.
    CpuConfig small;
    small.l1d.sizeBytes = 4 * 1024;
    small.l2.sizeBytes = 16 * 1024;
    small.llc.sizeBytes = 64 * 1024;
    CoreFixture fx(std::make_unique<StrideWorkload>(9000, 0, true), {},
                   small);
    fx.run();
    EXPECT_GT(fx.backend.writes_, 1000u);
}

TEST(CoreModel, HintTriggersContextSwitchAndReplay)
{
    PolicyConfig pol;
    pol.deviceTriggeredCtxSwitch = true;
    auto wl = std::make_unique<StrideWorkload>(50, 2);
    CoreFixture fx(std::move(wl), pol);
    fx.backend.hintAll = true;

    // Drive manually: with every read hinted and a single thread, the
    // scheduler hands the same thread back; each hinted record replays
    // and hints again, so the run would never end. Step a bounded time
    // and check the switch machinery engaged.
    fx.sched.start(0);
    const Tick limit = usToTicks(200.0);
    while (fx.eq.now() < limit && fx.eq.step()) {
    }
    EXPECT_GT(fx.core->stats().contextSwitches, 10u);
    EXPECT_GT(fx.core->stats().squashedRecords, 0u);
    EXPECT_GT(fx.core->stats().ctxSwitchTicks, 0u);
    // Each hinted access re-issues after resume (C4): reads exceed
    // context switches.
    EXPECT_GE(fx.backend.reads_, fx.core->stats().contextSwitches);
}

TEST(CoreModel, NoSwitchesWhenPolicyDisabled)
{
    PolicyConfig pol;
    pol.deviceTriggeredCtxSwitch = false;
    CoreFixture fx(std::make_unique<StrideWorkload>(50, 2), pol);
    fx.run();
    EXPECT_EQ(fx.core->stats().contextSwitches, 0u);
}

TEST(CoreModel, CoalescedMissesCompleteTogether)
{
    // Two loads to the same line: one backend read, both complete.
    class SameLine : public Workload
    {
      public:
        std::string name() const override { return "same"; }
        std::uint64_t footprintBytes() const override { return 1 << 20; }
        int numThreads() const override { return 1; }
        std::uint64_t instructionsEmitted(int) const override
        {
            return n_;
        }
        std::uint32_t
        refill(int, TraceBatch &batch) override
        {
            std::uint32_t filled = 0;
            while (filled < TraceBatch::kCapacity && n_ < 2) {
                n_++;
                batch.records[filled++] = {0, false, kDataBase};
            }
            batch.count = filled;
            batch.cursor = 0;
            return filled;
        }

      private:
        std::uint64_t n_ = 0;
    };
    CoreFixture fx(std::make_unique<SameLine>());
    fx.run();
    EXPECT_EQ(fx.backend.reads_, 1u);
    EXPECT_EQ(fx.core->stats().committedInstructions, 2u);
}

TEST(CoreModel, PenaltyDelaysExecution)
{
    auto wl = std::make_unique<StrideWorkload>(10, 0);
    CoreFixture fast(std::move(wl));
    fast.run();
    const Tick base_time = fast.eq.now();

    auto wl2 = std::make_unique<StrideWorkload>(10, 0);
    CoreFixture slow(std::move(wl2));
    slow.core->addPenalty(usToTicks(100.0));
    slow.run();
    EXPECT_GE(slow.eq.now(), base_time + usToTicks(100.0) / 2);
}

TEST(CoreModel, MultiThreadSharesCore)
{
    // Two threads on one core, no switching: the second runs after the
    // first finishes.
    class TwoThreads : public Workload
    {
      public:
        std::string name() const override { return "two"; }
        std::uint64_t footprintBytes() const override { return 1 << 20; }
        int numThreads() const override { return 2; }
        std::uint64_t instructionsEmitted(int t) const override
        {
            return n_[t];
        }
        std::uint32_t
        refill(int t, TraceBatch &batch) override
        {
            std::uint32_t filled = 0;
            while (filled < TraceBatch::kCapacity && n_[t] < 20) {
                batch.records[filled++] =
                    {3, false,
                     kDataBase + (n_[t] + (t ? 1000u : 0u)) * kPageBytes};
                n_[t] += 4;
            }
            batch.count = filled;
            batch.cursor = 0;
            return filled;
        }

      private:
        std::uint64_t n_[2] = {0, 0};
    };
    CoreFixture fx(std::make_unique<TwoThreads>());
    fx.run();
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_TRUE(fx.threads[0]->finished());
    EXPECT_TRUE(fx.threads[1]->finished());
}

/**
 * Core 0 fills its 8 L1 MSHRs with slow (1 us) loads and blocks on a
 * ninth; core 1 streams fast (100 ns) loads whose responses land during
 * that stall. @p penalty_at > 0 adds @p penalty to core 0 at that time.
 */
struct L1StallRun
{
    explicit L1StallRun(Tick penalty_at = 0, Tick penalty = 0)
        : fx(std::make_unique<ScriptedWorkload>(
                 std::vector<std::vector<TraceRecord>>{
                     coldLoads(9, 0, 0), coldLoads(40, 1000, 20)}),
             {}, {}, 2)
    {
        fx.backend.coreLatency = {nsToTicks(1000.0), nsToTicks(100.0)};
        if (penalty_at > 0) {
            fx.eq.schedule(penalty_at, [this, penalty] {
                fx.core->addPenalty(penalty);
            });
        }
        fx.run();
    }

    CoreFixture fx;
};

TEST(CoreModel, L1MshrStallIgnoresOtherCoresResponses)
{
    L1StallRun run;
    const CoreFixture &fx = run.fx;
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_EQ(fx.core->stats().committedInstructions, 9u);
    // Core 1's loads came back while core 0 waited on its own MSHRs.
    EXPECT_LT(fx.threads[1]->finishTime(), fx.threads[0]->finishTime());
    // One blocking episode, however many LLC responses it spanned.
    EXPECT_EQ(fx.core->stats().mshrBlockedStalls, 1u);
}

TEST(CoreModel, LlcMshrStallResumesOnAnotherCoresResponse)
{
    // One LLC MSHR: core 0's slow miss holds it, so core 1's load
    // blocks in the uncore and must resume when core 0's miss returns.
    CpuConfig cpu;
    cpu.llc.mshrs = 1;
    CoreFixture fx(std::make_unique<ScriptedWorkload>(
                       std::vector<std::vector<TraceRecord>>{
                           coldLoads(1, 0, 0), coldLoads(3, 1000, 10)}),
                   {}, cpu, 2);
    fx.backend.coreLatency = {nsToTicks(1000.0), nsToTicks(100.0)};
    fx.run();
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_EQ(fx.cores[1]->stats().committedInstructions, 3u * 11u);
    EXPECT_GT(fx.cores[1]->stats().mshrBlockedStalls, 0u);
    EXPECT_GT(fx.uncore.llcMshrBlocks(), 0u);
    EXPECT_GT(fx.threads[1]->finishTime(), nsToTicks(1000.0));
}

TEST(CoreModel, PenaltyDuringL1MshrStallChargedAtNextLlcResponse)
{
    // A 500 ns shootdown penalty lands at 50 ns, while core 0 is
    // L1-blocked. It is charged when core 1's first response arrives
    // (~100 ns), inside the stall, so core 0 finishes as if it never
    // came; charged at core 0's own wake (1 us) it would delay it.
    const L1StallRun base;
    const L1StallRun hit(nsToTicks(50.0), nsToTicks(500.0));
    EXPECT_EQ(hit.fx.threads[0]->finishTime(),
              base.fx.threads[0]->finishTime());
    EXPECT_EQ(hit.fx.core->stats().memStallTicks,
              base.fx.core->stats().memStallTicks);
    // The charging wake retried the blocked load once more.
    EXPECT_EQ(hit.fx.core->stats().mshrBlockedStalls, 2u);
}

} // namespace
} // namespace skybyte
