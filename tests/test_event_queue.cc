/**
 * @file
 * Unit tests for the discrete-event kernel: time ordering, deterministic
 * same-tick FIFO, clamping, bounded runs, the calendar-window-to-heap
 * overflow crossover, and order equivalence against the seed kernel
 * (LegacyEventQueue, kept here) under randomized schedules. In
 * optimized builds, the calendar kernel must also run the simulator's
 * event mix at least 2x faster than the seed kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/event_queue.h"

namespace skybyte {
namespace {

/**
 * The seed kernel's event path, frozen verbatim: std::priority_queue of
 * Entry records holding std::function callbacks, with the full-Entry
 * copy out of top() in step(). The reference for the order-equivalence
 * and speedup tests below; simulator code uses EventQueue.
 */
class LegacyEventQueue
{
  public:
    using EventFn = std::function<void()>;

    LegacyEventQueue() = default;

    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Tick now() const { return now_; }

    void
    schedule(Tick when, EventFn fn)
    {
        if (when < now_)
            when = now_;
        heap_.push(Entry{when, seq_++, std::move(fn)});
    }

    void
    scheduleAfter(Tick delay, EventFn fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        // Seed behaviour: copies the Entry (and its std::function) out
        // before popping so the callback may schedule.
        Entry e = heap_.top();
        heap_.pop();
        now_ = e.when;
        e.fn();
        return true;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PastSchedulingClampsToNow)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(100, [&] {
        eq.schedule(50, [&] { fired_at = eq.now(); }); // in the past
    });
    eq.run();
    EXPECT_EQ(fired_at, 100u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(40, [&] {
        eq.scheduleAfter(15, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 55u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t * 10, [&] { count++; });
    eq.run(45);
    EXPECT_EQ(count, 5); // events at 0,10,20,30,40
    EXPECT_EQ(eq.pending(), 5u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.schedule(99, [] {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, BoundedRunAdvancesClockToLimit)
{
    // Events remain past the limit, yet the clock lands exactly on it,
    // so back-to-back bounded runs resume from a consistent time (the
    // seed kernel only advanced the clock when the queue drained).
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { count++; });
    eq.schedule(500, [&] { count++; });
    eq.run(100);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run(400); // nothing fires, clock still advances
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 400u);
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, FarEventsCrossCalendarWindowIntoHeap)
{
    // Events far beyond the calendar window overflow into the heap and
    // must come back in exact time order as the cursor advances.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick w = EventQueue::kWindowTicks;
    const std::vector<Tick> whens = {
        3,         w - 1,     w,         w + 1,    2 * w,
        5 * w + 7, 3 * w - 2, 10 * w,    w / 2,    7,
        w + 1,     5 * w + 7, 100 * w,   0,        w,
    };
    for (Tick t : whens)
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    std::vector<Tick> expected = whens;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(eq.now(), 100 * w);
}

TEST(EventQueue, SameTickFifoAcrossOverflowCrossover)
{
    // Same-tick events split between the heap (scheduled while the
    // tick was out of the window) and the calendar (scheduled after the
    // cursor advanced) must still fire in schedule order.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 4 * EventQueue::kWindowTicks + 17;
    eq.schedule(target, [&] { order.push_back(0); }); // via heap
    eq.schedule(target, [&] { order.push_back(1); }); // via heap
    // An intermediate event close to the target pulls the window
    // forward so late schedules at `target` go straight to a bucket.
    eq.schedule(target - 5, [&] {
        eq.schedule(target, [&] { order.push_back(2); });
        eq.scheduleAfter(5, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ChainsSpanningManyWindows)
{
    // A self-rescheduling chain with a stride larger than the window
    // exercises the empty-window jump path on every step.
    EventQueue eq;
    int count = 0;
    const Tick stride = 3 * EventQueue::kWindowTicks + 1;
    std::function<void()> chain = [&] {
        if (++count < 50)
            eq.scheduleAfter(stride, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 50);
    EXPECT_EQ(eq.now(), 49 * stride);
}

TEST(EventQueue, OversizedCallbacksAndPendingDestruction)
{
    // Callbacks larger than the inline buffer take the heap fallback;
    // captured resources are released both after execution and when
    // pending events are dropped by reset().
    auto token = std::make_shared<int>(7);
    struct Big
    {
        std::shared_ptr<int> t;
        std::uint64_t pad[8];
    };
    {
        EventQueue eq;
        int fired = 0;
        Big big{token, {}};
        eq.schedule(1, [big, &fired] { fired += *big.t; });
        eq.schedule(2, [big] { (void)big; });
        EXPECT_EQ(token.use_count(), 4); // token + local big + 2 events
        eq.run(1);
        EXPECT_EQ(fired, 7);
        EXPECT_EQ(token.use_count(), 3); // executed event destroyed
        eq.reset();
        EXPECT_EQ(token.use_count(), 2); // dropped event destroyed
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, MatchesLegacyKernelOnRandomSchedules)
{
    // Drive the calendar kernel and the seed kernel with an identical
    // randomized schedule (including events scheduled from callbacks)
    // and require the exact same execution order.
    auto drive = [](auto &eq) {
        std::vector<std::pair<Tick, int>> log;
        std::uint32_t rng = 0xc0ffee11u;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            return rng;
        };
        int id = 0;
        for (int i = 0; i < 512; ++i) {
            const Tick when = next() % (3 * EventQueue::kWindowTicks);
            const int my = id++;
            eq.schedule(when, [&, my] {
                log.emplace_back(eq.now(), my);
                if (log.size() < 2000) {
                    const Tick d = next() % 70'000; // some overflow
                    const int child = id++;
                    eq.scheduleAfter(d, [&, child] {
                        log.emplace_back(eq.now(), child);
                    });
                }
            });
        }
        eq.run();
        return log;
    };
    EventQueue calendar;
    LegacyEventQueue legacy;
    const auto a = drive(calendar);
    const auto b = drive(legacy);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b);
}

/**
 * One self-rescheduling chain of the speedup test. Copies of this
 * struct are the scheduled callbacks; the xorshift state makes stride
 * sequences deterministic per chain yet varied across events. Its 40
 * bytes of state match the simulator's lambdas (this + a few words),
 * which exceed std::function's inline buffer, so the seed kernel pays
 * a heap allocation per schedule plus an Entry copy per step.
 */
template <typename Q>
struct ChainEvent
{
    Q *eq;
    std::uint64_t *executed;
    std::uint64_t target;
    Tick maxStride;
    Tick farStride; ///< 0 = never leave the near window
    std::uint32_t rng;

    void
    operator()()
    {
        if (++*executed >= target)
            return;
        rng ^= rng << 13;
        rng ^= rng >> 17;
        rng ^= rng << 5;
        Tick d = 1 + (rng % maxStride);
        if (farStride != 0 && rng % 100 < 5)
            d = farStride + rng % 1024;
        eq->scheduleAfter(d, *this);
    }
};

/** Events per host second of 128 chains through a fresh kernel. */
template <typename Q>
double
chainEventsPerSec(Tick maxStride, Tick farStride)
{
    constexpr std::uint64_t kEvents = 2'000'000;
    constexpr unsigned kChains = 128;
    Q eq;
    std::uint64_t executed = 0;
    for (unsigned i = 0; i < kChains; ++i) {
        eq.schedule(i, ChainEvent<Q>{&eq, &executed, kEvents, maxStride,
                                     farStride, 0x9e3779b9u + i});
    }
    const auto t0 = std::chrono::steady_clock::now();
    eq.run();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return secs > 0 ? static_cast<double>(executed) / secs : 0.0;
}

TEST(EventQueue, CalendarKernelIsTwiceAsFastAsSeedKernel)
{
#ifndef NDEBUG
    GTEST_SKIP() << "the speedup bound holds for optimized (NDEBUG) "
                    "builds only";
#else
    // The simulator's event mix: near = cache/DRAM-scale strides inside
    // the calendar window; spread = strides up to the full window (the
    // occupancy-bitmap skip); mixed = 5% flash-scale far events that
    // overflow to the heap and migrate back.
    struct Scenario
    {
        const char *name;
        Tick maxStride;
        Tick farStride;
    };
    const Scenario scenarios[] = {
        {"near", 256, 0},
        {"spread", EventQueue::kWindowTicks, 0},
        {"mixed", 2048, 100'000}};
    // Best of interleaved rounds: host-speed drift hits both kernels
    // alike, and the ratio is independent of the host's speed.
    constexpr int kRounds = 5;
    double log_sum = 0;
    for (const Scenario &sc : scenarios) {
        double calendar = 0, legacy = 0;
        for (int round = 0; round < kRounds; ++round) {
            calendar = std::max(calendar, chainEventsPerSec<EventQueue>(
                                              sc.maxStride, sc.farStride));
            legacy = std::max(legacy,
                              chainEventsPerSec<LegacyEventQueue>(
                                  sc.maxStride, sc.farStride));
        }
        ASSERT_GT(legacy, 0.0) << sc.name;
        const double speedup = calendar / legacy;
        std::printf("%-8s calendar %12.0f  seed %12.0f events/s"
                    "  %.2fx\n",
                    sc.name, calendar, legacy, speedup);
        EXPECT_GE(speedup, 2.0)
            << sc.name << ": calendar " << calendar << " vs seed "
            << legacy << " events/s";
        log_sum += std::log(speedup);
    }
    // 0.75 x the 3.81x geomean measured when the calendar kernel landed:
    // a 25% regression fails even while every scenario clears 2x.
    const double geomean = std::exp(log_sum / std::size(scenarios));
    std::printf("geomean  %.2fx\n", geomean);
    EXPECT_GE(geomean, 2.86);
#endif
}

TEST(EventQueue, WindowAndChunkKnobsNeverChangeExecutionOrder)
{
    // The calendar window and slab chunk size are wall-clock tuning
    // knobs (SimConfig::kernel); any window must produce the exact
    // event order of the default, including heavy overflow traffic
    // when the window is tiny.
    auto drive = [](auto &eq) {
        std::vector<std::pair<Tick, int>> log;
        std::uint32_t rng = 0x5eedf00du;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            return rng;
        };
        int id = 0;
        for (int i = 0; i < 512; ++i) {
            const Tick when = next() % (3 * EventQueue::kWindowTicks);
            const int my = id++;
            eq.schedule(when, [&, my] {
                log.emplace_back(eq.now(), my);
                if (log.size() < 2000) {
                    const Tick d = next() % 70'000;
                    const int child = id++;
                    eq.scheduleAfter(d, [&, child] {
                        log.emplace_back(eq.now(), child);
                    });
                }
            });
        }
        eq.run();
        return log;
    };
    EventQueue defaults;
    const auto reference = drive(defaults);
    for (const std::size_t window : {64u, 1024u, 65536u}) {
        EventQueue tuned(window, 16);
        EXPECT_EQ(drive(tuned), reference) << "window " << window;
    }
}

TEST(EventQueue, RejectsInvalidKernelKnobs)
{
    EXPECT_THROW(EventQueue(0), std::invalid_argument);
    EXPECT_THROW(EventQueue(32), std::invalid_argument);   // < 64
    EXPECT_THROW(EventQueue(1000), std::invalid_argument); // not 2^n
    EXPECT_THROW(EventQueue(8192, 0), std::invalid_argument);
    EXPECT_NO_THROW(EventQueue(64, 1));
}

} // namespace
} // namespace skybyte
