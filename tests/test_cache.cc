/**
 * @file
 * Unit tests for the set-associative cache and MSHR file: hit/miss, true
 * LRU eviction, dirty writebacks with functional values, invalidation,
 * MSHR capacity/coalescing, and a differential test of the
 * struct-of-arrays cache against the array-of-structs model it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "cpu/cache.h"

namespace skybyte {
namespace {

Addr
line(std::uint64_t i)
{
    return i * kCachelineBytes;
}

TEST(SetAssocCache, MissThenHitAfterFill)
{
    SetAssocCache c(4096, 4);
    EXPECT_FALSE(c.access(line(1), false));
    c.fill(line(1), false);
    EXPECT_TRUE(c.access(line(1), false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // Single-set cache: 4 lines, 4 ways.
    SetAssocCache c(4 * kCachelineBytes, 4);
    ASSERT_EQ(c.numSets(), 1u);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.fill(line(i), false);
    c.access(line(0), false); // refresh 0; line 1 is now LRU
    CacheResult r = c.fill(line(10), false);
    EXPECT_FALSE(r.writeback); // victim was clean
    EXPECT_FALSE(c.probe(line(1)));
    EXPECT_TRUE(c.probe(line(0)));
}

TEST(SetAssocCache, DirtyVictimWritesBackWithValue)
{
    SetAssocCache c(4 * kCachelineBytes, 4);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.fill(line(i), false);
    c.access(line(2), true, 0xbeef);
    c.access(line(0), false);
    c.access(line(1), false);
    c.access(line(3), false);
    // line 2 is LRU and dirty.
    CacheResult r = c.fill(line(20), false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimAddr, line(2));
    EXPECT_EQ(r.victimValue, 0xbeefu);
}

TEST(SetAssocCache, WriteSetsValueReadReturnsIt)
{
    SetAssocCache c(4096, 4);
    c.fill(line(5), true, 111);
    LineValue v = 0;
    EXPECT_TRUE(c.access(line(5), false, 0, &v));
    EXPECT_EQ(v, 111u);
    c.access(line(5), true, 222);
    EXPECT_TRUE(c.access(line(5), false, 0, &v));
    EXPECT_EQ(v, 222u);
}

TEST(SetAssocCache, FillExistingUpgradesDirty)
{
    SetAssocCache c(4096, 4);
    c.fill(line(7), false);
    CacheResult r = c.fill(line(7), true, 9);
    EXPECT_TRUE(r.hit);
    bool was_dirty = false;
    EXPECT_TRUE(c.invalidate(line(7), &was_dirty));
    EXPECT_TRUE(was_dirty);
}

TEST(SetAssocCache, InvalidateRemovesLine)
{
    SetAssocCache c(4096, 4);
    c.fill(line(3), false);
    EXPECT_TRUE(c.invalidate(line(3)));
    EXPECT_FALSE(c.probe(line(3)));
    EXPECT_FALSE(c.invalidate(line(3)));
}

TEST(SetAssocCache, ClearEmptiesCache)
{
    SetAssocCache c(4096, 4);
    for (std::uint64_t i = 0; i < 32; ++i)
        c.fill(line(i), true, i);
    c.clear();
    for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_FALSE(c.probe(line(i)));
}

TEST(SetAssocCache, CapacityHonoured)
{
    // 64 lines; fill 128 distinct lines; at most 64 can remain.
    SetAssocCache c(64 * kCachelineBytes, 8);
    for (std::uint64_t i = 0; i < 128; ++i)
        c.fill(line(i), false);
    int resident = 0;
    for (std::uint64_t i = 0; i < 128; ++i)
        resident += c.probe(line(i)) ? 1 : 0;
    EXPECT_LE(resident, 64);
    EXPECT_GT(resident, 32); // hashing should spread reasonably
}

/**
 * The array-of-structs cache SetAssocCache replaced (valid bit per way,
 * first invalid way else true-LRU victim), kept as a reference model:
 * same geometry, same set hash, same observable results.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size_bytes, std::uint32_t ways)
    {
        ways_ = std::max<std::uint32_t>(ways, 1);
        const std::uint64_t lines = std::max<std::uint64_t>(
            size_bytes / kCachelineBytes, ways_);
        const std::uint64_t sets = lines / ways_;
        std::uint32_t pow2 = 1;
        while (static_cast<std::uint64_t>(pow2) * 2 <= sets)
            pow2 *= 2;
        numSets_ = pow2;
        ways2d_.assign(static_cast<std::size_t>(numSets_) * ways_, Way{});
    }

    bool
    access(Addr line_addr, bool is_write, LineValue write_value,
           LineValue *read_out)
    {
        Way *w = find(line_addr);
        if (w == nullptr) {
            misses_++;
            return false;
        }
        w->lru = ++lruClock_;
        if (is_write) {
            w->dirty = true;
            w->value = write_value;
        } else if (read_out != nullptr) {
            *read_out = w->value;
        }
        hits_++;
        return true;
    }

    bool probe(Addr line_addr) { return find(line_addr) != nullptr; }

    CacheResult
    fill(Addr line_addr, bool dirty, LineValue value)
    {
        CacheResult res;
        if (Way *w = find(line_addr)) {
            w->lru = ++lruClock_;
            if (dirty) {
                w->dirty = true;
                w->value = value;
            }
            res.hit = true;
            return res;
        }
        Way *set = setOf(line_addr);
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (victim == nullptr || set[w].lru < victim->lru)
                victim = &set[w];
        }
        if (victim->valid && victim->dirty) {
            res.writeback = true;
            res.victimAddr = victim->tag * kCachelineBytes;
            res.victimValue = victim->value;
            writebacks_++;
        }
        *victim = Way{line_addr / kCachelineBytes, true, dirty,
                      ++lruClock_, value};
        return res;
    }

    bool
    invalidate(Addr line_addr, bool *was_dirty)
    {
        Way *w = find(line_addr);
        if (w == nullptr)
            return false;
        *was_dirty = w->dirty;
        w->valid = false;
        w->dirty = false;
        return true;
    }

    void
    clear()
    {
        std::fill(ways2d_.begin(), ways2d_.end(), Way{});
        lruClock_ = 0;
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
        LineValue value = 0;
    };

    Way *
    setOf(Addr line_addr)
    {
        std::uint64_t x = line_addr / kCachelineBytes;
        x ^= x >> 17;
        x *= 0x9e3779b97f4a7c15ULL;
        x ^= x >> 29;
        return &ways2d_[static_cast<std::size_t>(x & (numSets_ - 1))
                        * ways_];
    }

    Way *
    find(Addr line_addr)
    {
        Way *set = setOf(line_addr);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line_addr / kCachelineBytes)
                return &set[w];
        }
        return nullptr;
    }

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::vector<Way> ways2d_;
    std::uint64_t lruClock_ = 0;
};

/**
 * Drive SetAssocCache and ReferenceCache with the same seeded mix of
 * read/write accesses, clean/dirty fills, probes, invalidations and
 * periodic clears; every observable result must agree.
 */
void
expectMatchesReference(std::uint32_t sets, std::uint32_t ways,
                       std::uint64_t seed)
{
    const std::uint64_t size = std::uint64_t{sets} * ways * kCachelineBytes;
    SetAssocCache dut(size, ways);
    ReferenceCache ref(size, ways);
    ASSERT_EQ(dut.numSets(), sets);
    ASSERT_EQ(ref.numSets(), sets);
    Rng rng(seed);
    // Three times the capacity in distinct lines keeps every set under
    // conflict pressure, so victims, writebacks and refills all recur.
    const std::uint64_t pool = std::uint64_t{sets} * ways * 3;
    constexpr int kSteps = 20000;
    for (int step = 0; step < kSteps; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const Addr a = line(rng.below(pool));
        const LineValue v = rng.next();
        const std::uint64_t op = rng.below(100);
        if (step % 5000 == 4999) {
            dut.clear();
            ref.clear();
        } else if (op < 35) {
            LineValue got = 0, want = 0;
            const bool hit = ref.access(a, false, 0, &want);
            ASSERT_EQ(dut.access(a, false, 0, &got), hit);
            if (hit) {
                ASSERT_EQ(got, want);
            }
        } else if (op < 50) {
            ASSERT_EQ(dut.access(a, true, v, nullptr),
                      ref.access(a, true, v, nullptr));
        } else if (op < 80) {
            const bool dirty = rng.chance(0.5);
            const CacheResult got = dut.fill(a, dirty, v);
            const CacheResult want = ref.fill(a, dirty, v);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.writeback, want.writeback);
            ASSERT_EQ(got.victimAddr, want.victimAddr);
            ASSERT_EQ(got.victimValue, want.victimValue);
        } else if (op < 88) {
            ASSERT_EQ(dut.probe(a), ref.probe(a));
        } else {
            bool got = false, want = false;
            ASSERT_EQ(dut.invalidate(a, &got), ref.invalidate(a, &want));
            ASSERT_EQ(got, want);
        }
        ASSERT_EQ(dut.hits(), ref.hits_);
        ASSERT_EQ(dut.misses(), ref.misses_);
        ASSERT_EQ(dut.writebacks(), ref.writebacks_);
    }
    // Read back every line of the pool: residency and values agree.
    for (std::uint64_t i = 0; i < pool; ++i) {
        LineValue got = 0, want = 0;
        const bool hit = ref.access(line(i), false, 0, &want);
        ASSERT_EQ(dut.access(line(i), false, 0, &got), hit) << "line " << i;
        if (hit) {
            ASSERT_EQ(got, want) << "line " << i;
        }
    }
}

TEST(SetAssocCache, MatchesReferenceDirectMapped)
{
    expectMatchesReference(8, 1, 1);
}

TEST(SetAssocCache, MatchesReferenceFourWay)
{
    expectMatchesReference(4, 4, 2);
}

TEST(SetAssocCache, MatchesReferenceThirtyTwoWay)
{
    expectMatchesReference(2, 32, 3);
}

TEST(MshrFile, CapacityAndRelease)
{
    MshrFile m(2);
    EXPECT_TRUE(m.allocate(line(1)));
    EXPECT_TRUE(m.allocate(line(2)));
    EXPECT_TRUE(m.full());
    EXPECT_FALSE(m.allocate(line(3)));
    m.release(line(1));
    EXPECT_FALSE(m.full());
    EXPECT_TRUE(m.allocate(line(3)));
}

TEST(MshrFile, NoDuplicateEntries)
{
    MshrFile m(4);
    EXPECT_TRUE(m.allocate(line(1)));
    EXPECT_TRUE(m.contains(line(1)));
    EXPECT_FALSE(m.allocate(line(1))); // coalesce, not allocate
    EXPECT_EQ(m.occupancy(), 1u);
}

TEST(MshrFile, ReleaseIsIdempotent)
{
    MshrFile m(4);
    m.allocate(line(1));
    m.release(line(1));
    m.release(line(1));
    EXPECT_EQ(m.occupancy(), 0u);
}

} // namespace
} // namespace skybyte
