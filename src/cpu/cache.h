/**
 * @file
 * Functional set-associative write-back cache with true-LRU replacement,
 * used for the per-core L1D/L2 and the shared L3 (Table II). Timing is
 * applied by the core model; this class only tracks tags, dirty bits
 * and the functional line values.
 */

#ifndef SKYBYTE_CPU_CACHE_H
#define SKYBYTE_CPU_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace skybyte {

/** Outcome of a cache access or fill. */
struct CacheResult
{
    bool hit = false;
    /** A dirty victim was evicted and must be written to the next level. */
    bool writeback = false;
    Addr victimAddr = 0;
    /** Functional payload of the dirty victim. */
    LineValue victimValue = 0;
};

/**
 * Set-associative cache of 64 B lines.
 */
class SetAssocCache
{
  public:
    /**
     * @param size_bytes capacity
     * @param ways associativity (clamped so at least one set exists)
     */
    SetAssocCache(std::uint64_t size_bytes, std::uint32_t ways);

    /** Build from a CacheConfig. */
    explicit SetAssocCache(const CacheConfig &cfg)
        : SetAssocCache(cfg.sizeBytes, cfg.ways)
    {}

    /**
     * Look up @p line_addr; on hit, update LRU and (for writes) the dirty
     * bit and functional value. Does NOT allocate on miss — call fill().
     *
     * @param write_value functional payload stored on a write hit
     * @param read_out    receives the line's payload on a read hit
     */
    bool access(Addr line_addr, bool is_write, LineValue write_value = 0,
                LineValue *read_out = nullptr);

    /** True if the line is present (no LRU update). */
    bool probe(Addr line_addr) const;

    /**
     * Insert @p line_addr, evicting the LRU way if the set is full.
     * @param dirty insert in dirty state (writeback fills)
     * @param value functional payload of the inserted line
     * @return eviction information
     */
    CacheResult fill(Addr line_addr, bool dirty, LineValue value = 0);

    /** Remove a line if present; @return true and its dirty state. */
    bool invalidate(Addr line_addr, bool *was_dirty = nullptr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }

    /** Drop all contents (used on reset between runs). */
    void clear();

  private:
    /** Tag of an invalid way; no line address maps to it (a tag is the
     *  line address / 64, so its top six bits are always clear). */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::uint32_t setOf(Addr line_addr) const;
    /** First array index of @p line_addr's set. */
    std::size_t
    setBase(Addr line_addr) const
    {
        return static_cast<std::size_t>(setOf(line_addr)) * ways_;
    }
    /** Way of @p tag in the set at @p base, or ways_ if absent. */
    std::uint32_t findWay(std::size_t base, Addr tag) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    // Struct-of-arrays, numSets_ x ways_ row-major each: a lookup scans
    // only the tags (8 B a way), the other arrays are touched on a hit
    // or a fill. Invariant: a way is invalid iff its tag is
    // kInvalidTag, and an invalid way is clean and has stamp 0 while
    // every valid way has a stamp >= 1, so the min-stamp victim scan
    // picks the first invalid way if there is one and true LRU
    // otherwise.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<LineValue> values_;
    std::vector<unsigned char> dirty_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/**
 * Miss-status holding register file with same-line coalescing: tracks the
 * set of distinct in-flight line addresses and enforces the entry budget.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t entries) : capacity_(entries) {}

    bool full() const { return inFlight_.size() >= capacity_; }

    /** True if @p line_addr already has an entry (coalesce target). */
    bool contains(Addr line_addr) const;

    /**
     * Allocate an entry for @p line_addr.
     * @retval false if full or already present.
     */
    bool allocate(Addr line_addr);

    /** Release the entry for @p line_addr (idempotent). */
    void release(Addr line_addr);

    std::size_t occupancy() const { return inFlight_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    void clear() { inFlight_.clear(); }

  private:
    std::uint32_t capacity_;
    /** Membership-only set of in-flight lines (never iterated). */
    FlatMap<unsigned char> inFlight_;
};

} // namespace skybyte

#endif // SKYBYTE_CPU_CACHE_H
