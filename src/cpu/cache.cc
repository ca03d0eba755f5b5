#include "cpu/cache.h"

#include <algorithm>

namespace skybyte {

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, std::uint32_t ways)
{
    ways_ = std::max<std::uint32_t>(ways, 1);
    std::uint64_t lines = std::max<std::uint64_t>(
        size_bytes / kCachelineBytes, ways_);
    std::uint64_t sets = lines / ways_;
    // Round sets down to a power of two for cheap indexing.
    std::uint32_t pow2 = 1;
    while (static_cast<std::uint64_t>(pow2) * 2 <= sets)
        pow2 *= 2;
    numSets_ = pow2;
    const std::size_t n = static_cast<std::size_t>(numSets_) * ways_;
    tags_.assign(n, kInvalidTag);
    stamps_.assign(n, 0);
    values_.assign(n, 0);
    dirty_.assign(n, 0);
}

std::uint32_t
SetAssocCache::setOf(Addr line_addr) const
{
    // Mix upper bits so large-stride patterns spread across sets.
    std::uint64_t x = line_addr / kCachelineBytes;
    x ^= x >> 17;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x & (numSets_ - 1));
}

std::uint32_t
SetAssocCache::findWay(std::size_t base, Addr tag) const
{
    const Addr *set = tags_.data() + base;
    std::uint32_t w = 0;
    while (w < ways_ && set[w] != tag)
        ++w;
    return w;
}

bool
SetAssocCache::access(Addr line_addr, bool is_write, LineValue write_value,
                      LineValue *read_out)
{
    const std::size_t base = setBase(line_addr);
    const std::uint32_t w = findWay(base, line_addr / kCachelineBytes);
    if (w == ways_) {
        misses_++;
        return false;
    }
    const std::size_t i = base + w;
    stamps_[i] = ++lruClock_;
    if (is_write) {
        dirty_[i] = 1;
        values_[i] = write_value;
    } else if (read_out != nullptr) {
        *read_out = values_[i];
    }
    hits_++;
    return true;
}

bool
SetAssocCache::probe(Addr line_addr) const
{
    return findWay(setBase(line_addr), line_addr / kCachelineBytes)
           != ways_;
}

CacheResult
SetAssocCache::fill(Addr line_addr, bool dirty, LineValue value)
{
    CacheResult res;
    const Addr tag = line_addr / kCachelineBytes;
    const std::size_t base = setBase(line_addr);
    const Addr *set_tags = tags_.data() + base;
    const std::uint64_t *set_stamps = stamps_.data() + base;
    // One pass finds a hit or the victim: the first way with the
    // smallest stamp, i.e. the first invalid way, else true LRU.
    std::uint32_t victim = 0;
    std::uint64_t victim_stamp = set_stamps[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set_tags[w] == tag) {
            // Already present (e.g., racing fills after coalescing).
            const std::size_t i = base + w;
            stamps_[i] = ++lruClock_;
            if (dirty) {
                dirty_[i] = 1;
                values_[i] = value;
            }
            res.hit = true;
            return res;
        }
        if (set_stamps[w] < victim_stamp) {
            victim = w;
            victim_stamp = set_stamps[w];
        }
    }
    const std::size_t i = base + victim;
    if (dirty_[i] != 0) {
        res.writeback = true;
        res.victimAddr = tags_[i] * kCachelineBytes;
        res.victimValue = values_[i];
        writebacks_++;
    }
    tags_[i] = tag;
    dirty_[i] = dirty ? 1 : 0;
    stamps_[i] = ++lruClock_;
    values_[i] = value;
    return res;
}

bool
SetAssocCache::invalidate(Addr line_addr, bool *was_dirty)
{
    const std::size_t base = setBase(line_addr);
    const std::uint32_t w = findWay(base, line_addr / kCachelineBytes);
    if (w == ways_)
        return false;
    const std::size_t i = base + w;
    if (was_dirty != nullptr)
        *was_dirty = dirty_[i] != 0;
    tags_[i] = kInvalidTag;
    stamps_[i] = 0;
    dirty_[i] = 0;
    return true;
}

void
SetAssocCache::clear()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(values_.begin(), values_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    lruClock_ = 0;
}

bool
MshrFile::contains(Addr line_addr) const
{
    return inFlight_.contains(line_addr);
}

bool
MshrFile::allocate(Addr line_addr)
{
    if (full() || contains(line_addr))
        return false;
    inFlight_.tryEmplace(line_addr, 1);
    return true;
}

void
MshrFile::release(Addr line_addr)
{
    inFlight_.erase(line_addr);
}

} // namespace skybyte
