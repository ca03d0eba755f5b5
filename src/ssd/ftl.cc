#include "ssd/ftl.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace skybyte {

namespace {

/** Throw std::logic_error if @p lpn is not a host LPN. */
void
checkHostLpn(std::uint64_t lpn)
{
    SKYBYTE_CHECK(lpn < Ftl::kHostLpnLimit,
                  "host LPN " + std::to_string(lpn)
                      + " is not below the host LPN limit "
                      + std::to_string(Ftl::kHostLpnLimit));
}

/** What pageData() returns for a page without storage. */
const PageData kZeroPage{};

} // namespace

Ftl::Ftl(const FlashConfig &cfg, EventQueue &eq, std::uint64_t seed)
    : cfg_(cfg), eq_(eq), rng_(seed)
{
    SKYBYTE_CHECK(cfg_.pagesPerChannel() < kUnmapped,
                  std::to_string(cfg_.pagesPerChannel())
                      + " pages per channel overflow a mapping entry");
    channels_.resize(cfg_.channels);
    const auto blocks = static_cast<std::uint32_t>(cfg_.blocksPerChannel());
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        Channel &ch = channels_[c];
        ch.flash = std::make_unique<FlashChannel>(static_cast<int>(c),
                                                  cfg_, eq_);
        ch.blocks.resize(blocks);
        ch.slotLpn.assign(cfg_.pagesPerChannel(), kDeadSlot);
        // All blocks initially free except the first, which opens.
        for (std::uint32_t b = blocks; b > 1; --b)
            ch.freeList.push_back(b - 1);
        ch.blocks[0].isFree = false;
        ch.blocks[0].isOpen = true;
        ch.openBlock = 0;
    }
}

std::uint32_t
Ftl::gcThresholdBlocks() const
{
    return static_cast<std::uint32_t>(
        static_cast<double>(cfg_.blocksPerChannel())
        * cfg_.gcFreeBlockThreshold);
}

std::uint32_t
Ftl::freeBlocks(std::uint32_t ch) const
{
    return static_cast<std::uint32_t>(channels_[ch].freeList.size());
}

std::uint64_t
Ftl::totalPrograms() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch.flash->completedPrograms();
    return n;
}

std::uint64_t
Ftl::totalReads() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch.flash->completedReads();
    return n;
}

const FlashChannel &
Ftl::channelOf(std::uint64_t lpn) const
{
    return *channels_[channelIdx(lpn)].flash;
}

void
Ftl::ensureOpenBlock(Channel &ch)
{
    Block &open = ch.blocks[ch.openBlock];
    if (open.isOpen && open.writeCursor < cfg_.pagesPerBlock)
        return;
    open.isOpen = false;
    SKYBYTE_CHECK(!ch.freeList.empty(),
                  "flash channel " + std::to_string(ch.flash->id())
                      + " out of free blocks");
    std::uint32_t next;
    if (cfg_.wearAwareAllocation) {
        // Dynamic wear leveling: open the least-erased free block so
        // hot rewrite streams do not keep cycling the same blocks.
        auto coldest = ch.freeList.begin();
        for (auto it = ch.freeList.begin(); it != ch.freeList.end();
             ++it) {
            if (ch.blocks[*it].eraseCount
                < ch.blocks[*coldest].eraseCount) {
                coldest = it;
            }
        }
        next = *coldest;
        ch.freeList.erase(coldest);
    } else {
        next = ch.freeList.back();
        ch.freeList.pop_back();
    }
    Block &blk = ch.blocks[next];
    blk.isFree = false;
    blk.isOpen = true;
    blk.writeCursor = 0;
    blk.validCount = 0;
    ch.openBlock = next;
}

std::uint32_t &
Ftl::mappingEntry(std::uint64_t lpn)
{
    if (lpn >= hostMap_.size())
        hostMap_.resize(lpn + 1, kUnmapped);
    return hostMap_[lpn];
}

void
Ftl::invalidate(std::uint64_t lpn)
{
    std::uint32_t &entry = mappingEntry(lpn);
    if (entry == kUnmapped)
        return;
    Channel &ch = channels_[channelIdx(lpn)];
    if (ch.slotLpn[entry] == lpn) {
        ch.slotLpn[entry] = kDeadSlot;
        Block &blk = ch.blocks[entry / cfg_.pagesPerBlock];
        if (blk.validCount > 0)
            blk.validCount--;
    }
    entry = kUnmapped;
}

std::uint32_t
Ftl::claimSlots(Channel &ch, std::uint32_t n)
{
    Block &blk = ch.blocks[ch.openBlock];
    const std::uint32_t first =
        ch.openBlock * cfg_.pagesPerBlock + blk.writeCursor;
    blk.writeCursor += n;
    blk.validCount += n;
    stats_.mappingUpdates += n;
    return first;
}

void
Ftl::mapToOpenBlock(Channel &ch, std::uint32_t slot)
{
    ensureOpenBlock(ch);
    const std::uint32_t page = claimSlots(ch, 1);
    ch.slotLpn[page] = slot;
    if (slot != kColdSlot)
        mappingEntry(slot) = page;
}

void
Ftl::readPage(std::uint64_t lpn, Tick when, FlashDoneFn cb)
{
    checkHostLpn(lpn);
    Channel &ch = channels_[channelIdx(lpn)];
    if (mappingEntry(lpn) == kUnmapped) {
        // First touch of a never-written page: map it in place
        // (the paper's simulator warms all data into the SSD first).
        mapToOpenBlock(ch, static_cast<std::uint32_t>(lpn));
    }
    stats_.hostReads++;
    ch.flash->enqueue(FlashOpKind::Read, when, std::move(cb));
}

void
Ftl::writePage(std::uint64_t lpn, Tick when, const PageData &data,
               FlashDoneFn cb)
{
    checkHostLpn(lpn);
    Channel &ch = channels_[channelIdx(lpn)];
    invalidate(lpn);
    mapToOpenBlock(ch, static_cast<std::uint32_t>(lpn));
    const bool stored = lpn < data_.size() && data_[lpn] != nullptr;
    if (stored
        || std::any_of(data.begin(), data.end(),
                       [](LineValue v) { return v != 0; })) {
        mutablePageData(lpn) = data;
    }
    stats_.hostPrograms++;
    const std::uint32_t ch_idx = channelIdx(lpn);
    ch.flash->enqueue(FlashOpKind::Program, when,
                      [this, ch_idx, cb = std::move(cb)](Tick done) mutable {
                          if (cb)
                              cb(done);
                          maybeStartGc(ch_idx, done);
                      });
    // Also evaluate GC eagerly so back-to-back writes cannot outrun it.
    maybeStartGc(ch_idx, when);
}

Tick
Ftl::estimateReadDelay(std::uint64_t lpn, Tick now) const
{
    return channels_[channelIdx(lpn)].flash->estimateReadDelay(now);
}

bool
Ftl::gcActiveFor(std::uint64_t lpn) const
{
    return channels_[channelIdx(lpn)].flash->gcActive();
}

void
Ftl::maybeStartGc(std::uint32_t ch_idx, Tick when)
{
    Channel &ch = channels_[ch_idx];
    if (ch.gcRunning)
        return;
    if (ch.freeList.size() >= gcThresholdBlocks())
        return;
    ch.gcRunning = true;
    ch.flash->setGcActive(true);
    stats_.gcRuns++;
    gcRound(ch_idx, when);
}

void
Ftl::gcRound(std::uint32_t ch_idx, Tick when)
{
    Channel &ch = channels_[ch_idx];

    // Greedy victim: fewest valid pages among closed, non-free blocks.
    std::uint32_t victim = ~0u;
    std::uint32_t best_valid = ~0u;
    for (std::uint32_t b = 0; b < ch.blocks.size(); ++b) {
        const Block &blk = ch.blocks[b];
        if (blk.isFree || blk.isOpen || blk.writeCursor == 0)
            continue;
        if (blk.validCount < best_valid) {
            best_valid = blk.validCount;
            victim = b;
        }
    }
    // Nothing reclaimable (no victim, or only fully-valid blocks whose
    // relocation would consume as many pages as it frees): stop rather
    // than churn forever.
    if (victim == ~0u || best_valid >= cfg_.pagesPerBlock) {
        ch.gcRunning = false;
        ch.flash->setGcActive(false);
        return;
    }

    // Relocate valid pages: read + program per page, sharing the FIFO.
    Block &blk = ch.blocks[victim];
    Tick cursor = when;
    const std::uint32_t first = victim * cfg_.pagesPerBlock;
    for (std::uint32_t page = first; page < first + cfg_.pagesPerBlock;
         ++page) {
        const std::uint32_t slot = ch.slotLpn[page];
        if (slot == kDeadSlot)
            continue;
        ch.flash->enqueue(FlashOpKind::Read, cursor, nullptr);
        // Remap before enqueueing the program so the open block advances.
        ch.slotLpn[page] = kDeadSlot;
        blk.validCount--;
        mapToOpenBlock(ch, slot);
        ch.flash->enqueue(FlashOpKind::Program, cursor, nullptr);
        stats_.gcPageMoves++;
    }

    ch.flash->enqueue(FlashOpKind::Erase, cursor,
                      [this, ch_idx, victim](Tick done) {
        Channel &chn = channels_[ch_idx];
        Block &vb = chn.blocks[victim];
        vb.isFree = true;
        vb.isOpen = false;
        vb.validCount = 0;
        vb.writeCursor = 0;
        vb.eraseCount++;
        const auto slots =
            chn.slotLpn.begin() + victim * cfg_.pagesPerBlock;
        std::fill(slots, slots + cfg_.pagesPerBlock, kDeadSlot);
        chn.freeList.push_back(victim);
        stats_.gcErases++;
        if (chn.freeList.size()
            < static_cast<std::size_t>(
                  static_cast<double>(cfg_.blocksPerChannel())
                  * cfg_.gcRestoreThreshold)) {
            gcRound(ch_idx, done);
        } else {
            chn.gcRunning = false;
            chn.flash->setGcActive(false);
        }
    });
}

void
Ftl::precondition(std::uint64_t footprint_pages, double rewrite_fraction)
{
    SKYBYTE_CHECK(footprint_pages <= kHostLpnLimit,
                  "footprint exceeds the host LPN limit");
    if (footprint_pages > hostMap_.size())
        hostMap_.resize(footprint_pages, kUnmapped);
    if (footprint_pages > data_.size())
        data_.resize(footprint_pages);
    const std::uint32_t ppb = cfg_.pagesPerBlock;

    // 1. Map every host LPN once (no timing; boot-time state). Channels
    //    are independent, so each takes its LPNs c, c + channels, ... in
    //    runs that fill one open block at a time.
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        Channel &ch = channels_[c];
        for (std::uint64_t lpn = c; lpn < footprint_pages;) {
            ensureOpenBlock(ch);
            const std::uint64_t left =
                (footprint_pages - lpn + cfg_.channels - 1) / cfg_.channels;
            const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                left, ppb - ch.blocks[ch.openBlock].writeCursor));
            const std::uint32_t first = claimSlots(ch, n);
            for (std::uint32_t page = first; page < first + n;
                 ++page, lpn += cfg_.channels) {
                ch.slotLpn[page] = static_cast<std::uint32_t>(lpn);
                hostMap_[lpn] = page;
            }
        }
    }

    // 2. Rewrite a fraction to scatter dead pages across blocks.
    const auto rewrites = static_cast<std::uint64_t>(
        static_cast<double>(footprint_pages) * rewrite_fraction);
    for (std::uint64_t i = 0; i < rewrites; ++i) {
        const std::uint64_t lpn = rng_.below(footprint_pages);
        invalidate(lpn);
        mapToOpenBlock(channels_[channelIdx(lpn)],
                       static_cast<std::uint32_t>(lpn));
    }

    // 3. Pad each channel with cold data until free blocks sit just above
    //    the GC threshold, so host writes soon push it into GC. A
    //    quarter of the cold pages are dead (over-written data), leaving
    //    GC victims with reclaimable space — a steady-state device, not
    //    a pathological 100%-valid one. The free list is checked before
    //    each cold page, so the block that brings it down to the target
    //    takes one page. Mapping cold pages draws nothing from rng_, so
    //    deciding each run's dead pages as it is mapped keeps the draws
    //    in mapping order.
    const std::uint32_t target_free = gcThresholdBlocks() + 2;
    for (Channel &ch : channels_) {
        while (ch.freeList.size() > target_free) {
            ensureOpenBlock(ch);
            const std::uint32_t n =
                ch.freeList.size() > target_free
                    ? ppb - ch.blocks[ch.openBlock].writeCursor
                    : 1;
            const std::uint32_t first = claimSlots(ch, n);
            Block &blk = ch.blocks[ch.openBlock];
            for (std::uint32_t page = first; page < first + n; ++page) {
                if (rng_.chance(0.25)) {
                    ch.slotLpn[page] = kDeadSlot;
                    blk.validCount--;
                } else {
                    ch.slotLpn[page] = kColdSlot;
                }
            }
        }
    }
}

double
Ftl::writeAmplification() const
{
    if (stats_.hostPrograms == 0)
        return 1.0;
    return static_cast<double>(stats_.hostPrograms + stats_.gcPageMoves)
           / static_cast<double>(stats_.hostPrograms);
}

Ftl::WearSummary
Ftl::wearSummary() const
{
    WearSummary summary;
    std::uint64_t total = 0;
    std::uint64_t count = 0;
    bool first = true;
    for (const Channel &ch : channels_) {
        for (const Block &blk : ch.blocks) {
            if (first) {
                summary.minErase = blk.eraseCount;
                summary.maxErase = blk.eraseCount;
                first = false;
            }
            summary.minErase = std::min(summary.minErase,
                                        blk.eraseCount);
            summary.maxErase = std::max(summary.maxErase,
                                        blk.eraseCount);
            total += blk.eraseCount;
            count++;
        }
    }
    if (count > 0)
        summary.meanErase = static_cast<double>(total)
                            / static_cast<double>(count);
    return summary;
}

const PageData &
Ftl::pageData(std::uint64_t lpn) const
{
    checkHostLpn(lpn);
    if (lpn >= data_.size() || !data_[lpn])
        return kZeroPage;
    return *data_[lpn];
}

PageData &
Ftl::mutablePageData(std::uint64_t lpn)
{
    checkHostLpn(lpn);
    if (lpn >= data_.size())
        data_.resize(lpn + 1);
    auto &slot = data_[lpn];
    if (!slot)
        slot = std::make_unique<PageData>(PageData{});
    return *slot;
}

LineValue
Ftl::peekLine(Addr line_addr) const
{
    return pageData(pageNumber(line_addr))[lineInPage(line_addr)];
}

std::uint64_t
Ftl::storedPages() const
{
    return static_cast<std::uint64_t>(
        std::count_if(data_.begin(), data_.end(),
                      [](const auto &page) { return page != nullptr; }));
}

} // namespace skybyte
