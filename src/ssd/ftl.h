/**
 * @file
 * Page-mapped flash translation layer with out-of-place updates and
 * greedy (min-valid-cost) garbage collection, plus the functional page
 * store, which stores only pages that have held a nonzero line. Logical
 * pages stripe across channels; each channel appends into an open block
 * and GCs locally, with GC operations sharing the channel FIFO so they
 * delay host requests (§II-C).
 */

#ifndef SKYBYTE_SSD_FTL_H
#define SKYBYTE_SSD_FTL_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "ssd/flash.h"

namespace skybyte {

/** FTL-level statistics. */
struct FtlStats
{
    std::uint64_t hostReads = 0;      ///< data-path page reads
    std::uint64_t hostPrograms = 0;   ///< data-path page programs
    std::uint64_t gcPageMoves = 0;    ///< valid pages relocated by GC
    std::uint64_t gcErases = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t mappingUpdates = 0;
};

/**
 * The flash translation layer.
 */
class Ftl
{
  public:
    Ftl(const FlashConfig &cfg, EventQueue &eq, std::uint64_t seed);

    /**
     * Host LPNs must stay below this bound, where the page-slot
     * sentinels start: readPage, writePage, pageData and mutablePageData
     * throw std::logic_error otherwise.
     */
    static constexpr std::uint64_t kHostLpnLimit = 0xFFFF'FFFEULL;

    /**
     * Read logical page @p lpn at time @p when; @p cb fires with the
     * completion time. The page must be mapped (reads of never-written
     * pages are mapped on demand to a fresh location).
     */
    void readPage(std::uint64_t lpn, Tick when, FlashDoneFn cb);

    /**
     * Program logical page @p lpn (out-of-place) at @p when with new
     * contents @p data; @p cb fires at completion. May trigger GC.
     * An all-zero @p data allocates no page storage unless the page
     * already has some.
     */
    void writePage(std::uint64_t lpn, Tick when, const PageData &data,
                   FlashDoneFn cb);

    /** Algorithm 1 delay estimate for a read of @p lpn arriving now. */
    Tick estimateReadDelay(std::uint64_t lpn, Tick now) const;

    /** Is @p lpn's channel currently running GC? */
    bool gcActiveFor(std::uint64_t lpn) const;

    /** Channel object serving @p lpn (for tests). */
    const FlashChannel &channelOf(std::uint64_t lpn) const;

    /**
     * Fill the device so GC will trigger (§VI-A): maps @p footprint_pages
     * host LPNs, re-writes @p rewrite_fraction of them to create dead
     * pages, and pads remaining blocks with anonymous cold data until
     * each channel's free-block count sits just above the GC threshold.
     */
    void precondition(std::uint64_t footprint_pages,
                      double rewrite_fraction = 0.3);

    /**
     * Functional page contents. A page that never held a nonzero line
     * has no storage and reads as one shared zero page, so reading
     * allocates nothing.
     */
    const PageData &pageData(std::uint64_t lpn) const;

    /**
     * Writable page contents, allocated zero-filled on first use, for
     * the write paths only. The reference stays valid for the Ftl's
     * lifetime: pages are never moved or freed.
     */
    PageData &mutablePageData(std::uint64_t lpn);

    /** Functional single-line peek. */
    LineValue peekLine(Addr line_addr) const;

    /** Pages with allocated payload storage (tests). */
    std::uint64_t storedPages() const;

    const FtlStats &stats() const { return stats_; }
    const FlashConfig &config() const { return cfg_; }

    /** Free blocks on channel @p ch (tests). */
    std::uint32_t freeBlocks(std::uint32_t ch) const;

    /** Total programs (host + GC) across all channels. */
    std::uint64_t totalPrograms() const;

    /** Total reads (host + GC) across all channels. */
    std::uint64_t totalReads() const;

    /**
     * Write amplification factor: flash pages programmed per host page
     * written (data path + GC relocation; >= 1 once GC has run).
     */
    double writeAmplification() const;

    /** Lifetime P/E wear across every block of the device. */
    struct WearSummary
    {
        std::uint32_t minErase = 0;
        std::uint32_t maxErase = 0;
        double meanErase = 0;
        /** max - min: the spread wear leveling tries to bound. */
        std::uint32_t spread() const { return maxErase - minErase; }
    };
    WearSummary wearSummary() const;

  private:
    struct Block
    {
        std::uint32_t validCount = 0;
        std::uint32_t writeCursor = 0; ///< next free page slot
        std::uint32_t eraseCount = 0;  ///< lifetime wear (P/E cycles)
        bool isFree = true;
        bool isOpen = false;
    };

    struct Channel
    {
        std::unique_ptr<FlashChannel> flash;
        std::vector<Block> blocks;
        /**
         * Host LPN stored in each page slot (block b's slot s at
         * b * pagesPerBlock + s), kColdSlot for a cold page, kDeadSlot
         * when dead/empty.
         */
        std::vector<std::uint32_t> slotLpn;
        std::vector<std::uint32_t> freeList;
        std::uint32_t openBlock = 0;
        bool gcRunning = false;
    };

    /**
     * Slot of a valid cold preconditioning page. Cold pages are
     * anonymous: they have no LPN and no mapping entry, and GC moves
     * them by slot.
     */
    static constexpr std::uint32_t kColdSlot = kHostLpnLimit;
    /** Slot of a dead or never-written page. */
    static constexpr std::uint32_t kDeadSlot = ~0U;
    /** Mapping entry of an unmapped LPN. */
    static constexpr std::uint32_t kUnmapped = ~0U;

    std::uint32_t channelIdx(std::uint64_t lpn) const
    {
        return static_cast<std::uint32_t>(lpn % cfg_.channels);
    }

    /**
     * Map/remap @p slot (a host LPN or kColdSlot) to a fresh page on
     * @p ch (no timing).
     */
    void mapToOpenBlock(Channel &ch, std::uint32_t slot);

    /**
     * Claim the next @p n slots of @p ch's open block, which must have
     * room for them, as valid pages; returns the first one's
     * channel-local page index. The caller fills the slots.
     */
    std::uint32_t claimSlots(Channel &ch, std::uint32_t n);

    /**
     * @p lpn's mapping entry. A host LPN past hostMap_ grows it (LPNs
     * mapped lazily past the preconditioned footprint).
     */
    std::uint32_t &mappingEntry(std::uint64_t lpn);

    /** Invalidate host LPN @p lpn's current mapping if any. */
    void invalidate(std::uint64_t lpn);

    /** Ensure the channel has an open block with space. */
    void ensureOpenBlock(Channel &ch);

    /** Start GC on @p ch if below the free-block threshold. */
    void maybeStartGc(std::uint32_t ch_idx, Tick when);

    /** Run one GC round (victim selection + moves + erase). */
    void gcRound(std::uint32_t ch_idx, Tick when);

    std::uint32_t gcThresholdBlocks() const;

    const FlashConfig cfg_;
    EventQueue &eq_;
    Rng rng_;
    std::vector<Channel> channels_;
    /**
     * Host LPN -> channel-local page index (block * pagesPerBlock +
     * slot; the channel is implied by the lpn), kUnmapped when
     * unmapped.
     */
    std::vector<std::uint32_t> hostMap_;
    /**
     * Functional page store, indexed by host LPN; null for a page that
     * never held a nonzero line. Pages live on the heap so the
     * references mutablePageData() hands out survive the array growing.
     */
    std::vector<std::unique_ptr<PageData>> data_;
    FtlStats stats_;
};

} // namespace skybyte

#endif // SKYBYTE_SSD_FTL_H
