/**
 * @file
 * Page-mapped flash translation layer with out-of-place updates and
 * greedy (min-valid-cost) garbage collection, plus the functional page
 * store. Logical pages stripe across channels; each channel appends into
 * an open block and GCs locally, with GC operations sharing the channel
 * FIFO so they delay host requests (§II-C).
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
     * Cold preconditioning data lives at and above this LPN. Host LPNs
     * must stay below it: readPage, writePage and pageData throw
     * std::logic_error otherwise.
     */
    static constexpr std::uint64_t kColdLpnBase = 1ULL << 40;

    /**
     * Read logical page @p lpn at time @p when; @p cb fires with the
     * completion time. The page must be mapped (reads of never-written
     * pages are mapped on demand to a fresh location).
     */
    void readPage(std::uint64_t lpn, Tick when, FlashDoneFn cb);

    /**
     * Program logical page @p lpn (out-of-place) at @p when with new
     * contents @p data; @p cb fires at completion. May trigger GC.
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
     * pages, and pads remaining blocks with cold data until each
     * channel's free-block count sits just above the GC threshold.
     */
    void precondition(std::uint64_t footprint_pages,
                      double rewrite_fraction = 0.3);

    /** Functional page contents (zero-filled on first touch). */
    PageData &pageData(std::uint64_t lpn);

    /** Functional single-line peek. */
    LineValue peekLine(Addr line_addr);

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
         * LPN stored in each page slot (block b's slot s at
         * b * pagesPerBlock + s); kInvalidLpn when dead/empty.
         */
        std::vector<std::uint64_t> slotLpn;
        std::vector<std::uint32_t> freeList;
        std::uint32_t openBlock = 0;
        bool gcRunning = false;
        std::uint64_t coldLpnNext = 0;
    };

    static constexpr std::uint64_t kInvalidLpn = ~0ULL;
    /** Mapping entry of an unmapped LPN. */
    static constexpr std::uint32_t kUnmapped = ~0U;

    std::uint32_t channelIdx(std::uint64_t lpn) const
    {
        return static_cast<std::uint32_t>(lpn % cfg_.channels);
    }

    /** Map/remap @p lpn to a fresh page on its channel (no timing). */
    void mapToOpenBlock(Channel &ch, std::uint64_t lpn);

    /**
     * @p lpn's mapping entry. A host LPN past hostMap_ grows it (LPNs
     * mapped lazily past the preconditioned footprint).
     */
    std::uint32_t &mappingEntry(std::uint64_t lpn);

    /** Invalidate @p lpn's current mapping if any. */
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
     * lpn -> channel-local page index (block * pagesPerBlock + slot;
     * the channel is implied by the lpn), kUnmapped when unmapped. Host
     * LPNs index hostMap_ directly; cold LPNs index coldMap_ at
     * lpn - kColdLpnBase, which is dense because each channel hands
     * them out in kColdLpnBase + c + k * channels order.
     */
    std::vector<std::uint32_t> hostMap_;
    std::vector<std::uint32_t> coldMap_;
    /**
     * Functional page store, indexed by host LPN. unique_ptrs keep the
     * pages that pageData() hands out references to in place when the
     * array grows.
     */
    std::vector<std::unique_ptr<PageData>> data_;
    FtlStats stats_;
};

} // namespace skybyte

#endif // SKYBYTE_SSD_FTL_H
