/**
 * @file
 * Host page-reclaim victim selection (§III-C: "SkyByte leverages the
 * existing page reclamation policy in Linux to select the page for
 * eviction, finding a relatively 'cold' page tracked by the
 * active/inactive list").
 *
 * This is the two-list second-chance scheme of mm/workingset.c, reduced
 * to what matters for demotion decisions: newly promoted regions enter
 * the active list; a touch on an inactive region reactivates it; a touch
 * on an active region sets its referenced bit lazily. When the active
 * list grows past twice the inactive list, its tail is aged into the
 * inactive list (referenced entries get a second chance instead).
 * Victims are taken from the inactive tail, skipping referenced entries.
 *
 * The exact-LRU alternative the simulator also offers (ReclaimPolicy::
 * LruScan) scans all promoted regions for the smallest last-use stamp;
 * the abl_reclaim sweep compares both.
 */

#ifndef SKYBYTE_CORE_RECLAIM_H
#define SKYBYTE_CORE_RECLAIM_H

#include <cstdint>
#include <list>

#include "common/flat_map.h"
#include "common/types.h"

namespace skybyte {

/** Reclaim bookkeeping statistics. */
struct ReclaimStats
{
    std::uint64_t activations = 0;   ///< inactive -> active promotions
    std::uint64_t deactivations = 0; ///< active -> inactive aging
    std::uint64_t secondChances = 0; ///< referenced entries spared
    std::uint64_t evictions = 0;
};

/**
 * Active/inactive list pair tracking promoted regions by an opaque key
 * (the region's base LPN).
 */
class ActiveInactiveLists
{
  public:
    /** Track a newly promoted region; lands at the active head. */
    void insert(std::uint64_t key, Tick now);

    /** Record a use of @p key (no-op if untracked). */
    void touch(std::uint64_t key, Tick now);

    /** Stop tracking @p key (demoted through another path). */
    void erase(std::uint64_t key);

    /**
     * Pick a demotion victim. Referenced inactive entries get a second
     * chance (reactivated); the scan gives up when every candidate was
     * used within the last @p min_idle ticks, so a hot set larger than
     * the budget does not churn.
     * @retval true @p victim holds the chosen key and was removed
     */
    bool selectVictim(Tick now, Tick min_idle, std::uint64_t &victim);

    bool tracked(std::uint64_t key) const
    {
        return index_.contains(key);
    }
    std::uint64_t size() const { return index_.size(); }
    std::uint64_t activeSize() const { return active_.size(); }
    std::uint64_t inactiveSize() const { return inactive_.size(); }
    const ReclaimStats &stats() const { return stats_; }

  private:
    struct Node
    {
        std::uint64_t key = 0;
        bool referenced = false;
        Tick lastUse = 0;
    };
    using List = std::list<Node>;

    struct Position
    {
        bool inActive = false;
        List::iterator it;
    };

    /** Age the active tail while active > 2x inactive (Linux's ratio). */
    void rebalance();

    List active_;
    List inactive_;
    /** key -> list position (std::list iterators stay valid on moves). */
    FlatMap<Position> index_;
    ReclaimStats stats_;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_RECLAIM_H
