/**
 * @file
 * Memory-side functional oracle for a full System run (`check_data=1`).
 *
 * It sits at the MemRouter, the host's single view of memory: every
 * LLC writeback passes it as a write, and every LLC miss as a read.
 * It shadows each line's last written value and checks each Data
 * response. A response must carry
 *  - the line's value when the read was issued, or
 *  - a value written to the line after the read was issued (a
 *    writeback may overtake a miss that is still in flight).
 * A never-written line reads as 0. Any other value throws
 * std::logic_error naming the line. The oracle only observes: a run
 * with it on produces the same SimResult as one with it off.
 */

#ifndef SKYBYTE_SIM_DATA_ORACLE_H
#define SKYBYTE_SIM_DATA_ORACLE_H

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace skybyte {

/** The check_data oracle described above. */
class DataOracle
{
  public:
    /** What finish() needs to know about one issued read. */
    struct Ticket
    {
        Addr line = 0;
        LineValue issued = 0; ///< the line's value at issue
        /** Writes already in the line's in-flight history at issue. */
        std::uint32_t seenWrites = 0;
    };

    /** A write of @p value to @p line reached memory. */
    void onWrite(Addr line, LineValue value);

    /** A read of @p line was issued. Pass the ticket to finish(). */
    Ticket onRead(Addr line);

    /**
     * The read behind @p t completed. With @p data it returned
     * @p value, which must pass the check above; a delay hint (no
     * data) only retires the ticket.
     * @throws std::logic_error naming the line on a bad value.
     */
    void finish(const Ticket &t, bool data, LineValue value);

    /** Data responses checked so far. */
    std::uint64_t checkedReads() const { return checkedReads_; }

    /** Checked responses that carried a nonzero value. */
    std::uint64_t nonzeroReads() const { return nonzeroReads_; }

  private:
    struct Line
    {
        LineValue value = 0;
        std::uint32_t readsInFlight = 0;
        /** Values written while a read was in flight, oldest first. */
        std::vector<LineValue> inFlightWrites;
    };

    FlatMap<Line> lines_;
    std::uint64_t checkedReads_ = 0;
    std::uint64_t nonzeroReads_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_SIM_DATA_ORACLE_H
