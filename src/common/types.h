/**
 * @file
 * Fundamental types and unit helpers shared by every SkyByte module.
 *
 * The global time base is the Tick: 1 tick = 1/16 ns, so one CPU cycle at
 * the paper's 4 GHz clock is exactly 4 ticks and a 4-wide issue slot is
 * 1 tick. All latencies in the simulator are integral in this base.
 */

#ifndef SKYBYTE_COMMON_TYPES_H
#define SKYBYTE_COMMON_TYPES_H

#include <array>
#include <cstdint>
#include <limits>

namespace skybyte {

/** Simulated time, in units of 1/16 ns. */
using Tick = std::uint64_t;

/** Byte address in the simulated (virtual or device) address space. */
using Addr = std::uint64_t;

/**
 * Monotonic functional value carried by a cacheline. Component tests
 * check it (SSD controller, migration, AstriFlash); a full System run
 * never checks a load (README "Functional payloads").
 */
using LineValue = std::uint64_t;

/** Ticks per nanosecond (16 => integral 4 GHz cycles). */
inline constexpr Tick kTicksPerNs = 16;

/** Ticks per CPU cycle at 4 GHz. */
inline constexpr Tick kTicksPerCycle = 4;

/** Sentinel for "no time" / "not scheduled". */
inline constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

/** Cacheline size used by the CXL.mem interface (64 B). */
inline constexpr std::uint32_t kCachelineBytes = 64;

/** Flash page size (4 KB). */
inline constexpr std::uint32_t kPageBytes = 4096;

/** Cachelines per flash page. */
inline constexpr std::uint32_t kLinesPerPage = kPageBytes / kCachelineBytes;

/** Functional contents of one 4 KB flash page (64 line payloads). */
using PageData = std::array<LineValue, kLinesPerPage>;

/** Convert nanoseconds to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs));
}

/** Convert microseconds to ticks. */
constexpr Tick
usToTicks(double us)
{
    return nsToTicks(us * 1000.0);
}

/** Convert ticks to (fractional) nanoseconds, for reporting. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

/** Convert ticks to microseconds, for reporting. */
constexpr double
ticksToUs(Tick t)
{
    return ticksToNs(t) / 1000.0;
}

/** Cacheline-aligned address of @p a. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(kCachelineBytes - 1);
}

/** Page-aligned address of @p a. */
constexpr Addr
pageAlign(Addr a)
{
    return a & ~static_cast<Addr>(kPageBytes - 1);
}

/** Logical page number of a byte address. */
constexpr std::uint64_t
pageNumber(Addr a)
{
    return a / kPageBytes;
}

/** Index of the cacheline within its page [0, 64). */
constexpr std::uint32_t
lineInPage(Addr a)
{
    return static_cast<std::uint32_t>((a % kPageBytes) / kCachelineBytes);
}

} // namespace skybyte

#endif // SKYBYTE_COMMON_TYPES_H
