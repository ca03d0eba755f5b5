/**
 * @file
 * Hardened, process-isolated sweep execution.
 *
 * runSweep() (sim/experiment.h) runs every point of a sweep on a
 * thread pool inside one process: fast, but a single crashing, hanging
 * or OOM-killed point destroys the whole multi-hour run and leaves
 * nothing resumable on disk. This executor trades a fork() per point
 * for fault containment:
 *
 *  - each SweepPoint runs in its own child process (points are fully
 *    self-seeded, so a child needs nothing but its LabeledPoint);
 *  - a per-point wall-clock timeout SIGKILLs runaway children;
 *  - failed or timed-out points retry up to `retries` extra attempts
 *    with deterministic seeded exponential backoff + jitter;
 *  - children are scheduled under a concurrency cap (the sweepThreads()
 *    rule, same default as the in-process pool);
 *  - every attempt appends one record to an append-only journal in the
 *    run directory, and every completed point commits its SimResult
 *    JSON via write-temp-then-rename — so after a driver crash,
 *    `resume` re-runs only the points without a committed result;
 *  - a permanently failing point degrades the run to a partial report
 *    (sim/report.h failure manifest) instead of aborting it.
 *
 * Run directory layout:
 *
 *   <run-dir>/journal.jsonl     header line + one JSON line per attempt
 *   <run-dir>/points/<i>.json   committed SimResult of point index i
 *
 * The journal is written with single O_APPEND writes, so a crashed
 * driver leaves at most one truncated trailing line, which readers
 * tolerate. Result files are rename-committed, so their existence is
 * the authoritative "point is complete" predicate on resume.
 *
 * Fault injection (tests only): SKYBYTE_FAULT holds space-separated
 * `<point-id>:<action>` entries evaluated in the child before the
 * simulation starts, where action is one of
 *
 *   crash        die on SIGKILL (a segfault/OOM stand-in)
 *   hang         sleep forever (reaped by the timeout path)
 *   exit=N       _exit(N) without writing a result
 *
 * optionally suffixed `@K` to fire only on attempts <= K — so
 * `smoke/x:crash@1` exercises retry-until-success deterministically,
 * and without `@K` the fault is permanent. The point id is the report
 * id ("row/col"); ids contain ':' but never spaces, hence the
 * separators.
 *
 * A fault-free isolated run produces byte-identical report entries to
 * the in-process runner: the child writes toJson(SimResult) and the
 * driver embeds those bytes verbatim (sweepEntryJsonFromText).
 */

#ifndef SKYBYTE_SIM_RUN_EXECUTOR_H
#define SKYBYTE_SIM_RUN_EXECUTOR_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/sweep.h"

namespace skybyte {

/** Final disposition of one point after all attempts. */
enum class PointStatus { Ok, Failed, Timeout, Skipped };

/** "ok" / "failed" / "timeout" / "skipped" (manifest status names). */
const char *pointStatusName(PointStatus status);

/** One parsed SKYBYTE_FAULT entry. */
struct FaultSpec
{
    std::string pointId;
    enum class Action { Crash, Hang, Exit } action = Action::Crash;
    int exitCode = 0;
    /** Fire on attempts <= maxAttempt; 0 = every attempt. */
    std::uint32_t maxAttempt = 0;
};

/**
 * Parse a space-separated SKYBYTE_FAULT value (see file comment).
 * @throws std::invalid_argument on malformed entries.
 */
std::vector<FaultSpec> parseFaultSpecs(const std::string &text);

/** parseFaultSpecs(getenv("SKYBYTE_FAULT")), empty when unset. */
std::vector<FaultSpec> faultSpecsFromEnv();

/** Knobs of one isolated run. */
struct ExecutorOptions
{
    /** Journal + per-point result directory (required). */
    std::string runDir;
    /** Concurrency cap; <= 0 applies the sweepThreads() rule. */
    int nthreads = 0;
    /** Extra attempts after the first for failed/timed-out points. */
    std::uint32_t retries = 0;
    /** Per-point wall-clock limit; 0 = none. SIGKILL on expiry. */
    std::uint64_t timeoutMs = 0;
    /**
     * Backoff unit: the k-th failure of a point waits
     * base << min(k-1, 6) plus a seeded jitter in [0, base) before its
     * retry. SKYBYTE_BACKOFF_MS overrides the default.
     */
    std::uint64_t backoffBaseMs = 100;
    /** Re-use committed results found in runDir (after a crash). */
    bool resume = false;
};

/**
 * ExecutorOptions with backoffBaseMs from SKYBYTE_BACKOFF_MS.
 * @throws std::invalid_argument unless the variable is unset or a
 *         plain non-negative decimal integer.
 */
ExecutorOptions executorOptionsFromEnv();

/** What happened to one point. */
struct PointOutcome
{
    std::size_t index = 0;
    std::string id;
    PointStatus status = PointStatus::Skipped;
    /** Attempts across all driver invocations (journal-continued). */
    std::uint32_t attempts = 0;
    /** Wall-clock of the last attempt (0 for resumed results). */
    std::uint64_t durationMs = 0;
    /** Exit detail of the last attempt ("signal 9", "exit 7", ...). */
    std::string detail;
    /** Verbatim toJson(SimResult) text when status == Ok. */
    std::string resultJson;
    /** Result was recovered from the run dir, not re-run. */
    bool resumedFromDisk = false;
    /** The (successful) result reports the in-sim safety-limit stop. */
    bool simTimedOut = false;
};

/** All outcomes of one isolated (possibly resumed) shard run. */
struct IsolatedExecution
{
    /** Positionally aligned with the input points. */
    std::vector<PointOutcome> outcomes;

    std::size_t countWith(PointStatus status) const;
    /** True when every point completed ok. */
    bool complete() const;
    /** True when any successful result hit the in-sim safety limit. */
    bool anySimTimeout() const;
};

/** Run-dir state errors (journal mismatch, clobber attempt, ...). */
class RunDirError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** First line of the journal: what run this directory belongs to. */
struct JournalHeader
{
    std::string sweep;
    std::size_t totalPoints = 0;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
};

/** One attempt record of the journal. */
struct JournalRecord
{
    std::size_t index = 0;
    std::string id;
    std::uint32_t attempt = 0;
    std::string status; ///< "ok" | "failed" | "timeout"
    std::uint64_t durationMs = 0;
    std::string detail;
};

/**
 * Read a run-dir journal. A truncated trailing line (driver killed
 * mid-append) is silently dropped; corruption anywhere else throws.
 * @return false when the journal file does not exist
 * @throws RunDirError on a malformed header or mid-file corruption
 */
bool readJournal(const std::string &path, JournalHeader &header,
                 std::vector<JournalRecord> &records);

/** <run-dir>/journal.jsonl */
std::string journalPath(const std::string &runDir);
/** <run-dir>/points/<index>.json */
std::string pointResultPath(const std::string &runDir,
                            std::size_t index);

/**
 * Deterministic retry delay after the @p failedAttempt-th failure
 * (1-based) of point @p index: exponential in the attempt, jittered by
 * a splitmix64 stream over (seed, index, attempt).
 */
std::uint64_t backoffDelayMs(std::uint64_t baseMs,
                             std::uint32_t failedAttempt,
                             std::uint64_t seed, std::size_t index);

/**
 * Run @p points (one shard of @p sweepName, expanded to @p totalPoints
 * overall) under process isolation. Never throws for point failures —
 * those land in the outcomes; throws RunDirError for run-dir state
 * problems and std::runtime_error for driver-level I/O failures.
 */
IsolatedExecution runSweepIsolated(const std::string &sweepName,
                                   std::size_t totalPoints,
                                   const ShardSpec &shard,
                                   const std::vector<LabeledPoint> &points,
                                   const ExecutorOptions &opt);

/**
 * Assemble the (possibly partial) SweepReport of an isolated run:
 * completed points become verbatim entries, everything else goes to
 * the failure manifest. When the run is complete the report is
 * byte-identical to the in-process runner's.
 */
SweepReport buildIsolatedReport(const std::string &sweepName,
                                std::size_t totalPoints,
                                const ShardSpec &shard,
                                const IsolatedExecution &exec);

} // namespace skybyte

#endif // SKYBYTE_SIM_RUN_EXECUTOR_H
