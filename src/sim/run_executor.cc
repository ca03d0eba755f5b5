#include "sim/run_executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <sstream>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "common/flat_map.h"
#include "common/fs.h"
#include "common/subprocess.h"

namespace skybyte {

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
    case PointStatus::Ok:
        return "ok";
    case PointStatus::Failed:
        return "failed";
    case PointStatus::Timeout:
        return "timeout";
    case PointStatus::Skipped:
        return "skipped";
    }
    return "?";
}

// ------------------------------------------------------------- faults

std::vector<FaultSpec>
parseFaultSpecs(const std::string &text)
{
    std::vector<FaultSpec> faults;
    std::istringstream in(text);
    std::string entry;
    while (in >> entry) {
        // Point ids contain ':' (workload specs), so the action is
        // everything after the LAST ':'.
        const auto colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0
            || colon + 1 >= entry.size()) {
            throw std::invalid_argument(
                "SKYBYTE_FAULT entry needs <point-id>:<action>, got: "
                + entry);
        }
        FaultSpec fault;
        fault.pointId = entry.substr(0, colon);
        std::string action = entry.substr(colon + 1);
        const auto at = action.rfind('@');
        if (at != std::string::npos) {
            const std::string count = action.substr(at + 1);
            char *end = nullptr;
            const unsigned long v = std::strtoul(count.c_str(), &end, 10);
            if (count.empty() || *end != '\0' || v == 0) {
                throw std::invalid_argument(
                    "SKYBYTE_FAULT attempt bound must be a positive "
                    "integer, got: " + entry);
            }
            fault.maxAttempt = static_cast<std::uint32_t>(v);
            action.resize(at);
        }
        if (action == "crash") {
            fault.action = FaultSpec::Action::Crash;
        } else if (action == "hang") {
            fault.action = FaultSpec::Action::Hang;
        } else if (action.rfind("exit=", 0) == 0) {
            const std::string code = action.substr(5);
            char *end = nullptr;
            const long v = std::strtol(code.c_str(), &end, 10);
            if (code.empty() || *end != '\0' || v < 0 || v > 255) {
                throw std::invalid_argument(
                    "SKYBYTE_FAULT exit code must be in [0, 255], "
                    "got: " + entry);
            }
            fault.action = FaultSpec::Action::Exit;
            fault.exitCode = static_cast<int>(v);
        } else {
            throw std::invalid_argument(
                "SKYBYTE_FAULT action must be crash|hang|exit=N, "
                "got: " + entry);
        }
        faults.push_back(std::move(fault));
    }
    return faults;
}

std::vector<FaultSpec>
faultSpecsFromEnv()
{
    const char *text = std::getenv("SKYBYTE_FAULT");
    if (text == nullptr || *text == '\0')
        return {};
    return parseFaultSpecs(text);
}

namespace {

/** In the child, before the simulation: act out a matching fault. */
void
applyFault(const std::vector<FaultSpec> &faults, const std::string &id,
           std::uint32_t attempt)
{
    for (const FaultSpec &fault : faults) {
        if (fault.pointId != id)
            continue;
        if (fault.maxAttempt != 0 && attempt > fault.maxAttempt)
            continue;
        switch (fault.action) {
        case FaultSpec::Action::Crash:
            // SIGKILL, not SIGSEGV: deterministic under sanitizers,
            // and to the parent both are just "died on a signal".
            ::kill(::getpid(), SIGKILL);
            for (;;)
                ::pause();
        case FaultSpec::Action::Hang:
            for (;;)
                ::pause();
        case FaultSpec::Action::Exit:
            // No result file is written: exit=0 exercises the
            // "exited clean but committed nothing" failure path.
            ::_exit(fault.exitCode);
        }
    }
}

} // namespace

// ------------------------------------------------------------ options

ExecutorOptions
executorOptionsFromEnv()
{
    ExecutorOptions opt;
    if (const char *s = std::getenv("SKYBYTE_BACKOFF_MS")) {
        // Digits only: strtoull would read "-1" as 2^64-1 and "x" as 0.
        // An out-of-range value saturates, which waits forever.
        const std::string text = s;
        if (text.empty()
            || text.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument(
                "SKYBYTE_BACKOFF_MS expects an integer >= 0, got: " + text);
        opt.backoffBaseMs = std::strtoull(s, nullptr, 10);
    }
    return opt;
}

std::size_t
IsolatedExecution::countWith(PointStatus status) const
{
    std::size_t n = 0;
    for (const PointOutcome &o : outcomes)
        n += o.status == status ? 1 : 0;
    return n;
}

bool
IsolatedExecution::complete() const
{
    return countWith(PointStatus::Ok) == outcomes.size();
}

bool
IsolatedExecution::anySimTimeout() const
{
    for (const PointOutcome &o : outcomes) {
        if (o.simTimedOut)
            return true;
    }
    return false;
}

// ------------------------------------------------------------ journal

std::string
journalPath(const std::string &runDir)
{
    return runDir + "/journal.jsonl";
}

std::string
pointResultPath(const std::string &runDir, std::size_t index)
{
    return runDir + "/points/" + std::to_string(index) + ".json";
}

namespace {

/**
 * Pull `"key": <value>` out of one journal line. The journal is
 * machine-written with a fixed key order, so simple searches suffice;
 * any miss marks the line as truncated/corrupt.
 */
bool
findNumber(const std::string &line, const std::string &key,
           std::uint64_t &out)
{
    const auto at = line.find("\"" + key + "\":");
    if (at == std::string::npos)
        return false;
    const char *start = line.c_str() + at + key.size() + 3;
    char *end = nullptr;
    out = std::strtoull(start, &end, 10);
    return end != start;
}

bool
findString(const std::string &line, const std::string &key,
           std::string &out)
{
    const auto at = line.find("\"" + key + "\":");
    if (at == std::string::npos)
        return false;
    auto open = line.find('"', at + key.size() + 3);
    if (open == std::string::npos)
        return false;
    std::string value;
    for (std::size_t i = open + 1; i < line.size(); ++i) {
        if (line[i] == '\\' && i + 1 < line.size()) {
            value += line[++i];
            continue;
        }
        if (line[i] == '"') {
            out = std::move(value);
            return true;
        }
        value += line[i];
    }
    return false; // unterminated: truncated line
}

bool
parseJournalRecord(const std::string &line, JournalRecord &rec)
{
    std::uint64_t index = 0, attempt = 0, ms = 0;
    if (!findNumber(line, "point", index)
        || !findString(line, "id", rec.id)
        || !findNumber(line, "attempt", attempt)
        || !findString(line, "status", rec.status)
        || !findNumber(line, "ms", ms)
        || !findString(line, "detail", rec.detail)) {
        return false;
    }
    rec.index = index;
    rec.attempt = static_cast<std::uint32_t>(attempt);
    rec.durationMs = ms;
    return true;
}

std::string
journalHeaderLine(const JournalHeader &header)
{
    std::ostringstream os;
    os << "{\"skybyte_sweep_journal\": 1, \"sweep\": \"" << header.sweep
       << "\", \"total_points\": " << header.totalPoints
       << ", \"shard_index\": " << header.shardIndex
       << ", \"shard_count\": " << header.shardCount << "}";
    return os.str();
}

std::string
journalRecordLine(const JournalRecord &rec)
{
    std::ostringstream os;
    os << "{\"point\": " << rec.index << ", \"id\": \"" << rec.id
       << "\", \"attempt\": " << rec.attempt << ", \"status\": \""
       << rec.status << "\", \"ms\": " << rec.durationMs
       << ", \"detail\": \"" << rec.detail << "\"}";
    return os.str();
}

} // namespace

bool
readJournal(const std::string &path, JournalHeader &header,
            std::vector<JournalRecord> &records)
{
    if (!fileExists(path))
        return false;
    const std::string text = readFileText(path);
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        throw RunDirError("journal is empty: " + path);
    std::uint64_t version = 0, total = 0, sidx = 0, scount = 0;
    if (!findNumber(line, "skybyte_sweep_journal", version)
        || version != 1 || !findString(line, "sweep", header.sweep)
        || !findNumber(line, "total_points", total)
        || !findNumber(line, "shard_index", sidx)
        || !findNumber(line, "shard_count", scount)) {
        throw RunDirError("journal has a malformed header: " + path);
    }
    header.totalPoints = total;
    header.shardIndex = static_cast<std::uint32_t>(sidx);
    header.shardCount = static_cast<std::uint32_t>(scount);
    records.clear();
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JournalRecord rec;
        if (!parseJournalRecord(line, rec)) {
            // A torn record can only be the last line (single-write
            // appends); anything else is real corruption.
            if (in.peek() == std::char_traits<char>::eof())
                break;
            throw RunDirError("journal is corrupt mid-file: " + path);
        }
        records.push_back(std::move(rec));
    }
    return true;
}

// ------------------------------------------------------------ backoff

std::uint64_t
backoffDelayMs(std::uint64_t baseMs, std::uint32_t failedAttempt,
               std::uint64_t seed, std::size_t index)
{
    if (baseMs == 0)
        return 0;
    const std::uint32_t exp =
        std::min(failedAttempt == 0 ? 0u : failedAttempt - 1, 6u);
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    // Saturate instead of wrapping to a short (or zero) wait.
    const std::uint64_t delay =
        baseMs > (kMax >> exp) ? kMax : baseMs << exp;
    // Deterministic jitter in [0, baseMs): decorrelates retry storms
    // across points without sacrificing reproducibility.
    const FlatHash mix;
    const std::uint64_t jitter =
        mix(seed ^ mix(static_cast<std::uint64_t>(index) + 1)
            ^ (static_cast<std::uint64_t>(failedAttempt) << 32))
        % baseMs;
    return delay > kMax - jitter ? kMax : delay + jitter;
}

// ----------------------------------------------------------- executor

namespace {

using Clock = std::chrono::steady_clock;

/**
 * @p start + @p ms. A span past the clock's range saturates to
 * time_point::max() ("never") instead of wrapping into the past.
 */
Clock::time_point
saturatingAfter(Clock::time_point start, std::uint64_t ms)
{
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - start)
            .count();
    if (ms >= static_cast<std::uint64_t>(headroom))
        return Clock::time_point::max();
    return start + std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

std::uint64_t
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(b - a)
            .count());
}

bool
resultSaysSimTimedOut(const std::string &resultJson)
{
    return resultJson.find("\"timed_out\": true") != std::string::npos;
}

int
childRunPoint(const LabeledPoint &lp, const std::string &resultPath,
              std::uint32_t attempt, const std::vector<FaultSpec> &faults)
{
    applyFault(faults, lp.id(), attempt);
    try {
        const SweepPoint &p = lp.point;
        const SimResult res = runConfig(p.cfg, p.workload, p.opt);
        writeFileAtomic(resultPath, toJson(res));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte point %s: %s\n", lp.id().c_str(),
                     e.what());
        return 9;
    }
}

} // namespace

IsolatedExecution
runSweepIsolated(const std::string &sweepName, std::size_t totalPoints,
                 const ShardSpec &shard,
                 const std::vector<LabeledPoint> &points,
                 const ExecutorOptions &opt)
{
    if (opt.runDir.empty())
        throw std::invalid_argument("isolated run needs a run dir");
    const std::vector<FaultSpec> faults = faultSpecsFromEnv();
    const std::string journal_path = journalPath(opt.runDir);

    IsolatedExecution exec;
    exec.outcomes.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        exec.outcomes[i].index = points[i].index;
        exec.outcomes[i].id = points[i].id();
    }

    // --- run-dir state: fresh run vs resume ---------------------------
    std::vector<std::uint32_t> priorAttempts(points.size(), 0);
    JournalHeader header{sweepName, totalPoints, shard.index,
                         shard.count};
    if (opt.resume) {
        JournalHeader prior;
        std::vector<JournalRecord> records;
        if (!readJournal(journal_path, prior, records)) {
            throw RunDirError("cannot resume: no journal in "
                              + opt.runDir);
        }
        if (prior.sweep != sweepName || prior.totalPoints != totalPoints
            || prior.shardIndex != shard.index
            || prior.shardCount != shard.count) {
            throw RunDirError(
                "cannot resume: journal belongs to sweep "
                + prior.sweep + " ("
                + std::to_string(prior.totalPoints) + " points, shard "
                + std::to_string(prior.shardIndex) + "/"
                + std::to_string(prior.shardCount) + "), not to "
                + sweepName);
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
            for (const JournalRecord &rec : records) {
                if (rec.index == points[i].index) {
                    priorAttempts[i] =
                        std::max(priorAttempts[i], rec.attempt);
                }
            }
        }
    } else {
        if (fileExists(journal_path)) {
            throw RunDirError(
                "run dir already contains a journal (pass --resume to "
                "continue it, or use a fresh directory): " + opt.runDir);
        }
        ensureDirs(opt.runDir + "/points");
        appendLine(journal_path, journalHeaderLine(header));
    }

    // --- resume: adopt committed results ------------------------------
    // The rename-committed result file is the authoritative
    // completeness predicate; the journal only supplies attempt counts.
    std::deque<std::size_t> todo;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string result_path =
            pointResultPath(opt.runDir, points[i].index);
        if (opt.resume && fileExists(result_path)) {
            PointOutcome &out = exec.outcomes[i];
            out.status = PointStatus::Ok;
            out.attempts = std::max(priorAttempts[i], 1u);
            out.resultJson = readFileText(result_path);
            out.resumedFromDisk = true;
            out.simTimedOut = resultSaysSimTimedOut(out.resultJson);
        } else {
            todo.push_back(i);
        }
    }

    // --- the scheduler ------------------------------------------------
    struct Pending
    {
        std::size_t slot;
        std::uint32_t attempt; ///< local to this invocation, 1-based
        Clock::time_point readyAt;
    };
    struct Running
    {
        pid_t pid;
        std::size_t slot;
        std::uint32_t attempt;
        Clock::time_point start;
        Clock::time_point deadline;
    };
    std::deque<Pending> pending;
    for (const std::size_t slot : todo)
        pending.push_back({slot, 1, Clock::now()});
    std::vector<Running> running;
    const std::size_t cap = static_cast<std::size_t>(
        sweepThreads(opt.nthreads, pending.size()));

    auto journalAttempt = [&](std::size_t slot, std::uint32_t attempt,
                              const char *status, std::uint64_t ms,
                              const std::string &detail) {
        JournalRecord rec;
        rec.index = points[slot].index;
        rec.id = exec.outcomes[slot].id;
        rec.attempt = priorAttempts[slot] + attempt;
        rec.status = status;
        rec.durationMs = ms;
        rec.detail = detail;
        appendLine(journal_path, journalRecordLine(rec));
    };

    auto settleFailure = [&](std::size_t slot, std::uint32_t attempt,
                             PointStatus kind, std::uint64_t ms,
                             const std::string &detail) {
        PointOutcome &out = exec.outcomes[slot];
        out.attempts = priorAttempts[slot] + attempt;
        out.durationMs = ms;
        out.detail = detail;
        journalAttempt(slot, attempt,
                       kind == PointStatus::Timeout ? "timeout"
                                                    : "failed",
                       ms, detail);
        // attempt <= retries, not attempt < 1 + retries: the sum wraps
        // to 0 at retries = UINT32_MAX.
        if (attempt <= opt.retries) {
            const std::uint64_t wait = backoffDelayMs(
                opt.backoffBaseMs, attempt,
                points[slot].point.opt.seed, points[slot].index);
            pending.push_back(
                {slot, attempt + 1, saturatingAfter(Clock::now(), wait)});
            return;
        }
        out.status = kind;
    };

    auto settleExit = [&](const Running &run, const ChildExit &status) {
        const std::uint64_t ms = msBetween(run.start, Clock::now());
        PointOutcome &out = exec.outcomes[run.slot];
        if (!status.ok()) {
            settleFailure(run.slot, run.attempt, PointStatus::Failed,
                          ms, describeExit(status));
            return;
        }
        const std::string result_path =
            pointResultPath(opt.runDir, points[run.slot].index);
        if (!fileExists(result_path)) {
            settleFailure(run.slot, run.attempt, PointStatus::Failed,
                          ms, "exit 0 without a committed result");
            return;
        }
        out.status = PointStatus::Ok;
        out.attempts = priorAttempts[run.slot] + run.attempt;
        out.durationMs = ms;
        out.detail.clear();
        out.resultJson = readFileText(result_path);
        out.simTimedOut = resultSaysSimTimedOut(out.resultJson);
        journalAttempt(run.slot, run.attempt, "ok", ms, "");
    };

    while (!pending.empty() || !running.empty()) {
        const Clock::time_point now = Clock::now();

        // Launch every due pending point while slots are free. Scan
        // for the lowest due slot first so launch order is stable.
        while (running.size() < cap) {
            auto best = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (it->readyAt > now)
                    continue;
                if (best == pending.end() || it->slot < best->slot)
                    best = it;
            }
            if (best == pending.end())
                break;
            const Pending job = *best;
            pending.erase(best);
            const LabeledPoint &lp = points[job.slot];
            const std::string result_path =
                pointResultPath(opt.runDir, lp.index);
            const std::uint32_t absolute_attempt =
                priorAttempts[job.slot] + job.attempt;
            const pid_t pid = spawnChild([&lp, &result_path,
                                          absolute_attempt, &faults] {
                return childRunPoint(lp, result_path, absolute_attempt,
                                     faults);
            });
            const Clock::time_point start = Clock::now();
            const Clock::time_point deadline =
                opt.timeoutMs == 0 ? Clock::time_point::max()
                                   : saturatingAfter(start, opt.timeoutMs);
            running.push_back({pid, job.slot, job.attempt, start,
                               deadline});
        }

        // Reap exits and enforce deadlines.
        bool progressed = false;
        for (auto it = running.begin(); it != running.end();) {
            ChildExit status;
            if (pollChild(it->pid, status)) {
                settleExit(*it, status);
                it = running.erase(it);
                progressed = true;
                continue;
            }
            if (Clock::now() >= it->deadline) {
                killChild(it->pid);
                waitChild(it->pid); // SIGKILL makes this prompt
                const std::uint64_t ms =
                    msBetween(it->start, Clock::now());
                settleFailure(it->slot, it->attempt,
                              PointStatus::Timeout, ms,
                              "killed after " + std::to_string(ms)
                                  + " ms (timeout "
                                  + std::to_string(opt.timeoutMs)
                                  + " ms)");
                it = running.erase(it);
                progressed = true;
                continue;
            }
            ++it;
        }
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return exec;
}

SweepReport
buildIsolatedReport(const std::string &sweepName,
                    std::size_t totalPoints, const ShardSpec &shard,
                    const IsolatedExecution &exec)
{
    SweepReport report;
    report.sweep = sweepName;
    report.totalPoints = totalPoints;
    report.shardIndex = shard.index;
    report.shardCount = shard.count;
    for (const PointOutcome &out : exec.outcomes) {
        if (out.status == PointStatus::Ok) {
            report.entries.push_back(
                {out.index, sweepEntryJsonFromText(out.index, out.id,
                                                   out.resultJson)});
        } else {
            report.failures.push_back(
                {out.index, out.id, pointStatusName(out.status),
                 out.attempts, out.detail});
        }
    }
    return report;
}

} // namespace skybyte
