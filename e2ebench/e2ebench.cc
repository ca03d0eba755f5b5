/**
 * @file
 * End-to-end benchmark driver for the SkyByte simulator.
 *
 *   e2ebench run    <workload> <seed> <seconds>
 *   e2ebench traced <workload> <seed> <spans.json>
 *
 * `run` executes the workload's sweep points serially, each in its own
 * forked child, and times the two public calls System::System (setup)
 * and System::run (run + drain) from outside the simulator. It repeats
 * whole points round-robin while the next one fits in @p seconds of
 * host time (the first full pass always completes), then tops up
 * setup-only children until every point has kSetupSamples setup
 * timings.
 *
 * `traced` runs one untraced and one traced pass of the same points,
 * the System setup phases (assembly, FTL precondition, SSD-cache
 * warmup) via SimConfig::preconditionSsd / warmupSsdCache, and a
 * standalone replay of the workload's input stream through each
 * layer's public functions (TraceCursor, SetAssocCache, MshrFile,
 * SsdController + EventQueue, Ftl). Spans are kept in memory and
 * written to @p spans.json when the run ends.
 *
 * Every result goes to stdout as one JSON object per line; e2ebench/
 * run.py turns them into the benchmark's metrics. Host time and
 * simulated time are kept apart: *_s / *_ns fields are host time,
 * SimResult fields (in "result") are simulated.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ssd_controller.h"
#include "cpu/cache.h"
#include "cxl/cxl.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "ssd/ftl.h"
#include "trace/workload.h"

extern char **environ;

using namespace skybyte;

namespace {

/** Host time limit of one point; a point past it is killed. */
constexpr unsigned kPointLimitS = 30;
/** No point starts after this much host time (the run must end < 180 s). */
constexpr double kRunBudgetS = 140.0;
/** Setup timings gathered per point (median taken by run.py). */
constexpr int kSetupSamples = 3;
/** Records of each app's stream replayed through the layers. */
constexpr std::size_t kReplayRecords = 400'000;
/** Requests issued between event-queue drains in the replays. */
constexpr std::size_t kDrainBatch = 64;

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 16);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

/** One sweep point: a paper app under one variant at one trace length. */
struct Point
{
    std::string app;
    std::string variant;
    std::uint64_t instrPerThread = 0;

    std::string id() const { return app + "/" + variant; }
};

void
addGrid(std::vector<Point> &out, const std::vector<std::string> &apps,
        const std::vector<std::string> &variants, std::uint64_t instr)
{
    for (const std::string &a : apps)
        for (const std::string &v : variants)
            out.push_back({a, v, instr});
}

/**
 * The workloads' point lists. They are pinned here, not read from the
 * library's sweep registry, so that only the driver's arguments decide
 * what is measured.
 */
std::vector<Point>
workloadPoints(const std::string &name)
{
    const std::vector<std::string> apps = {
        "bc", "bfs-dense", "dlrm", "radix", "srad", "tpcc", "ycsb"};
    std::vector<Point> pts;
    if (name == "paper-mix") {
        // fig14's headline columns at fig14's trace length.
        addGrid(pts, apps, {"Base-CSSD", "SkyByte-Full", "DRAM-Only"},
                150'000);
    } else if (name == "short-points") {
        // Every fig14 variant at a trace short enough that System
        // construction is at least half of each point's host time.
        addGrid(pts, apps,
                {"Base-CSSD", "SkyByte-P", "SkyByte-C", "SkyByte-W",
                 "SkyByte-CP", "SkyByte-WP", "SkyByte-Full", "DRAM-Only"},
                20'000);
    } else if (name == "long-trace-4x") {
        // Write-heavy points at 4x the default trace length: flash GC
        // under host-write pressure, with the write log off and on.
        addGrid(pts, {"radix"},
                {"Base-CSSD", "SkyByte-CP", "SkyByte-W", "SkyByte-Full",
                 "DRAM-Only"},
                1'600'000);
        addGrid(pts, {"srad"}, {"Base-CSSD", "SkyByte-WP"}, 1'600'000);
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return pts;
}

/** Config and workload parameters of @p p, exactly as runVariant builds them. */
struct PointSetup
{
    SimConfig cfg;
    WorkloadParams params;
};

PointSetup
setupFor(const Point &p, std::uint64_t seed)
{
    ExperimentOptions opt;
    opt.instrPerThread = p.instrPerThread;
    opt.seed = seed;
    const SweepPoint sp = makeSweepPoint(p.variant, p.app, opt);
    return {sp.cfg, makeParams(sp.cfg, sp.opt)};
}

/** A recorded host-time span. parent 0 = root. */
struct Span
{
    int id = 0;
    int parent = 0;
    std::string name;
    std::string label;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanLog
{
  public:
    int
    open(int parent, std::string name, std::string label = "")
    {
        spans_.push_back({static_cast<int>(spans_.size()) + 1, parent,
                          std::move(name), std::move(label), nowNs(), 0});
        return spans_.back().id;
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id - 1)].endNs = nowNs();
    }

    /** Record an already-finished span (e.g. one timed in a child). */
    int
    add(int parent, std::string name, std::string label,
        std::int64_t start_ns, std::int64_t end_ns)
    {
        spans_.push_back({static_cast<int>(spans_.size()) + 1, parent,
                          std::move(name), std::move(label), start_ns,
                          end_ns});
        return spans_.back().id;
    }

    void
    write(const std::string &path, const std::string &workload,
          std::uint64_t seed) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write spans to " + path);
        const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
            << ", \"clock\": \"host steady_clock, ns from the first span\""
            << ", \"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
                << ", \"name\": \"" << jsonEscape(s.name)
                << "\", \"label\": \"" << jsonEscape(s.label)
                << "\", \"start_ns\": " << (s.startNs - t0)
                << ", \"end_ns\": " << (s.endNs - t0) << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        if (!out.flush())
            throw std::runtime_error("short write to " + path);
    }

  private:
    std::vector<Span> spans_;
};

/** What the parent learns about one forked point. */
struct ChildOutcome
{
    std::string status; ///< ok | exit:N | signal:N | timeout
    double wallS = 0;
    long maxRssKb = 0;
    std::string payload; ///< everything the child wrote to the pipe
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Write all of @p text to @p fd (child side; exits on failure). */
void
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            _exit(4);
        off += static_cast<std::size_t>(n);
    }
}

/**
 * Run @p body in a forked child with an alarm of @p limit_s seconds;
 * the body reports through writeAll() on the pipe it is given, so what
 * it sent before a crash still arrives. Serial: returns only after the
 * child has been reaped.
 */
ChildOutcome
runChild(unsigned limit_s, const std::function<void(int)> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    std::fflush(stdout);
    std::fflush(stderr);
    ChildOutcome out;
    out.startNs = nowNs();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        close(fds[0]);
        // A crashing point must not leave a core file behind.
        const rlimit no_core{0, 0};
        setrlimit(RLIMIT_CORE, &no_core);
        alarm(limit_s);
        int code = 0;
        try {
            body(fds[1]);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "e2ebench: point threw: %s\n", e.what());
            code = 3;
        }
        close(fds[1]);
        _exit(code);
    }
    close(fds[1]);
    char buf[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0) {
            out.payload.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            throw std::runtime_error(std::string("wait4: ")
                                     + std::strerror(errno));
    }
    out.endNs = nowNs();
    out.wallS = static_cast<double>(out.endNs - out.startNs) / 1e9;
    out.maxRssKb = ru.ru_maxrss;
    if (WIFEXITED(status)) {
        out.status = WEXITSTATUS(status) == 0
                         ? "ok"
                         : "exit:" + std::to_string(WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
        out.status = WTERMSIG(status) == SIGALRM
                         ? "timeout"
                         : "signal:" + std::to_string(WTERMSIG(status));
    } else {
        out.status = "unknown";
    }
    return out;
}

/**
 * What a point child sends: "<setup_start> <setup_end>\n" as soon as
 * System is built, then "<run_end>\n<toJson(SimResult)>" after the run.
 */
struct PointPayload
{
    std::int64_t setupStart = 0;
    std::int64_t setupEnd = 0;
    std::int64_t runEnd = 0;
    std::string resultJson;
    bool setupValid = false;
    bool runValid = false;
};

PointPayload
parsePayload(const std::string &text)
{
    PointPayload p;
    const std::size_t nl1 = text.find('\n');
    if (nl1 == std::string::npos)
        return p;
    std::istringstream setup(text.substr(0, nl1));
    p.setupValid = static_cast<bool>(setup >> p.setupStart >> p.setupEnd);
    const std::size_t nl2 = text.find('\n', nl1 + 1);
    if (!p.setupValid || nl2 == std::string::npos)
        return p;
    std::istringstream run(text.substr(nl1 + 1, nl2 - nl1 - 1));
    p.runValid = static_cast<bool>(run >> p.runEnd);
    p.resultJson = text.substr(nl2 + 1);
    return p;
}

/** Build @p p's System and send its setup timestamps on @p fd. */
std::unique_ptr<System>
buildAndReport(int fd, const PointSetup &ps, const Point &p)
{
    const std::int64_t start = nowNs();
    auto sys = std::make_unique<System>(ps.cfg, p.app, ps.params);
    const std::int64_t end = nowNs();
    writeAll(fd, std::to_string(start) + " " + std::to_string(end) + "\n");
    return sys;
}

/** Host time and work of the layer replays, summed over apps. */
struct LayerTotals
{
    double traceNs = 0, cacheNs = 0, mshrNs = 0, ssdNs = 0, stepNs = 0;
    double ftlPreconditionNs = 0, ftlWriteNs = 0;
    std::uint64_t records = 0, cacheCalls = 0, llcHits = 0;
    std::uint64_t llcAccesses = 0, mshrOps = 0, ssdRequests = 0;
    std::uint64_t events = 0, ftlPages = 0, ftlWrites = 0;
    /** Replay self-check failures; empty when every check held. */
    std::string failures;
};

bool
isDeviceAddr(Addr vaddr, std::uint64_t footprint)
{
    return vaddr >= Workload::kDataBase
           && vaddr < Workload::kDataBase + footprint;
}

/**
 * trace: drain @p app's spec through TraceCursor, threads interleaved
 * one record at a time, up to kReplayRecords records.
 */
std::vector<TraceRecord>
generateStream(const std::string &app, const WorkloadParams &params,
               std::uint64_t &footprint, LayerTotals &tot)
{
    std::vector<TraceRecord> stream;
    stream.reserve(kReplayRecords);
    const std::int64_t start = nowNs();
    const std::unique_ptr<Workload> wl = makeWorkload(app, params);
    footprint = wl->footprintBytes();
    std::vector<TraceCursor> cursors;
    for (int t = 0; t < wl->numThreads(); ++t)
        cursors.emplace_back(*wl, t);
    for (bool live = true; live && stream.size() < kReplayRecords;) {
        live = false;
        for (TraceCursor &c : cursors) {
            TraceRecord rec;
            if (stream.size() < kReplayRecords && c.next(rec)) {
                stream.push_back(rec);
                live = true;
            }
        }
    }
    tot.traceNs += static_cast<double>(nowNs() - start);
    tot.records += stream.size();
    if (stream.empty())
        tot.failures += app + ": empty trace; ";
    return stream;
}

/**
 * cpu: L1 -> L2 -> LLC through standalone bench-scale caches
 * (access, then fill on a miss). Collects the L1 and LLC miss lines.
 */
void
replayCaches(const std::vector<TraceRecord> &stream, const CpuConfig &cpu,
             std::vector<Addr> &l1_miss, std::vector<Addr> &llc_miss,
             LayerTotals &tot)
{
    SetAssocCache l1(cpu.l1d), l2(cpu.l2), llc(cpu.llc);
    std::uint64_t calls = 0;
    const std::int64_t start = nowNs();
    for (const TraceRecord &r : stream) {
        const Addr line = lineAlign(r.vaddr);
        ++calls;
        if (l1.access(line, r.isWrite, r.vaddr))
            continue;
        l1_miss.push_back(line);
        ++calls;
        if (!l2.access(line, false)) {
            ++calls;
            if (!llc.access(line, false)) {
                llc_miss.push_back(line);
                llc.fill(line, false);
            }
            l2.fill(line, false);
        }
        l1.fill(line, r.isWrite, r.vaddr);
    }
    tot.cacheNs += static_cast<double>(nowNs() - start);
    tot.cacheCalls += calls;
    tot.llcHits += llc.hits();
    tot.llcAccesses += llc.hits() + llc.misses();
    if (l1.hits() + l1.misses() != stream.size())
        tot.failures += "L1 hits + misses != accesses; ";
}

/**
 * cpu: allocate each missing line in an MSHR file, coalescing onto an
 * in-flight entry and retiring the oldest entry when the file is full.
 */
void
replayMshr(const std::vector<Addr> &lines, std::uint32_t entries,
           LayerTotals &tot)
{
    MshrFile mshr(entries);
    std::deque<Addr> inflight;
    std::uint64_t ops = 0;
    const std::int64_t start = nowNs();
    for (const Addr line : lines) {
        ++ops;
        if (mshr.contains(line))
            continue;
        if (mshr.full()) {
            mshr.release(inflight.front());
            inflight.pop_front();
            ++ops;
        }
        mshr.allocate(line);
        inflight.push_back(line);
        ++ops;
    }
    for (const Addr line : inflight) {
        mshr.release(line);
        ++ops;
    }
    tot.mshrNs += static_cast<double>(nowNs() - start);
    tot.mshrOps += ops;
}

/**
 * core + common: the device-line stream through a standalone,
 * preconditioned SsdController, drained every kDrainBatch requests by
 * the benchmark's own EventQueue::step loop.
 */
void
replayController(const std::vector<TraceRecord> &stream,
                 std::uint64_t footprint, const SimConfig &cfg,
                 LayerTotals &tot)
{
    EventQueue eq;
    CxlLink link(eq, cfg.cxl);
    SsdController ssd(cfg, eq, link);
    ssd.ftl().precondition(footprint / kPageBytes);
    std::uint64_t reads = 0, done = 0, issued = 0;
    std::int64_t in_step = 0;
    auto drain = [&] {
        const std::int64_t s = nowNs();
        while (eq.step())
            ++tot.events;
        in_step += nowNs() - s;
    };
    const std::int64_t start = nowNs();
    for (const TraceRecord &r : stream) {
        if (!isDeviceAddr(r.vaddr, footprint))
            continue;
        const Addr dev = lineAlign(r.vaddr - Workload::kDataBase);
        if (r.isWrite) {
            ssd.write(dev, r.vaddr | 1, eq.now());
        } else {
            ++reads;
            ssd.read(dev, eq.now(), [&done](const MemResponse &) { ++done; });
        }
        if (++issued % kDrainBatch == 0)
            drain();
    }
    drain();
    tot.ssdNs += static_cast<double>(nowNs() - start);
    tot.stepNs += static_cast<double>(in_step);
    tot.ssdRequests += issued;
    if (done != reads)
        tot.failures += "controller completed " + std::to_string(done)
                        + " of " + std::to_string(reads) + " reads; ";
}

/** ssd: standalone Ftl::precondition over the app's footprint. */
void
replayFtlPrecondition(Ftl &ftl, std::uint64_t footprint, LayerTotals &tot)
{
    const std::uint64_t pages = footprint / kPageBytes;
    const std::int64_t start = nowNs();
    ftl.precondition(pages);
    tot.ftlPreconditionNs += static_cast<double>(nowNs() - start);
    tot.ftlPages += pages;
}

/** ssd: the stream's device writes as Ftl::writePage calls (GC included). */
void
replayFtlWrites(Ftl &ftl, EventQueue &eq,
                const std::vector<TraceRecord> &stream,
                std::uint64_t footprint, LayerTotals &tot)
{
    PageData data{};
    std::uint64_t issued = 0, done = 0;
    const std::int64_t start = nowNs();
    for (const TraceRecord &r : stream) {
        if (!r.isWrite || !isDeviceAddr(r.vaddr, footprint))
            continue;
        data[lineInPage(r.vaddr)] = r.vaddr;
        ftl.writePage(pageNumber(r.vaddr - Workload::kDataBase), eq.now(),
                      data, [&done](Tick) { ++done; });
        if (++issued % kDrainBatch == 0)
            eq.run();
    }
    eq.run();
    tot.ftlWriteNs += static_cast<double>(nowNs() - start);
    tot.ftlWrites += issued;
    if (done != issued)
        tot.failures += "FTL completed " + std::to_string(done) + " of "
                        + std::to_string(issued) + " writes; ";
}

class Driver
{
  public:
    Driver(std::string workload, std::uint64_t seed)
        : workload_(std::move(workload)), seed_(seed),
          points_(workloadPoints(workload_)), t0_(nowNs())
    {}

    /** Timed repetition of whole points, then setup top-ups. */
    void
    runTimed(double seconds)
    {
        std::vector<int> setups(points_.size(), 0);
        std::vector<double> walls(points_.size(), 0.0);
        for (std::size_t n = 0;; ++n) {
            const std::size_t i = n % points_.size();
            // Repeats stop before one would overrun the measuring time.
            if (n >= points_.size()
                && secondsSince(t0_) + walls[i] > seconds)
                break;
            const PointRun r = runPoint(i, "timed", 0);
            walls[i] = r.wallS;
            setups[i] += r.setupTimed;
        }
        for (std::size_t i = 0; i < points_.size(); ++i) {
            while (setups[i] < kSetupSamples
                   && secondsSince(t0_) < kRunBudgetS) {
                runSetupOnly(i);
                ++setups[i];
            }
        }
    }

    /** Traced run: both passes, setup phases, layer replays, spans. */
    void
    runTraced(const std::string &spans_path)
    {
        for (std::size_t i = 0; i < points_.size(); ++i)
            runPoint(i, "untraced", 0);
        const int root = spans_.open(0, "traced_run", workload_);
        const int sweep = spans_.open(root, "sweep", workload_);
        for (std::size_t i = 0; i < points_.size(); ++i)
            runPoint(i, "traced", sweep);
        spans_.close(sweep);
        runSetupPhases(root);
        runLayerReplays(root);
        spans_.close(root);
        spans_.write(spans_path, workload_, seed_);
    }

  private:
    /** Budget left for one child (0 = do not start it). */
    unsigned
    childLimit() const
    {
        const double left = kRunBudgetS - secondsSince(t0_);
        if (left < 1.0)
            return 0;
        return static_cast<unsigned>(
            std::min<double>(kPointLimitS, left));
    }

    struct PointRun
    {
        double wallS = 0;
        bool setupTimed = false; ///< the child reported a setup time
    };

    PointRun
    runPoint(std::size_t i, const char *pass, int parent_span)
    {
        const Point &p = points_[i];
        const PointSetup ps = setupFor(p, seed_);
        const std::uint64_t expected =
            ps.params.instrPerThread
            * static_cast<std::uint64_t>(ps.params.numThreads);
        const unsigned limit = childLimit();
        ChildOutcome out;
        PointPayload pay;
        if (limit == 0) {
            out.status = "not_started";
        } else {
            out = runChild(limit, [&ps, &p](int fd) {
                const SimResult res = buildAndReport(fd, ps, p)->run();
                const std::int64_t end = nowNs();
                writeAll(fd, std::to_string(end) + "\n" + toJson(res));
            });
            pay = parsePayload(out.payload);
            // The exit status alone does not prove the child finished.
            if (out.status == "ok" && !pay.runValid)
                out.status = "bad_payload";
        }
        if (parent_span > 0 && out.endNs > 0) {
            const int ps_id = spans_.add(parent_span, "point", p.id(),
                                         out.startNs, out.endNs);
            if (pay.setupValid) {
                spans_.add(ps_id, "setup", p.id(), pay.setupStart,
                           pay.setupEnd);
                // A crashed run's span ends when its child was reaped.
                spans_.add(ps_id, "run", p.id() + " " + out.status,
                           pay.setupEnd,
                           pay.runValid ? pay.runEnd : out.endNs);
            }
        }
        std::printf(
            "{\"kind\": \"point\", \"pass\": \"%s\", \"id\": \"%s\", "
            "\"app\": \"%s\", \"variant\": \"%s\", \"status\": \"%s\", "
            "\"wall_s\": %.9f, \"limit_s\": %u, \"maxrss_kb\": %ld, "
            "\"expected_instr\": %llu",
            pass, p.id().c_str(), p.app.c_str(), p.variant.c_str(),
            out.status.c_str(), out.wallS, kPointLimitS, out.maxRssKb,
            static_cast<unsigned long long>(expected));
        if (pay.setupValid) {
            std::printf(", \"setup_s\": %.9f",
                        static_cast<double>(pay.setupEnd - pay.setupStart)
                            / 1e9);
        }
        if (pay.runValid) {
            std::printf(", \"run_s\": %.9f",
                        static_cast<double>(pay.runEnd - pay.setupEnd)
                            / 1e9);
        }
        if (out.status == "ok")
            std::printf(", \"result\": \"%s\"",
                        jsonEscape(pay.resultJson).c_str());
        std::printf("}\n");
        std::fflush(stdout);
        return {out.wallS, pay.setupValid};
    }

    void
    runSetupOnly(std::size_t i)
    {
        const Point &p = points_[i];
        const PointSetup ps = setupFor(p, seed_);
        const unsigned limit = childLimit();
        if (limit == 0)
            return;
        const ChildOutcome out = runChild(
            limit, [&ps, &p](int fd) { buildAndReport(fd, ps, p); });
        const PointPayload pay = parsePayload(out.payload);
        std::printf("{\"kind\": \"setup\", \"id\": \"%s\", \"status\": "
                    "\"%s\", \"maxrss_kb\": %ld",
                    p.id().c_str(), out.status.c_str(), out.maxRssKb);
        if (out.status == "ok" && pay.setupValid) {
            std::printf(", \"setup_s\": %.9f",
                        static_cast<double>(pay.setupEnd - pay.setupStart)
                            / 1e9);
        }
        std::printf("}\n");
        std::fflush(stdout);
    }

    /**
     * System construction with the precondition and warmup toggles
     * off, precondition only, and both on (in-process: construction
     * never runs the simulated machine).
     */
    void
    runSetupPhases(int root)
    {
        static const char *const kNames[3] = {
            "assemble", "assemble+precondition",
            "assemble+precondition+warmup"};
        const int phases = spans_.open(root, "setup_phases", workload_);
        double assemble = 0, precondition = 0, warmup = 0;
        for (const Point &p : points_) {
            PointSetup ps = setupFor(p, seed_);
            const int pt = spans_.open(phases, "point", p.id());
            double t[3];
            for (int k = 0; k < 3; ++k) {
                ps.cfg.preconditionSsd = k >= 1;
                ps.cfg.warmupSsdCache = k >= 2;
                const int sp = spans_.open(pt, kNames[k], p.id());
                const std::int64_t a = nowNs();
                {
                    System sys(ps.cfg, p.app, ps.params);
                }
                t[k] = secondsSince(a);
                spans_.close(sp);
            }
            spans_.close(pt);
            assemble += t[0];
            precondition += t[1] - t[0];
            warmup += t[2] - t[1];
        }
        spans_.close(phases);
        std::printf("{\"kind\": \"layer\", \"metrics\": {"
                    "\"setup.assemble_s\": %.9f, "
                    "\"setup.precondition_s\": %.9f, "
                    "\"setup.warmup_s\": %.9f}}\n",
                    assemble, precondition, warmup);
        std::fflush(stdout);
    }

    /** Representative point of @p app for the controller replay. */
    const Point &
    replayPointFor(const std::string &app) const
    {
        const Point *first = nullptr;
        for (const Point &p : points_) {
            if (p.app != app || p.variant == "DRAM-Only")
                continue;
            if (p.variant == "SkyByte-Full")
                return p;
            if (first == nullptr)
                first = &p;
        }
        return *first;
    }

    /** Replay each app's input stream through every layer, with spans. */
    void
    runLayerReplays(int root)
    {
        std::vector<std::string> apps;
        for (const Point &p : points_)
            if (std::find(apps.begin(), apps.end(), p.app) == apps.end())
                apps.push_back(p.app);

        const int layers = spans_.open(root, "layer_replays", workload_);
        LayerTotals tot;
        for (const std::string &app : apps) {
            const Point &rp = replayPointFor(app);
            const PointSetup ps = setupFor(rp, seed_);
            const int app_span = spans_.open(layers, "app", rp.id());
            auto span = [&](const char *name, auto &&fn) {
                const int id = spans_.open(app_span, name, app);
                fn();
                spans_.close(id);
            };
            std::uint64_t footprint = 0;
            std::vector<TraceRecord> stream;
            std::vector<Addr> l1_miss, llc_miss;
            span("trace.generate", [&] {
                stream = generateStream(app, ps.params, footprint, tot);
            });
            span("cache.replay", [&] {
                replayCaches(stream, ps.cfg.cpu, l1_miss, llc_miss, tot);
            });
            span("mshr.replay", [&] {
                replayMshr(l1_miss, ps.cfg.cpu.l1d.mshrs, tot);
                replayMshr(llc_miss, ps.cfg.cpu.llc.mshrs, tot);
            });
            span("ssd.replay", [&] {
                replayController(stream, footprint, ps.cfg, tot);
            });
            EventQueue eq;
            Ftl ftl(ps.cfg.flash, eq, seed_);
            span("ftl.precondition",
                 [&] { replayFtlPrecondition(ftl, footprint, tot); });
            span("ftl.write_replay", [&] {
                replayFtlWrites(ftl, eq, stream, footprint, tot);
            });
            spans_.close(app_span);
        }
        spans_.close(layers);

        auto per = [](double ns, std::uint64_t n) {
            return n == 0 ? 0.0 : ns / static_cast<double>(n);
        };
        std::printf(
            "{\"kind\": \"layer\", \"checks_ok\": %s, \"check_msg\": "
            "\"%s\", \"metrics\": {"
            "\"trace.ns_per_record\": %.6f, \"cache.ns_per_access\": %.6f, "
            "\"cache.llc_hit_ratio\": %.9f, \"mshr.ns_per_op\": %.6f, "
            "\"ssd.ns_per_request\": %.6f, \"kernel.events\": %llu, "
            "\"kernel.ns_per_event\": %.6f, "
            "\"ftl.precondition_ns_per_page\": %.6f, "
            "\"ftl.ns_per_write\": %.6f}}\n",
            tot.failures.empty() ? "true" : "false",
            jsonEscape(tot.failures).c_str(),
            per(tot.traceNs, tot.records), per(tot.cacheNs, tot.cacheCalls),
            tot.llcAccesses == 0 ? 0.0
                                 : static_cast<double>(tot.llcHits)
                                       / static_cast<double>(tot.llcAccesses),
            per(tot.mshrNs, tot.mshrOps), per(tot.ssdNs, tot.ssdRequests),
            static_cast<unsigned long long>(tot.events),
            per(tot.stepNs, tot.events),
            per(tot.ftlPreconditionNs, tot.ftlPages),
            per(tot.ftlWriteNs, tot.ftlWrites));
        std::fflush(stdout);
    }

    std::string workload_;
    std::uint64_t seed_;
    std::vector<Point> points_;
    SpanLog spans_;
    std::int64_t t0_;
};

/**
 * Drop inherited SKYBYTE_* overrides (instruction scale, thread count,
 * footprint, sweep pool, kernel lanes, fault injection) so that only
 * the driver's arguments decide what runs; lanes stay at the default 1.
 */
void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv(*e);
        if (kv.rfind("SKYBYTE_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    std::string list;
    for (const std::string &n : names) {
        unsetenv(n.c_str());
        list += (list.empty() ? "\"" : ", \"") + n + "\"";
    }
    std::printf("{\"kind\": \"env\", \"ignored\": [%s]}\n", list.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench run <workload> <seed> <seconds>\n"
                 "       e2ebench traced <workload> <seed> <spans.json>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 5)
        return usage();
    const std::string mode = argv[1];
    try {
        char *end = nullptr;
        const std::uint64_t seed = std::strtoull(argv[3], &end, 10);
        if (end == argv[3] || *end != '\0')
            throw std::invalid_argument("seed must be an unsigned integer");
        pinEnvironment();
        std::printf("{\"kind\": \"start\", \"workload\": \"%s\", "
                    "\"seed\": %llu, \"mode\": \"%s\"}\n",
                    argv[2], static_cast<unsigned long long>(seed),
                    mode.c_str());
        if (mode == "run") {
            const double seconds = std::strtod(argv[4], nullptr);
            if (!(seconds > 0))
                throw std::invalid_argument("seconds must be > 0");
            Driver(argv[2], seed).runTimed(seconds);
        } else if (mode == "traced") {
            Driver(argv[2], seed).runTraced(argv[4]);
        } else {
            return usage();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
    return 0;
}
