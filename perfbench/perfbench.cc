/**
 * @file
 * rsvm's benchmark: one single-threaded process that runs a named
 * workload -- a fixed sequence of application runs, each one Cluster
 * built, set up, run to completion and verified -- repeats that
 * sequence (a "pass") for a host-time budget, checks every run, and
 * prints every metric by name, unit and kind.
 *
 * Two kinds of metric:
 *  - simulated: read from the program's public counters after a run;
 *    exact for a given (binary, Config, seed), so every pass of one
 *    process must reproduce them bit for bit (checked);
 *  - host: medians over the passes (pass 0 is a warm-up and is checked
 *    but not timed). Spans are timed in thread CPU time and scaled to
 *    the speed of a reference machine by calibrate(); the layer probes
 *    are wall-clock nanoseconds of this machine.
 *
 * --trace 0 reports the end-to-end metrics with tracing off.
 * --trace 1 interleaves untraced and traced passes, records spans in
 * this file around the calls into each module's public functions,
 * runs the layer probes, writes the spans as Chrome trace-event JSON,
 * and reports the per-layer metrics plus the tracing overhead.
 *
 * The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * The exit code is nonzero when any run failed a correctness check.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_common.hh"
#include "base/rng.hh"
#include "mem/diff.hh"
#include "runtime/cluster.hh"
#include "sim/engine.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace rsvm;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * CPU seconds of the calling thread. The benchmark runs on one thread,
 * so on a quiet machine this equals wall time; unlike wall time it
 * leaves out the time the thread waits for a CPU (descheduled, or its
 * virtual CPU stolen by the hypervisor).
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
ms(SimTime t)
{
    return static_cast<double>(t) / 1e6;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Workloads ------------------------------------------------------------

/**
 * A workload is a fixed list of apps on one geometry and wire, each
 * run under the base and the extended protocol, once per replica seed.
 * With kills set, every extended run also loses one seeded node and
 * asks for its rejoin.
 */
struct Workload
{
    const char *name;
    std::vector<std::string> apps;
    std::uint32_t threadsPerNode;
    bool lossyWire;
    bool kills;
    /** Runs per app and arm; data-heavy's small overhead needs more. */
    std::uint64_t replicas;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<std::string> all = {
        "fft", "lu", "water-nsq", "water-sp", "radix", "volrend"};
    static const std::vector<Workload> w = {
        // Releases, locks and barriers dominate: two-phase
        // propagation, checkpoints, polling locks, heartbeats.
        {"sync-heavy", {"lu", "volrend", "water-nsq", "water-sp"}, 1,
         false, false, 4},
        // Page faults, fetches and diffs dominate; the Fig. 9/10 SMP
        // geometry adds intra-node page locking.
        {"data-heavy", {"fft", "radix"}, 2, false, false, 16},
        // 1% drop/dup/reorder plus jitter: retransmission, duplicate
        // suppression and detector leases under loss, no deaths.
        {"lossy-wire", all, 1, true, false, 4},
        // lossy-wire plus one seeded kill and rejoin per extended run:
        // the only workload that drives recovery and membership.
        {"faults", all, 1, true, true, 4},
    };
    return w;
}

constexpr std::uint32_t kNodes = 8;
constexpr SimTime kRejoinDelay = 4 * kMillisecond;

/** App parameters at @p scale, rounded to each app's constraints. */
apps::AppParams
appParams(const std::string &name, double scale,
          std::uint32_t total_threads)
{
    apps::AppParams p = apps::defaultParams(name);
    p.size = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(p.size) * scale));
    if (name == "fft") {
        std::uint64_t m = 1;
        while (m * m < p.size)
            m <<= 1;
        p.size = m * m;
    } else if (name == "lu") {
        p.size = std::max<std::uint64_t>(32, (p.size + 31) / 32 * 32);
    } else if (name == "volrend") {
        p.size = std::max<std::uint64_t>(8, (p.size + 7) / 8 * 8);
    } else {
        p.size = std::max<std::uint64_t>(
            total_threads,
            (p.size + total_threads - 1) / total_threads *
                total_threads);
    }
    return p;
}

/** One application run of a pass. */
struct RunSpec
{
    std::string app;
    ProtocolKind protocol;
    std::uint32_t threadsPerNode;
    bool lossyWire;
    std::uint64_t seed;
    /** Seeded node kill (and rejoin) when set. */
    bool kill = false;
    PhysNodeId victim = 0;
    SimTime killAt = 0;
};

Config
configFor(const RunSpec &spec)
{
    Config cfg;
    cfg.numNodes = kNodes;
    cfg.threadsPerNode = spec.threadsPerNode;
    cfg.protocol = spec.protocol;
    cfg.seed = spec.seed;
    if (spec.lossyWire) {
        cfg.netDropProb = 0.01;
        cfg.netDupProb = 0.01;
        cfg.netReorderProb = 0.01;
        cfg.netJitterMax = 20 * kMicrosecond;
    }
    return cfg;
}

// ---- Tracing --------------------------------------------------------------

/** One timed interval of host time; spans of one pass nest. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/**
 * Host-time recorder. Timing is always taken (the end-to-end host
 * metrics need it); spans are only kept when enabled, so a traced
 * pass differs from an untraced one by exactly the recording cost.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    void setEnabled(bool on) { enabled_ = on; }

    /** Seconds since the tracer's origin. */
    double now() const { return secondsBetween(origin_, Clock::now()); }

    /** Open a span started at @p start; -1 when not recording. */
    int
    open(std::string name, double start)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), start, start, top_});
        top_ = static_cast<int>(spans_.size()) - 1;
        return top_;
    }

    /** Close span @p id (if recorded); returns seconds since @p started. */
    double
    close(int id, double started)
    {
        double now = this->now();
        if (id >= 0) {
            spans_[id].end = now;
            top_ = spans_[id].parent;
        }
        return now - started;
    }

    /** Write the spans as Chrome trace-event JSON (µs timestamps). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                          s.name.c_str(), s.start * 1e6,
                          (s.end - s.start) * 1e6, i, s.parent,
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point origin_;
    bool enabled_ = false;
    int top_ = -1;
    std::vector<Span> spans_;
};

/**
 * RAII span: records into @p tracer (wall time) and adds its thread CPU
 * seconds to @p sum.
 */
class Timed
{
  public:
    Timed(Tracer &tracer, std::string name, double *sum = nullptr)
        : tracer_(tracer), sum_(sum), started_(tracer.now()),
          cpuStarted_(cpuSeconds()),
          id_(tracer.open(std::move(name), started_))
    {
    }
    ~Timed()
    {
        tracer_.close(id_, started_);
        if (sum_)
            *sum_ += cpuSeconds() - cpuStarted_;
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Tracer &tracer_;
    double *sum_;
    double started_;
    double cpuStarted_;
    int id_;
};

// ---- Host speed ------------------------------------------------------------

/**
 * CPU seconds of one calibrate() call on the reference machine: a
 * quiet shared 4-vCPU Intel Xeon VM, RelWithDebInfo, GCC 12.
 */
constexpr double kReferenceCalibrateS = 1.0e-3;

volatile std::uint64_t calibrateSink;

/**
 * A fixed piece of CPU work that calls nothing in rsvm: a binary heap
 * of about 1024 xorshift keys and scattered updates of a 32 KB table,
 * like the simulator's event queue and page tables. On a shared host
 * the CPU time of any code, calibrate() and rsvm alike, stretches by
 * tens of percent for minutes at a time while neighbours are busy. So
 * calibrate() runs before every app run, and a pass's host times are
 * scaled by kReferenceCalibrateS over its mean calibrate() time: they
 * read as CPU seconds on the reference machine. Returns the call's CPU
 * seconds.
 */
double
calibrate()
{
    constexpr int kSteps = 30000;
    constexpr std::size_t kHeap = 1024;
    static std::vector<std::uint64_t> table(std::size_t{1} << 12);
    std::vector<std::uint64_t> heap;
    heap.reserve(kHeap + 1);
    std::uint64_t x = 88172645463325252ull, acc = 0;
    double start = cpuSeconds();
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push_back(x);
        std::push_heap(heap.begin(), heap.end());
        if (heap.size() > kHeap) {
            acc += heap.front();
            std::pop_heap(heap.begin(), heap.end());
            heap.pop_back();
        }
        table[x & (table.size() - 1)] += acc;
    }
    calibrateSink = acc + table[x & (table.size() - 1)];
    return cpuSeconds() - start;
}

// ---- One application run -----------------------------------------------------

/** Everything one run yields: simulated results, host times, verdict. */
struct RunResult
{
    RunSpec spec;
    std::string failure; // empty when every check passed
    SimTime wall = 0;
    TimeBreakdown avg;
    Counters c;
    SimTime lastRecovery = 0;
    double clusterSetupS = 0;
    double appSetupS = 0;
    double runS = 0;
    double verifyS = 0;
};

RunResult
runOne(const RunSpec &spec, double scale, Tracer &tracer)
{
    RunResult r;
    r.spec = spec;
    const char *arm =
        spec.protocol == ProtocolKind::Base ? "base" : "ext";
    Timed whole(tracer, "app_run " + spec.app + " " + arm);

    Config cfg = configFor(spec);
    std::unique_ptr<Cluster> cluster;
    {
        Timed t(tracer, "runtime.setup", &r.clusterSetupS);
        cluster = std::make_unique<Cluster>(cfg);
    }
    apps::AppInstance app;
    {
        Timed t(tracer, "apps.setup", &r.appSetupS);
        app = apps::makeApp(
            spec.app,
            appParams(spec.app, scale, cfg.totalThreads()));
        app.setup(*cluster);
        if (spec.kill) {
            cluster->injector().killAt(spec.victim, spec.killAt);
            cluster->joinManager()->scheduleJoin(
                spec.killAt + kRejoinDelay, spec.victim);
        }
        cluster->spawn(app.threadFn);
    }
    try {
        Timed t(tracer, "sim.run", &r.runS);
        cluster->run();
    } catch (const ClusterLostError &e) {
        r.failure = std::string(e.what()).substr(0, 160);
    }
    r.wall = cluster->wallTime();
    r.avg = cluster->avgBreakdown();
    r.c = cluster->totalCounters();
    if (RecoveryManager *rm = cluster->recovery())
        r.lastRecovery = rm->lastRecoveryTime();
    if (!r.failure.empty())
        return r;

    apps::AppResult v;
    {
        Timed t(tracer, "apps.verify", &r.verifyS);
        v = app.verify(*cluster);
    }
    if (!v.ok) {
        r.failure = "verify: " + v.detail;
    } else if (r.c.livelockBreaks != 0) {
        r.failure = "livelockBreaks != 0";
    } else if (r.c.falseSuspicionsFenced != 0) {
        r.failure = "false suspicion fenced";
    } else if (spec.protocol == ProtocolKind::FaultTolerant &&
               !spec.kill) {
        if (std::uint64_t bad = cluster->checkReplicaConsistency())
            r.failure = std::to_string(bad) + " inconsistent replicas";
    } else if (spec.kill) {
        if (r.c.recoveries == 0 || r.lastRecovery == 0)
            r.failure = "no recovery";
        else if (r.c.rejoins == 0)
            r.failure = "no rejoin";
    }
    return r;
}

/**
 * The workload's run list for one process: every app under the base
 * and the extended protocol, once per replica with Config::seed =
 * seed * replicas + replica (more simulated work per run, so a metric
 * summed over the replicas spreads less from seed to seed).
 *
 * On faults the extended run also kills one node, with a rejoin
 * requested kRejoinDelay later. The seed draws the schedule,
 * stratified so the replicas cover the space evenly: distinct victims
 * (a seeded permutation), and replica r's kill time uniform in the
 * r-th of `replicas` equal slices of the first half of the run, whose
 * length a calibration run without the kill measures.
 */
std::vector<RunSpec>
planRuns(const Workload &w, std::uint64_t seed, double scale,
         Tracer &tracer, std::vector<RunResult> &calibration)
{
    std::vector<RunSpec> plan;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6b696c6cull);
    for (const std::string &app : w.apps) {
        std::vector<PhysNodeId> victims(kNodes);
        for (PhysNodeId n = 0; n < kNodes; ++n)
            victims[n] = n;
        for (std::uint32_t n = kNodes - 1; n > 0; --n)
            std::swap(victims[n], victims[rng.below(n + 1)]);
        for (std::uint64_t rep = 0; rep < w.replicas; ++rep) {
            RunSpec spec{app, ProtocolKind::Base, w.threadsPerNode,
                         w.lossyWire, seed * w.replicas + rep};
            plan.push_back(spec);
            spec.protocol = ProtocolKind::FaultTolerant;
            if (w.kills) {
                RunResult cal = runOne(spec, scale, tracer);
                calibration.push_back(cal);
                SimTime slice =
                    std::max<SimTime>(cal.wall / 2 / w.replicas, 1);
                spec.kill = true;
                spec.victim = victims[rep % kNodes];
                spec.killAt = 1 + rep * slice +
                              static_cast<SimTime>(rng.below(slice));
            }
            plan.push_back(spec);
        }
    }
    return plan;
}

// ---- Simulated metrics -------------------------------------------------------

/** A reported number; kind is "simulated", "host" or "outcome". */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    const char *kind;
};

/** FNV-1a over a byte string, chained. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of every simulated output of a pass (build comparison). */
std::uint64_t
simDigest(const std::vector<RunResult> &runs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const RunResult &r : runs) {
        std::string s = r.spec.app + "/" +
                        std::to_string(static_cast<int>(r.spec.protocol)) +
                        "/" + std::to_string(r.wall) + "/" +
                        std::to_string(r.lastRecovery) + "/" +
                        r.c.toString();
        for (unsigned i = 0; i < kNumComps; ++i)
            s += "/" + std::to_string(r.avg.get(static_cast<Comp>(i)));
        h = fnv1a(h, s);
    }
    return h;
}

/** Simulated wall time of @p app under @p k, summed over replicas. */
SimTime
wallOf(const std::vector<RunResult> &runs, const std::string &app,
       ProtocolKind k)
{
    SimTime sum = 0;
    for (const RunResult &r : runs)
        if (r.spec.app == app && r.spec.protocol == k)
            sum += r.wall;
    return sum;
}

/** ft_overhead_pct over the apps that have both arms. */
double
overheadPct(const std::vector<RunResult> &runs, const Workload &w)
{
    double base = 0, ext = 0;
    for (const std::string &app : w.apps) {
        SimTime b = wallOf(runs, app, ProtocolKind::Base);
        if (!b)
            continue;
        base += static_cast<double>(b);
        ext += static_cast<double>(
            wallOf(runs, app, ProtocolKind::FaultTolerant));
    }
    return base > 0 ? 100.0 * (ext - base) / base : 0.0;
}

/** Simulated metrics of one pass (extended-protocol runs). */
void
simulatedMetrics(const std::vector<RunResult> &runs, const Workload &w,
                 std::vector<Metric> &out)
{
    Counters c;
    TimeBreakdown avg;
    SimTime wall = 0;
    for (const RunResult &r : runs) {
        if (r.spec.protocol != ProtocolKind::FaultTolerant)
            continue;
        c += r.c;
        avg += r.avg;
        wall += r.wall;
    }
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    auto add = [&](const char *name, double v, const char *unit) {
        out.push_back({name, v, unit, "simulated"});
    };
    add("sim_ms", ms(wall), "ms");
    add("ft_overhead_pct", overheadPct(runs, w), "%");
    add("recovery_ms", ms(c.recoveryTimeNsHist.sum()), "ms");

    add("net.msgs", d(c.messagesSent), "count");
    add("net.bytes", d(c.bytesSent), "bytes");
    add("net.acks", d(c.acksSent), "count");
    add("net.ack_piggyback_ratio",
        ratio(d(c.acksPiggybacked), d(c.acksSent + c.acksPiggybacked)),
        "ratio");
    add("net.post_queue_stalls", d(c.postQueueStalls), "count");
    add("net.retx_clean", w.lossyWire ? 0.0 : d(c.retransmits), "count");
    add("net.retx_per_drop",
        ratio(d(c.retransmits), d(c.netDropsInjected)), "ratio");
    add("net.dup_drops", d(c.dupDrops), "count");
    add("net.stale_epoch_rejected", d(c.staleEpochRejected), "count");

    add("mem.twins", d(c.twinsCreated), "count");
    add("mem.pages_diffed", d(c.pagesDiffed), "count");
    add("mem.home_pages_diffed", d(c.homePagesDiffed), "count");
    add("mem.diff_bytes", d(c.diffBytesSent), "bytes");

    add("svm.data_ms", ms(avg.get(Comp::DataWait)), "ms");
    add("svm.page_faults", d(c.pageFaults), "count");
    add("svm.remote_fetches", d(c.remotePageFetches), "count");
    add("svm.diff_ms", ms(avg.get(Comp::Diff)), "ms");
    // A propagation pass posts one message per page diff, or, with
    // Config::batchDiffs, packs several into one message per home.
    double pages_posted = d(c.diffMsgsSent - c.batchPagesHist.count() +
                            c.propPagesPacked);
    add("svm.prop_batches", d(c.propPhases), "count");
    add("svm.pages_per_batch", ratio(pages_posted, d(c.propPhases)),
        "pages");
    add("svm.release_phase_mean_us", c.phaseWallHist.mean() / 1e3, "us");
    add("svm.release_phase_p99_us",
        d(c.phaseWallHist.percentile(99)) / 1e3, "us");
    add("svm.lock_ms", ms(avg.get(Comp::LockWait)), "ms");
    add("svm.lock_polls", d(c.lockPollRounds), "count");
    add("svm.lock_retry_ratio",
        ratio(d(c.lockPollRetries), d(c.lockPollRounds)), "ratio");
    add("svm.lock_wait_mean_us", c.lockWaitNsHist.mean() / 1e3, "us");
    add("svm.lock_wait_p99_us",
        d(c.lockWaitNsHist.percentile(99)) / 1e3, "us");
    add("svm.barrier_ms", ms(avg.get(Comp::BarrierWait)), "ms");
    add("svm.protocol_ms", ms(avg.get(Comp::Protocol)), "ms");

    add("ftsvm.ckpt_ms", ms(avg.get(Comp::Ckpt)), "ms");
    add("ftsvm.checkpoints", d(c.checkpointsTaken), "count");
    add("ftsvm.ckpt_bytes_avg",
        ratio(d(c.checkpointBytes), d(c.checkpointsTaken)), "bytes");
    add("ftsvm.pages_rereplicated", d(c.pagesReReplicated), "count");
    add("ftsvm.rereplication_bytes", d(c.reReplicationBytes), "bytes");
    add("ftsvm.threads_restored", d(c.threadsRestored), "count");
    add("ftsvm.recovery_restarts", d(c.recoveryRestarts), "count");

    add("runtime.heartbeats", d(c.heartbeatsSent), "count");
    add("runtime.join_ms", ms(c.joinTimeNsHist.sum()), "ms");
    add("runtime.bulk_transfer_bytes", d(c.bulkTransferBytes), "bytes");
    add("runtime.false_suspicions", d(c.falseSuspicionsFenced), "count");

    add("apps.compute_ms", ms(avg.get(Comp::Compute)), "ms");
}

// ---- Layer probes ------------------------------------------------------------

constexpr int kProbeReps = 5;

/** Host ns per event: Engine::schedule + dispatch, 1024 in flight. */
double
probeEventNs()
{
    constexpr std::uint64_t kEvents = 400000;
    constexpr int kInFlight = 1024;
    std::vector<double> reps;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        Config cfg;
        Engine eng(cfg);
        std::uint64_t fired = 0;
        std::uint64_t lcg = 12345;
        std::function<void()> tick = [&]() {
            if (++fired + kInFlight > kEvents)
                return;
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            eng.schedule(1 + (lcg >> 54), tick);
        };
        auto t0 = Clock::now();
        for (int i = 0; i < kInFlight; ++i)
            eng.schedule(1 + i, tick);
        eng.run();
        reps.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                       static_cast<double>(fired));
    }
    return median(reps);
}

/** Host ns per SimThread::delay round trip (fiber switch + resume). */
double
probeDelayNs()
{
    constexpr int kDelays = 200000;
    std::vector<double> reps;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        Config cfg;
        Engine eng(cfg);
        SimThread &th = eng.createThread("probe");
        th.start([&th]() {
            for (int i = 0; i < kDelays; ++i)
                th.delay(100, Comp::Compute);
        });
        auto t0 = Clock::now();
        eng.run();
        reps.push_back(secondsBetween(t0, Clock::now()) * 1e9 / kDelays);
    }
    return median(reps);
}

/**
 * Host ns per 4 KB page for diff::compute and diff::apply over pages
 * whose modified-word density ranges from one word to every word.
 * Returns a checksum of the results, so the work cannot be elided.
 */
std::uint64_t
probeDiff(double &compute_ns, double &apply_ns)
{
    constexpr std::size_t kPage = 4096;
    constexpr int kPages = 64;
    constexpr int kRounds = 200;
    std::vector<std::vector<std::byte>> twins, pages;
    Rng rng(42);
    for (int p = 0; p < kPages; ++p) {
        std::vector<std::byte> twin(kPage);
        for (auto &b : twin)
            b = static_cast<std::byte>(rng.below(256));
        std::vector<std::byte> cur = twin;
        std::size_t stride = std::size_t{1} << (p % 11); // 1..1024 words
        for (std::size_t w = rng.below(stride); w < kPage / 4; w += stride)
            cur[w * 4] = static_cast<std::byte>(
                static_cast<unsigned>(cur[w * 4]) ^ 0x5a);
        twins.push_back(std::move(twin));
        pages.push_back(std::move(cur));
    }
    std::vector<double> comp_reps, apply_reps;
    std::vector<std::byte> target(kPage);
    std::uint64_t sink = 0;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        std::vector<Diff> diffs;
        auto t0 = Clock::now();
        for (int round = 0; round < kRounds; ++round) {
            for (int p = 0; p < kPages; ++p) {
                Diff d = diff::compute(static_cast<PageId>(p), 0, 1,
                                       pages[p], twins[p]);
                sink += d.runs.size();
                if (round == 0)
                    diffs.push_back(std::move(d));
            }
        }
        auto t1 = Clock::now();
        for (int round = 0; round < kRounds; ++round) {
            for (int p = 0; p < kPages; ++p) {
                std::memcpy(target.data(), twins[p].data(), kPage);
                diff::apply(diffs[p], target.data(), kPage);
                sink += static_cast<unsigned>(target[p]);
            }
        }
        auto t2 = Clock::now();
        double n = static_cast<double>(kPages) * kRounds;
        comp_reps.push_back(secondsBetween(t0, t1) * 1e9 / n);
        apply_reps.push_back(secondsBetween(t1, t2) * 1e9 / n);
    }
    compute_ns = median(comp_reps);
    apply_ns = median(apply_reps);
    return sink;
}

// ---- Reporting ---------------------------------------------------------------

const std::vector<std::string> kEndToEnd = {
    "sim_ms", "ft_overhead_pct", "host_s", "setup_s", "peak_rss_mb",
};

const std::vector<std::string> kPerLayer = {
    "sim.event_ns", "sim.delay_ns", "sim.run_s",
    "net.msgs", "net.bytes", "net.acks", "net.ack_piggyback_ratio",
    "net.post_queue_stalls", "net.retx_clean", "net.retx_per_drop",
    "net.dup_drops", "net.stale_epoch_rejected",
    "mem.twins", "mem.pages_diffed", "mem.home_pages_diffed",
    "mem.diff_bytes", "mem.diff_compute_ns", "mem.diff_apply_ns",
    "svm.data_ms", "svm.page_faults", "svm.remote_fetches", "svm.diff_ms",
    "svm.prop_batches", "svm.pages_per_batch",
    "svm.release_phase_mean_us", "svm.release_phase_p99_us",
    "svm.lock_ms", "svm.lock_polls", "svm.lock_retry_ratio",
    "svm.lock_wait_mean_us", "svm.lock_wait_p99_us", "svm.barrier_ms",
    "svm.protocol_ms",
    "ftsvm.ckpt_ms", "ftsvm.checkpoints", "ftsvm.ckpt_bytes_avg",
    "ftsvm.ext_host_share", "ftsvm.pages_rereplicated",
    "ftsvm.rereplication_bytes", "ftsvm.threads_restored",
    "ftsvm.recovery_restarts", "ftsvm.recovery_ms",
    "runtime.setup_s", "runtime.heartbeats", "runtime.join_ms",
    "runtime.bulk_transfer_bytes", "runtime.false_suspicions",
    "apps.setup_s", "apps.verify_s", "apps.compute_ms",
    "trace.host_overhead_s",
};

/** Approximate per-app Fig. 7 overheads read off the paper's bars. */
const std::map<std::string, const char *> kPaperFig7 = {
    {"fft", "~35%"}, {"lu", "~45%"}, {"water-nsq", "~55%"},
    {"water-sp", "~67%"}, {"radix", "20%"},
};

std::string
jsonNumber(double v)
{
    char buf[64];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

const Metric *
find(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 1.0;
    std::string traceOut;
    std::string report;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sync-heavy|data-heavy|lossy-wire|faults --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--trace-out FILE] "
                 "[--report FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (k == "--scale") {
            a.scale = std::strtod(v.c_str(), &end);
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else if (k == "--report") {
            a.report = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end)
            usage(("bad number for " + k).c_str());
    }
    if (a.seconds <= 0 || a.scale <= 0)
        usage("--seconds and --scale must be positive");
    return a;
}

/** What the passes of one process measured. */
struct Measured
{
    std::vector<RunResult> first; // pass 0: the simulated results
    std::uint64_t digest = 0;
    bool deterministic = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Per timed pass sums of host seconds, keyed "[traced.]<what>". */
    std::map<std::string, std::vector<double>> host;
    int timedUntraced = 0;
    int timedTraced = 0;
};

void
tally(Measured &m, const std::vector<RunResult> &runs, const std::string &tag)
{
    for (const RunResult &r : runs) {
        m.attempted++;
        if (!r.failure.empty()) {
            m.failed++;
            m.failures.push_back(r.spec.app + " " + tag + ": " + r.failure);
        }
    }
}

/**
 * Run passes of @p plan: pass 0 warms up, then at least three timed
 * passes and as many more as fit in the budget. A traced run
 * alternates untraced (odd) and traced (even) passes. Every pass must
 * reproduce pass 0's simulated results exactly.
 */
Measured
measure(const std::vector<RunSpec> &plan, const Args &args, Tracer &tracer)
{
    constexpr int kMinTimedPasses = 3;
    Measured m;
    Clock::time_point t_start = Clock::now();
    for (int pass = 0;; ++pass) {
        bool traced = args.trace && pass > 0 && pass % 2 == 0;
        tracer.setEnabled(traced);
        std::vector<RunResult> results;
        double calibrate_s = 0;
        {
            Timed t(tracer, "pass " + std::to_string(pass));
            for (const RunSpec &s : plan) {
                calibrate_s += calibrate();
                results.push_back(runOne(s, args.scale, tracer));
            }
        }
        tracer.setEnabled(false);
        tally(m, results, "pass " + std::to_string(pass));

        std::uint64_t dg = simDigest(results);
        if (pass == 0) {
            m.first = results;
            m.digest = dg;
            if (m.failed)
                break; // a failing workload is not timed
            continue;
        }
        m.deterministic = m.deterministic && dg == m.digest;

        // This pass's CPU seconds times to_ref are reference seconds.
        double to_ref = kReferenceCalibrateS *
                        static_cast<double>(plan.size()) / calibrate_s;
        std::map<std::string, double> sums;
        for (const RunResult &r : results) {
            sums["cpu_s"] += r.runS;
            sums["host_s"] += r.runS * to_ref;
            if (r.spec.protocol == ProtocolKind::FaultTolerant)
                sums["ext_s"] += r.runS * to_ref;
            sums["setup_s"] += (r.clusterSetupS + r.appSetupS) * to_ref;
            sums["runtime_setup_s"] += r.clusterSetupS * to_ref;
            sums["apps_setup_s"] += r.appSetupS * to_ref;
            sums["verify_s"] += r.verifyS * to_ref;
        }
        sums["to_ref"] = to_ref;
        for (const auto &[k, v] : sums)
            m.host[(traced ? "traced." : "") + k].push_back(v);
        (traced ? m.timedTraced : m.timedUntraced)++;

        bool enough = m.timedUntraced >= kMinTimedPasses &&
                      (!args.trace || m.timedTraced >= kMinTimedPasses);
        if (m.failed ||
            (enough && secondsBetween(t_start, Clock::now()) >= args.seconds))
            break;
    }
    return m;
}

/** Every metric of the run: simulated, host, outcome and probes. */
std::vector<Metric>
collectMetrics(const Workload &w, Measured &m, const Args &args)
{
    std::vector<Metric> metrics;
    simulatedMetrics(m.first, w, metrics);
    auto host = [&](const char *name, double v, const char *unit) {
        metrics.push_back({name, v, unit, "host"});
    };
    auto med = [&m](const char *key) { return median(m.host[key]); };
    host("host_s", med("host_s"), "s");
    host("setup_s", med("setup_s"), "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    host("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    metrics.push_back({"fail_ratio",
                       ratio(static_cast<double>(m.failed),
                             static_cast<double>(m.attempted)),
                       "ratio", "outcome"});
    if (!args.trace)
        return metrics;

    Clock::time_point t0 = Clock::now();
    double event_ns = probeEventNs();
    double delay_ns = probeDelayNs();
    double compute_ns = 0, apply_ns = 0;
    std::uint64_t checksum = probeDiff(compute_ns, apply_ns);
    std::printf("# layer probes took %.2f s (diff checksum %llu)\n",
                secondsBetween(t0, Clock::now()),
                static_cast<unsigned long long>(checksum));
    host("sim.event_ns", event_ns, "ns");
    host("sim.delay_ns", delay_ns, "ns");
    host("sim.run_s", med("traced.host_s"), "s");
    host("mem.diff_compute_ns", compute_ns, "ns");
    host("mem.diff_apply_ns", apply_ns, "ns");
    host("ftsvm.ext_host_share",
         ratio(med("traced.ext_s"), med("traced.host_s")), "ratio");
    host("runtime.setup_s", med("traced.runtime_setup_s"), "s");
    host("apps.setup_s", med("traced.apps_setup_s"), "s");
    host("apps.verify_s", med("traced.verify_s"), "s");
    host("trace.host_overhead_s", med("traced.host_s") - med("host_s"), "s");
    // recovery_ms also belongs to the ftsvm layer's table.
    metrics.push_back({"ftsvm.recovery_ms",
                       find(metrics, "recovery_ms")->value, "ms",
                       "simulated"});
    return metrics;
}

/** Human-readable report: runs, every metric, paper figures, digest. */
void
printReport(const Workload &w, const std::vector<RunSpec> &plan,
            const Measured &m, const std::vector<Metric> &metrics)
{
    auto per_pass = [&m](const char *what, const char *key) {
        std::printf("# %s per timed untraced pass:", what);
        if (auto it = m.host.find(key); it != m.host.end())
            for (double v : it->second)
                std::printf(" %.4f", v);
        std::printf("\n");
    };
    per_pass("CPU s in Cluster::run", "cpu_s");
    per_pass("reference s per CPU s", "to_ref");
    per_pass("host_s", "host_s");
    std::printf("# passes: %d untraced + %d traced timed (+1 warm-up), "
                "%zu app runs each\n",
                m.timedUntraced, m.timedTraced, plan.size());
    for (const RunResult &r : m.first)
        std::printf("run %-10s %-4s seed=%llu wall=%.3f ms recovery=%.3f ms "
                    "%s\n",
                    r.spec.app.c_str(),
                    r.spec.protocol == ProtocolKind::Base ? "base" : "ext",
                    static_cast<unsigned long long>(r.spec.seed), ms(r.wall),
                    ms(r.c.recoveryTimeNsHist.sum()),
                    r.failure.empty() ? "ok" : r.failure.c_str());
    for (const Metric &x : metrics)
        std::printf("metric %-28s %16.6f %-6s %s\n", x.name.c_str(),
                    x.value, x.unit.c_str(), x.kind);

    std::printf("# paper reference: unvalidated comparison against the "
                "paper at scaled problem sizes; not gated\n");
    if (!w.lossyWire) {
        for (const std::string &app : w.apps) {
            double b =
                static_cast<double>(wallOf(m.first, app, ProtocolKind::Base));
            double e = static_cast<double>(
                wallOf(m.first, app, ProtocolKind::FaultTolerant));
            auto fig = kPaperFig7.find(app);
            std::printf("paper ft_overhead_pct %-10s measured %+7.1f%%  "
                        "paper Fig. 7 %s (measured on %ux%u)\n",
                        app.c_str(), b > 0 ? 100.0 * (e - b) / b : 0.0,
                        fig != kPaperFig7.end() ? fig->second : "n/a",
                        kNodes, w.threadsPerNode);
        }
    }
    std::printf("paper ftsvm.ckpt_bytes_avg measured %.0f B  paper §5.3 "
                "2-2.8 KB\n",
                find(metrics, "ftsvm.ckpt_bytes_avg")->value);
    std::printf("sim_digest %016llx build=%s compiler=\"%s\"\n",
                static_cast<unsigned long long>(m.digest),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
    for (const std::string &f : m.failures)
        std::printf("FAILED %s\n", f.c_str());
}

/** Every metric with its kind, for the self-test and offline use. */
bool
writeReport(const std::string &path, const Workload &w, const Args &args,
            const Measured &m, bool correct,
            const std::vector<Metric> &metrics)
{
    std::ofstream out(path);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(m.digest));
    out << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
        << ", \"scale\": " << jsonNumber(args.scale)
        << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"compiler\": \"" << PERFBENCH_COMPILER
        << "\", \"sim_digest\": \"" << digest
        << "\", \"correct\": " << (correct ? "true" : "false")
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &x = metrics[i];
        out << (i ? ", " : "") << "\"" << x.name << "\": {\"value\": "
            << jsonNumber(x.value) << ", \"unit\": \"" << x.unit
            << "\", \"kind\": \"" << x.kind << "\"}";
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

int
run(const Args &args)
{
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (args.workload == cand.name)
            w = &cand;
    if (!w)
        usage(("unknown workload '" + args.workload + "'").c_str());

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%g\n",
                w->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, args.scale);
    std::printf("# build type=%s compiler=\"%s\"\n", PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);

    Tracer tracer(Clock::now());
    std::vector<RunResult> calibration;
    std::vector<RunSpec> plan =
        planRuns(*w, args.seed, args.scale, tracer, calibration);
    for (const RunSpec &s : plan)
        if (s.kill)
            std::printf("# kill plan %-10s seed=%llu victim=%u at=%.3f ms, "
                        "rejoin request at=%.3f ms\n",
                        s.app.c_str(), static_cast<unsigned long long>(s.seed),
                        s.victim, ms(s.killAt), ms(s.killAt + kRejoinDelay));

    Measured m = measure(plan, args, tracer);
    tally(m, calibration, "calibration");
    if (!m.deterministic)
        m.failures.push_back("simulated results differ between passes");
    bool correct = m.failed == 0 && m.deterministic;

    std::vector<Metric> metrics = collectMetrics(*w, m, args);
    printReport(*w, plan, m, metrics);
    if (args.trace && !args.traceOut.empty() && !tracer.write(args.traceOut)) {
        std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
        return 2;
    }
    if (!args.report.empty() &&
        !writeReport(args.report, *w, args, m, correct, metrics)) {
        std::fprintf(stderr, "cannot write %s\n", args.report.c_str());
        return 2;
    }

    // The result line: exactly the end-to-end (untraced) or per-layer
    // (traced) metrics of BENCHMARK.json.
    const std::vector<std::string> &names = args.trace ? kPerLayer : kEndToEnd;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(m.attempted) +
                       ", \"failed\": " + std::to_string(m.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Metric *x = find(metrics, names[i]);
        if (!x) {
            std::fprintf(stderr, "metric %s not computed\n", names[i].c_str());
            return 2;
        }
        json += (i ? ", \"" : "\"") + x->name + "\": {\"value\": " +
                jsonNumber(x->value) + ", \"unit\": \"" + x->unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return run(parseArgs(argc, argv));
}
