/**
 * @file
 * sim_suite: the nine Smalltalk workloads in-process, no serving
 * stack, program cache off. Each of nproc threads owns one ComEngine
 * per program and runs the same seeded order of all nine a fixed
 * number of times, in segments. Each segment starts with a set-up:
 * every thread builds fresh engines and runs each program once. In
 * the loop, each iteration resets the program's engine and runs it
 * once to compile (untimed), then times a second Engine::run, which
 * finds its compile memoized and starts from the same machine state
 * every time.
 *
 * One thread measures one vCPU, so rates are taken per thread and
 * summed over all of them.
 */

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "api/engine.hpp"
#include "daemon.hpp"
#include "net/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = com::api;

namespace {

/** Passes of the nine programs per second of --seconds. */
constexpr double kPassesPerSecond = 25.0;
/**
 * The timed loop runs in this many segments, each on engines freshly
 * built by its own measured set-up, so set-ups are spread across the
 * run; setup_s is their median. A set-up is about 25 ms of work, so
 * each lands wholly in one vCPU state, and the floor of a run's ten
 * caught a moment with every vCPU fast in about a third of runs: over
 * three sets of ten runs, the sets' medians of the floor differed by
 * up to 19%, those of the median by 3%.
 */
constexpr std::size_t kSegments = 10;
/**
 * Each vCPU of the shared host flips between a fast state and one
 * about 1.7x slower every few seconds (one thread's fib runs read
 * 4.2 ms, then 7.5 ms, within one run), and the share of time in each
 * moves every mean and median of the suite by 20% and more from run
 * to run. The gated timings are therefore read over the passes a
 * thread ran in the fast state: a pass runs every program once, so
 * passes are comparable, and a pass counts as fast if its time is
 * within kFastFactor of the thread's kReferenceQuantile pass time.
 * Every run of a fast pass counts, slow runs included; the mean over
 * all runs is reported beside the gated figures by the traced run.
 */
constexpr double kFastFactor = 1.2;
constexpr double kReferenceQuantile = 0.01;
/** Latency limit for within_limit (one Engine::run). */
constexpr double kLimitMs = 25.0;
/** Passes the traced layer walk replays. */
constexpr std::size_t kWalkPasses = 30;

/** Start gate shared by the threads of one segment. */
class Gate
{
  public:
    void
    arrive()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++ready_;
        cv_.notify_all();
    }

    void
    waitReady(unsigned n)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return ready_ >= n; });
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = true;
        cv_.notify_all();
    }

    void
    waitOpen()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return open_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    unsigned ready_ = 0;
    bool open_ = false;
};

/** What one thread slot measured over every segment. */
struct ThreadReport
{
    std::vector<double> runMs; ///< per position of the order
    std::vector<std::uint64_t> opsPerRun;   ///< per program
    std::vector<std::uint64_t> cyclesPerRun; ///< per program
    std::uint64_t warmFailures = 0;
    std::uint64_t runFailures = 0;
    /** Per program: cycles, instrs and cache/GC counters at the end
     *  of the latest segment. */
    std::vector<std::vector<std::uint64_t>> signature;
    /** The latest segment's engines, kept alive until the next
     *  set-up (the last segment's until rss_mb is read). */
    std::vector<std::unique_ptr<api::ComEngine>> engines;
};

/** Set up fresh engines, wait at @p gate, run order[begin, end). */
void
suiteThread(const std::vector<MixEntry> &mix,
            const std::vector<std::uint32_t> &order, std::size_t begin,
            std::size_t end, Gate &gate, ThreadReport &rep)
{
    std::vector<std::unique_ptr<api::ComEngine>> engines;
    std::vector<std::uint64_t> instrs(mix.size(), 0);
    for (const MixEntry &e : mix) {
        engines.push_back(std::make_unique<api::ComEngine>());
        api::RunOutcome o = engines.back()->run(e.spec);
        instrs[engines.size() - 1] += o.operations;
        rep.warmFailures += reproduces(e, o) ? 0 : 1;
    }
    gate.arrive();
    gate.waitOpen();

    // Each iteration: reset and a first run (compile, untimed), then
    // the timed run with the compile memoized. Every timed run of one
    // program starts from the same machine state, so it must report
    // the same guest cycles every time, in every segment.
    rep.runMs.resize(order.size());
    rep.opsPerRun.resize(mix.size(), 0);
    rep.cyclesPerRun.resize(mix.size(), 0);
    for (std::size_t k = begin; k < end; ++k) {
        std::uint32_t p = order[k];
        api::ComEngine &e = *engines[p];
        e.reset();
        bool ok = reproduces(mix[p], e.run(mix[p].spec));
        Clock::time_point t0 = Clock::now();
        api::RunOutcome o = e.run(mix[p].spec);
        double s = secondsBetween(t0, Clock::now());
        rep.runMs[k] = s * 1e3;
        instrs[p] += o.operations;
        if (rep.cyclesPerRun[p] == 0) {
            rep.cyclesPerRun[p] = o.cycles;
            rep.opsPerRun[p] = o.operations;
        }
        ok = ok && reproduces(mix[p], o) &&
             o.cycles == rep.cyclesPerRun[p] &&
             o.operations == rep.opsPerRun[p];
        rep.runFailures += ok ? 0 : 1;
    }

    rep.signature.clear();
    for (std::size_t p = 0; p < mix.size(); ++p) {
        com::core::Machine &m = engines[p]->machine();
        std::vector<std::uint64_t> sig = {
            rep.cyclesPerRun[p],
            instrs[p],
            m.pipeline().cycles(),
            m.gc().collections()};
        for (const com::sim::StatGroup *g :
             {&m.itlb().stats(), &m.icache().stats(), &m.atlb().stats()})
            for (const char *c : {"hits", "misses", "evictions"})
                sig.push_back(g->counterValue(c));
        for (const char *c : {"return_hits", "return_misses", "copybacks"})
            sig.push_back(m.contextCache().stats().counterValue(c));
        rep.signature.push_back(std::move(sig));
    }
    rep.engines = std::move(engines);
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

} // namespace

Result
runSimSuite(const Options &o)
{
    Result res;
    std::vector<MixEntry> mix = suiteMix();
    std::string why;
    if (!recordReferences(mix, &why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        res.count(1, 1);
        return res;
    }

    unsigned threads = nproc();
    std::size_t passes =
        kSegments * std::max<std::size_t>(
                        1, static_cast<std::size_t>(std::llround(
                               o.seconds * kPassesPerSecond / kSegments)));
    std::vector<std::uint32_t> order =
        suiteOrder(o.seed, mix.size(), passes);
    std::size_t per_segment = order.size() / kSegments;

    // Each segment: the threads build fresh engines in parallel (the
    // measured set-up), then all run the segment's slice of the order.
    // Every thread runs the same slice on its own machines, so the
    // simulated outcome must match thread 0's exactly.
    std::vector<double> setups;
    std::vector<ThreadReport> reports(threads);
    std::uint64_t mismatches = 0;
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
        for (ThreadReport &r : reports)
            r.engines.clear();
        Gate gate;
        std::vector<std::thread> pool;
        Clock::time_point t0 = Clock::now();
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(suiteThread, std::cref(mix),
                              std::cref(order), seg * per_segment,
                              (seg + 1) * per_segment, std::ref(gate),
                              std::ref(reports[t]));
        gate.waitReady(threads);
        setups.push_back(secondsBetween(t0, Clock::now()));
        gate.open();
        for (std::thread &th : pool)
            th.join();
        for (const ThreadReport &r : reports)
            for (std::size_t p = 0; p < mix.size(); ++p)
                if (r.signature[p] != reports[0].signature[p]) {
                    ++mismatches;
                    std::fprintf(stderr,
                                 "perfbench: %s diverged across threads "
                                 "in segment %zu\n",
                                 mix[p].spec.name.c_str(), seg);
                }
    }

    // Gated timings are read over each thread's fast passes (see
    // kFastFactor); the mean_* figures use every run.
    std::size_t programs = mix.size();
    std::vector<double> run_ms, fast_ms;
    std::uint64_t failures = mismatches, within = 0;
    double rps = 0.0, mean_rps = 0.0;
    std::vector<double> per_program(mix.size(), 0.0);
    std::vector<double> mean_per_program(mix.size(), 0.0);
    for (const ThreadReport &r : reports) {
        std::vector<double> pass_ms;
        for (std::size_t k = 0; k < order.size(); k += programs)
            pass_ms.push_back(std::accumulate(r.runMs.begin() + k,
                                              r.runMs.begin() + k + programs,
                                              0.0));
        double cut = kFastFactor * quantile(pass_ms, kReferenceQuantile);
        std::vector<double> ms(mix.size(), 0.0), all_ms(mix.size(), 0.0);
        std::vector<std::size_t> n(mix.size(), 0);
        std::size_t n_fast = 0;
        double fast_total = 0.0;
        for (std::size_t k = 0; k < order.size(); ++k) {
            std::uint32_t p = order[k];
            all_ms[p] += r.runMs[k];
            if (pass_ms[k / programs] > cut)
                continue;
            ms[p] += r.runMs[k];
            ++n[p];
            ++n_fast;
            fast_total += r.runMs[k];
            fast_ms.push_back(r.runMs[k]);
        }
        for (std::size_t p = 0; p < mix.size(); ++p) {
            double ops = static_cast<double>(r.opsPerRun[p]);
            per_program[p] +=
                ops * static_cast<double>(n[p]) / (ms[p] * 1e-3);
            mean_per_program[p] += ops * static_cast<double>(passes) /
                                   (all_ms[p] * 1e-3);
        }
        rps += static_cast<double>(n_fast) / (fast_total * 1e-3);
        mean_rps += static_cast<double>(order.size()) /
                    (sum(r.runMs) * 1e-3);
        run_ms.insert(run_ms.end(), r.runMs.begin(), r.runMs.end());
        failures += r.runFailures;
        res.count(kSegments * mix.size(), r.warmFailures);
    }
    std::uint64_t runs = run_ms.size();
    for (double ms : run_ms)
        within += ms <= kLimitMs ? 1 : 0;
    res.count(runs, std::min(failures, runs));
    double mean_mips = geomean(mean_per_program) / 1e6;

    std::printf("sim_suite: %u threads x %zu passes of %zu programs in "
                "%zu segments; %.1f%% of runs in fast passes\n"
                "Engine::run over all %zu runs: p50 %.3f p99 %.3f ms, "
                "%.1f M guest instrs/s, %.1f runs/s\n",
                threads, passes, mix.size(), kSegments,
                100.0 * static_cast<double>(fast_ms.size()) /
                    static_cast<double>(run_ms.size()),
                run_ms.size(), quantile(run_ms, 0.50),
                quantile(run_ms, 0.99), mean_mips, mean_rps);
    printSetups(setups);

    if (!o.trace) {
        res.add("setup_s", median(setups), "s");
        res.add("guest_mips", geomean(per_program) / 1e6, "M/s");
        res.add("rps", rps, "1/s");
        res.add("p50_ms", median(fast_ms), "ms");
        res.add("within_limit",
                static_cast<double>(within) /
                    static_cast<double>(std::max<std::uint64_t>(runs, 1)),
                "fraction");
        // Resident with the last segment's engines alive (the peak
        // would also count what earlier segments freed).
        res.add("rss_mb", statusMb(getpid(), "VmRSS"), "MiB");
        return res;
    }

    // Traced run: the suite's own order through every layer. The
    // net layer needs a daemon; this workload starts one only here.
    Routerd daemon;
    if (!daemon.start(o.routerd, o.workDir + "/routerd-sim.log", 2, 1,
                      &why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        res.count(1, 1);
        return res;
    }
    com::net::Client client;
    com::net::Client::Config cc;
    cc.port = daemon.port();
    if (!client.connect(cc)) {
        std::fprintf(stderr, "perfbench: connect: %s\n",
                     client.error().c_str());
        res.count(1, 1);
        return res;
    }
    std::vector<Request> walk;
    for (std::uint32_t p : suiteOrder(o.seed, mix.size(), kWalkPasses))
        walk.push_back({p, 0, 0.0});
    for (const MixEntry &e : mix) // warm the daemon's caches
        res.count(1, reproduces(e, client.run(e.kind, e.spec).outcome)
                         ? 0
                         : 1);
    WalkSummary ws = layerWalk(mix, walk, client, res);
    client.close();
    res.count(1, daemon.stop() ? 0 : 1);

    // No open-loop generator and no daemon on the measured path.
    res.add("lat.p99_ms", quantile(run_ms, 0.99), "ms");
    res.add("serve.shed_frac", 0.0, "fraction");
    res.add("gen.lag_p99_ms", 0.0, "ms");
    res.add("gen.samples", static_cast<double>(run_ms.size()), "count");
    res.add("mean.guest_mips", mean_mips, "M/s");
    res.add("mean.rps", mean_rps, "1/s");
    res.add("trace.overhead_ratio",
            ws.coreMedianUs / (quantile(run_ms, 0.50) * 1e3), "ratio");
    return res;
}

} // namespace perfbench
