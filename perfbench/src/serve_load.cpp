/**
 * @file
 * serve_hot: the serving mix through comsim_routerd (2 worker
 * processes, 1 scheduler thread each) over loopback TCP, from nproc
 * client threads, one connection each. Requests repeat a small fixed
 * set, so after warm-up nearly every COM request replays a cached
 * image.
 *
 * Phases after set-up: a capacity phase (closed loop, one request in
 * flight per connection, in blocks; rps and guest_mips are block
 * medians), then a latency phase (open loop at the workload's fixed
 * rate, Poisson arrivals, each request timed from its due time).
 * Further set-ups of throwaway daemons run between capacity blocks,
 * so set-ups are spread across the run; setup_s is their median.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "daemon.hpp"
#include "net/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = com::api;
namespace net = com::net;
namespace serve = com::serve;

namespace {

/** Open-loop arrivals per second in the latency phase. */
constexpr double kRate = 400.0;
/** within_limit latency limit. */
constexpr double kLimitMs = 10.0;
/** Closed-loop requests per second of --seconds (sizes the work). */
constexpr double kCapacityPerSec = 2300.0;
/** Share of --seconds given to each phase. */
constexpr double kCapacityShare = 0.4;
constexpr double kLatencyShare = 0.6;
/** p99 needs at least this many latency samples. */
constexpr std::size_t kMinLatencySamples = 1000;
constexpr std::size_t kCapacityBlocks = 8;
/** A throwaway set-up follows every this many capacity blocks. */
constexpr std::size_t kBlocksPerSetup = 2;
/** Requests in the traced layer walk. */
constexpr std::size_t kWalkRequests = 400;

enum class Verdict : std::uint8_t
{
    Ok,
    Mismatch,
    Failed,
    Expired,
    Rejected,
    Shed,
    Transport,
};

struct Outcome
{
    Verdict verdict = Verdict::Transport;
    double latencyMs = 0.0; ///< open loop: from the due time
    double lagMs = 0.0;     ///< open loop: send time - due time
    std::uint64_t ops = 0;
};

Verdict
classify(const MixEntry &e, const serve::Response &r,
         const net::Client &c)
{
    switch (r.status) {
      case serve::ResponseStatus::Ok:
        return reproduces(e, r.outcome) ? Verdict::Ok
                                        : Verdict::Mismatch;
      case serve::ResponseStatus::Failed:
        return Verdict::Failed;
      case serve::ResponseStatus::Expired:
        return Verdict::Expired;
      case serve::ResponseStatus::Rejected:
        if (!c.connected())
            return Verdict::Transport;
        return r.retryAfterSeconds > 0.0 ? Verdict::Shed
                                         : Verdict::Rejected;
    }
    return Verdict::Transport;
}

/** The connections of one set-up. */
class Clients
{
  public:
    bool
    connect(std::uint16_t port, unsigned n, std::string *why)
    {
        net::Client::Config cfg;
        cfg.port = port;
        cfg_ = cfg;
        for (unsigned i = 0; i < n; ++i) {
            conns_.push_back(std::make_unique<net::Client>());
            if (!conns_.back()->connect(cfg)) {
                *why = "connect: " + conns_.back()->error();
                return false;
            }
        }
        return true;
    }

    std::size_t size() const { return conns_.size(); }
    net::Client &operator[](std::size_t i) { return *conns_[i]; }

    /** Reconnect a connection a transport error closed. */
    void
    heal(std::size_t i)
    {
        if (!conns_[i]->connected())
            conns_[i]->connect(cfg_);
    }

  private:
    net::Client::Config cfg_;
    std::vector<std::unique_ptr<net::Client>> conns_;
};

/**
 * Send requests [begin, end) from every connection. With @p start
 * set, request i is due at start + its arrival offset (open loop);
 * otherwise each connection sends its next request as soon as its
 * previous one completes (closed loop).
 */
void
drive(Clients &clients, const std::vector<MixEntry> &mix,
      const std::vector<Request> &reqs,
      const std::vector<api::ProgramSpec> &specs, std::size_t begin,
      std::size_t end, const Clock::time_point *start,
      std::vector<Outcome> &out)
{
    std::atomic<std::size_t> next{begin};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c)
        threads.emplace_back([&, c] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= end)
                    return;
                const MixEntry &e = mix[reqs[i].entry];
                Clock::time_point due{};
                if (start) {
                    due = *start + std::chrono::duration_cast<
                                       Clock::duration>(
                                       std::chrono::duration<double>(
                                           reqs[i].dueSeconds));
                    std::this_thread::sleep_until(due);
                }
                Clock::time_point sent = Clock::now();
                serve::Response r = clients[c].run(e.kind, specs[i]);
                Clock::time_point done = Clock::now();
                Outcome &o = out[i];
                o.verdict = classify(e, r, clients[c]);
                o.ops = r.outcome.operations;
                if (start) {
                    o.latencyMs = secondsBetween(due, done) * 1e3;
                    o.lagMs = secondsBetween(due, sent) * 1e3;
                }
                if (o.verdict == Verdict::Transport)
                    clients.heal(c);
            }
        });
    for (std::thread &t : threads)
        t.join();
}

std::vector<api::ProgramSpec>
specsOf(const std::vector<MixEntry> &mix, const std::vector<Request> &reqs)
{
    std::vector<api::ProgramSpec> specs;
    specs.reserve(reqs.size());
    for (const Request &r : reqs)
        specs.push_back(specFor(mix[r.entry], r));
    return specs;
}

/** Count outcomes into @p res; print a per-verdict breakdown. */
void
tally(const char *phase, const std::vector<Outcome> &outs, Result &res)
{
    std::array<std::uint64_t, 7> n{};
    for (const Outcome &o : outs)
        ++n[static_cast<std::size_t>(o.verdict)];
    std::uint64_t bad = outs.size() - n[0];
    res.count(outs.size(), bad);
    std::printf("%s: %zu sent, %llu ok, mismatch %llu, failed %llu, "
                "expired %llu, rejected %llu, shed %llu, transport "
                "%llu\n",
                phase, outs.size(),
                static_cast<unsigned long long>(n[0]),
                static_cast<unsigned long long>(n[1]),
                static_cast<unsigned long long>(n[2]),
                static_cast<unsigned long long>(n[3]),
                static_cast<unsigned long long>(n[4]),
                static_cast<unsigned long long>(n[5]),
                static_cast<unsigned long long>(n[6]));
}

/** Server-side shed share over a window, from metrics snapshots. */
double
shedShare(const serve::Metrics::Snapshot &before,
          const serve::Metrics::Snapshot &after, std::size_t sent)
{
    std::uint64_t shed = after.rejected - before.rejected;
    for (std::size_t p = 0; p < serve::kNumPriorities; ++p)
        shed += after.shed[p] - before.shed[p];
    return sent ? static_cast<double>(shed) / static_cast<double>(sent)
                : 0.0;
}

/**
 * Set-up: spawn a daemon, connect @p conns clients, warm it up with
 * @p warm (the mix twice). @return the seconds it took, or a negative
 * value with @p why set.
 */
double
setUp(const Options &o, int n, const std::vector<MixEntry> &mix,
      const std::vector<Request> &warm,
      const std::vector<api::ProgramSpec> &warm_specs, unsigned conns,
      Routerd &daemon, Clients &clients, Result &res, std::string *why)
{
    Clock::time_point t0 = Clock::now();
    std::string log =
        o.workDir + "/routerd-serve_hot-" + std::to_string(n) + ".log";
    if (!daemon.start(o.routerd, log, 2, 1, why) ||
        !clients.connect(daemon.port(), conns, why))
        return -1.0;
    std::vector<Outcome> warm_out(warm.size());
    drive(clients, mix, warm, warm_specs, 0, warm.size(), nullptr,
          warm_out);
    double s = secondsBetween(t0, Clock::now());
    tally("warm-up", warm_out, res);
    return s;
}

} // namespace

Result
runServe(const Options &o)
{
    Result res;
    std::vector<MixEntry> mix = servingMix();
    std::string why;
    if (!recordReferences(mix, &why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        res.count(1, 1);
        return res;
    }
    unsigned conns = nproc();

    // Fixed work, sized from --seconds, drawn from the seed.
    std::size_t n_cap = std::max<std::size_t>(
        kCapacityBlocks * conns,
        static_cast<std::size_t>(kCapacityPerSec * kCapacityShare *
                                 o.seconds));
    std::size_t n_lat = std::max<std::size_t>(
        kMinLatencySamples,
        static_cast<std::size_t>(kRate * kLatencyShare * o.seconds));
    std::vector<Request> warm;
    for (int round = 0; round < 2; ++round)
        for (std::uint32_t i = 0; i < mix.size(); ++i)
            warm.push_back({i, 0, 0.0});
    std::vector<Request> cap = makeStream(mix.size(), o.seed,
                                          Phase::Capacity, n_cap, false,
                                          0.0);
    std::vector<Request> lat = makeStream(mix.size(), o.seed,
                                          Phase::Latency, n_lat, false,
                                          kRate);
    std::vector<api::ProgramSpec> warm_specs = specsOf(mix, warm);
    std::vector<api::ProgramSpec> cap_specs = specsOf(mix, cap);
    std::vector<api::ProgramSpec> lat_specs = specsOf(mix, lat);

    // The measured daemon's set-up.
    std::vector<double> setups;
    Routerd daemon;
    Clients clients;
    double s = setUp(o, 0, mix, warm, warm_specs, conns, daemon, clients,
                     res, &why);
    if (s < 0.0) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        res.count(1, 1);
        return res;
    }
    setups.push_back(s);

    // Capacity phase, with a throwaway daemon's set-up after every
    // kBlocksPerSetup blocks.
    std::vector<double> block_rps, block_mips;
    std::vector<Outcome> cap_out(cap.size());
    double cap_wall = 0.0;
    for (std::size_t b = 0; b < kCapacityBlocks; ++b) {
        std::size_t lo = cap.size() * b / kCapacityBlocks;
        std::size_t hi = cap.size() * (b + 1) / kCapacityBlocks;
        Clock::time_point t0 = Clock::now();
        drive(clients, mix, cap, cap_specs, lo, hi, nullptr, cap_out);
        double wall = secondsBetween(t0, Clock::now());
        cap_wall += wall;
        std::uint64_t ok = 0, ops = 0;
        for (std::size_t i = lo; i < hi; ++i)
            if (cap_out[i].verdict == Verdict::Ok) {
                ++ok;
                ops += cap_out[i].ops;
            }
        block_rps.push_back(static_cast<double>(ok) / wall);
        block_mips.push_back(static_cast<double>(ops) / wall / 1e6);

        if ((b + 1) % kBlocksPerSetup != 0)
            continue;
        Routerd extra;
        Clients extra_clients;
        s = setUp(o, static_cast<int>(setups.size()), mix, warm,
                  warm_specs, conns, extra, extra_clients, res, &why);
        if (s < 0.0) {
            std::fprintf(stderr, "perfbench: %s\n", why.c_str());
            res.count(1, 1);
            return res;
        }
        setups.push_back(s);
        extra_clients = Clients();
        res.count(1, extra.stop() ? 0 : 1);
    }
    tally("capacity", cap_out, res);
    std::uint64_t cap_ok = 0, cap_ops = 0;
    for (const Outcome &x : cap_out)
        if (x.verdict == Verdict::Ok) {
            ++cap_ok;
            cap_ops += x.ops;
        }

    // Latency phase.
    serve::Metrics::Snapshot before, after;
    bool snap_ok = clients[0].metrics(&before);
    std::vector<Outcome> lat_out(lat.size());
    Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    drive(clients, mix, lat, lat_specs, 0, lat.size(), &start, lat_out);
    snap_ok = clients[0].metrics(&after) && snap_ok;
    res.count(1, snap_ok ? 0 : 1);
    tally("latency", lat_out, res);
    std::vector<double> lat_ms, lag_ms;
    std::uint64_t within = 0;
    for (const Outcome &x : lat_out) {
        lag_ms.push_back(x.lagMs);
        if (x.verdict != Verdict::Ok)
            continue;
        lat_ms.push_back(x.latencyMs);
        within += x.latencyMs <= kLimitMs ? 1 : 0;
    }
    double p50 = quantile(lat_ms, 0.50);
    double p99 = quantile(lat_ms, 0.99);
    std::printf("serve_hot: rate %.0f/s, limit %.1f ms, %zu capacity "
                "requests over %u connections: all blocks %.1f req/s, "
                "%.2f M guest ops/s\n"
                "latency over %zu samples: p50 %.3f p90 %.3f p99 %.3f "
                "max %.3f ms; generator lag p99 %.3f ms\n",
                kRate, kLimitMs, cap.size(), conns,
                static_cast<double>(cap_ok) / cap_wall,
                static_cast<double>(cap_ops) / cap_wall / 1e6,
                lat_ms.size(), p50, quantile(lat_ms, 0.90), p99,
                quantile(lat_ms, 1.0), quantile(lag_ms, 0.99));
    printSetups(setups);

    if (!o.trace) {
        res.add("setup_s", median(setups), "s");
        res.add("guest_mips", median(block_mips), "M/s");
        res.add("rps", median(block_rps), "1/s");
        res.add("p50_ms", p50, "ms");
        res.add("within_limit",
                static_cast<double>(within) /
                    static_cast<double>(lat_out.size()),
                "fraction");
        res.add("rss_mb", daemon.peakRssMb(), "MiB");
    } else {
        std::vector<Request> walk = makeStream(
            mix.size(), o.seed, Phase::Layers, kWalkRequests, false, 0.0);
        WalkSummary ws = layerWalk(mix, walk, clients[0], res);
        res.add("lat.p99_ms", p99, "ms");
        res.add("serve.shed_frac", shedShare(before, after, lat.size()),
                "fraction");
        res.add("gen.lag_p99_ms", quantile(lag_ms, 0.99), "ms");
        res.add("gen.samples", static_cast<double>(lat_ms.size()),
                "count");
        res.add("trace.overhead_ratio", ws.rttMedianUs / (p50 * 1e3),
                "ratio");
        res.add("mean.guest_mips",
                static_cast<double>(cap_ops) / cap_wall / 1e6, "M/s");
        res.add("mean.rps", static_cast<double>(cap_ok) / cap_wall, "1/s");
    }

    clients = Clients();
    res.count(1, daemon.stop() ? 0 : 1);
    return res;
}

} // namespace perfbench
