/**
 * @file
 * The traced layer walk: one request at a time, in at deeper and
 * deeper public entry points, one span per call. A layer's self time
 * is its span minus the next-deeper spans of the same request:
 *
 *   net.rtt     Client::run through comsim_routerd
 *   net.codec   encode + decode of the request and response frames
 *   serve.sched Scheduler::submit until its future resolves
 *   api.*       EnginePool::checkout, Session::run, Session::release
 *   lang        ComCompiler::compileSource
 *   core.run    Engine::run with the compile memoized
 *
 * hop = rtt - sched - codec (router and worker poll loops, loopback
 * TCP); serve self = sched - checkout - run (queue and worker hand-off;
 * the session's reset runs after the future resolves).
 */

#include <array>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>

#include "api/program_cache.hpp"
#include "api/session.hpp"
#include "lang/compiler_com.hpp"
#include "lang/workloads.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "serve/scheduler.hpp"
#include "sim/logging.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = com::api;
namespace net = com::net;
namespace serve = com::serve;

namespace {

enum Layer : std::size_t
{
    NetRtt,
    NetCodec,
    ServeSched,
    ApiCheckout,
    ApiRun,
    ApiReset,
    LangCompile,
    ColdNoCache,
    ColdCache,
    WarmRestore,
    CoreRun,
    kLayers,
};

/** Span durations (µs) by layer and request id; NaN = no span. */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t requests)
    {
        for (auto &v : us_)
            v.assign(requests, std::numeric_limits<double>::quiet_NaN());
    }

    /** Time @p f as the @p layer span of request @p id. */
    template <typename F>
    auto
    record(Layer layer, std::size_t id, F &&f)
    {
        Clock::time_point t0 = Clock::now();
        auto r = f();
        us_[layer][id] = secondsBetween(t0, Clock::now()) * 1e6;
        return r;
    }

    double at(Layer layer, std::size_t id) const { return us_[layer][id]; }

    /** Recorded spans of @p layer. */
    std::vector<double>
    spans(Layer layer) const
    {
        std::vector<double> out;
        for (double v : us_[layer])
            if (!std::isnan(v))
                out.push_back(v);
        return out;
    }

    /** Per-request @p a minus the @p deeper spans, over requests
     *  that have all of them. */
    std::vector<double>
    self(Layer a, std::initializer_list<Layer> deeper) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < us_[a].size(); ++i) {
            double v = us_[a][i];
            for (Layer d : deeper)
                v -= us_[d][i];
            if (!std::isnan(v))
                out.push_back(v);
        }
        return out;
    }

  private:
    std::array<std::vector<double>, kLayers> us_;
};

/** Encode and decode both frames of one exchange; @return fidelity. */
bool
codecRoundTrip(std::uint64_t id, api::EngineKind kind,
               const api::ProgramSpec &spec, const serve::Response &r)
{
    net::FrameView view;
    std::size_t used = 0;
    std::string req = net::encodeRunRequest(
        net::RunRequestFrame::fromSpec(id, kind, spec, 0));
    net::RunRequestFrame req_back;
    if (net::peekFrame(req, &view, &used) != net::DecodeStatus::Frame ||
        !net::decodeRunRequest(view, &req_back))
        return false;
    std::string resp = net::encodeRunResponse(
        net::RunResponseFrame::fromResponse(id, r));
    net::RunResponseFrame resp_back;
    if (net::peekFrame(resp, &view, &used) != net::DecodeStatus::Frame ||
        !net::decodeRunResponse(view, &resp_back))
        return false;
    return req_back.source == spec.source &&
           resp_back.output == r.outcome.output &&
           resp_back.resultText == r.outcome.resultText;
}

} // namespace

WalkSummary
layerWalk(const std::vector<MixEntry> &mix,
          const std::vector<Request> &stream, net::Client &client,
          Result &res)
{
    const std::vector<std::string> names = com::lang::workloadNames();
    std::map<std::string, std::size_t> wl_index;
    for (std::size_t i = 0; i < names.size(); ++i)
        wl_index[names[i]] = i;

    // In-process stand-ins for one routerd worker: a scheduler at a
    // worker's config, and a pool sharing one program cache.
    serve::Scheduler::Config sc;
    sc.shards = 1;
    sc.workersPerShard = 1;
    serve::Scheduler sched(sc);
    api::EnginePool::Config pc;
    pc.comEngines = 1;
    pc.stackEngines = 1;
    pc.fithEngines = 1;
    pc.programCache = std::make_shared<api::ProgramCache>(64);
    api::EnginePool pool(pc);

    api::ComEngine lang_engine;
    api::ComEngine no_cache;
    api::ComEngine with_cache;
    std::vector<std::unique_ptr<api::ComEngine>> core;
    std::vector<std::uint64_t> core_ops(names.size(), 0);
    for (std::size_t i = 0; i < names.size(); ++i)
        core.push_back(std::make_unique<api::ComEngine>());

    std::uint64_t attempted = 0;
    std::uint64_t bad = 0;
    auto check = [&](bool ok) {
        ++attempted;
        bad += ok ? 0 : 1;
    };

    // Warm every layer on the unsalted mix: caches and memos hold
    // every base program, as they do on a warmed-up server.
    for (const MixEntry &e : mix) {
        serve::Response r = sched.submit(e.kind, e.spec).get();
        check(r.ok() && reproduces(e, r.outcome));
        api::Session s = pool.checkout(e.kind);
        check(reproduces(e, s.run(e.spec)));
        s.release();
        if (e.kind == api::EngineKind::Com) {
            std::size_t w = wl_index.at(e.spec.name);
            api::RunOutcome o = core[w]->run(e.spec);
            core_ops[w] += o.operations;
            check(reproduces(e, o));
        }
    }
    api::ProgramCache::Counters before = pc.programCache->counters();

    SpanLog log(stream.size());
    std::vector<std::uint64_t> core_ops_of(stream.size(), 0);
    for (std::size_t id = 0; id < stream.size(); ++id) {
        const MixEntry &e = mix[stream[id].entry];
        api::ProgramSpec spec = specFor(e, stream[id]);

        serve::Response r = log.record(NetRtt, id, [&] {
            return client.run(e.kind, spec);
        });
        check(r.ok() && reproduces(e, r.outcome));
        check(log.record(NetCodec, id, [&] {
            return codecRoundTrip(id + 1, e.kind, spec, r);
        }));

        serve::Response local = log.record(ServeSched, id, [&] {
            return sched.submit(e.kind, spec).get();
        });
        check(local.ok() && reproduces(e, local.outcome));

        api::Session s = log.record(ApiCheckout, id,
                                    [&] { return pool.checkout(e.kind); });
        api::RunOutcome o =
            log.record(ApiRun, id, [&] { return s.run(spec); });
        check(reproduces(e, o));
        log.record(ApiReset, id, [&] {
            s.release();
            return 0;
        });

        if (e.kind != api::EngineKind::Com)
            continue;

        lang_engine.reset();
        check(log.record(LangCompile, id, [&] {
            try {
                com::lang::ComCompiler cc(lang_engine.machine());
                return cc.compileSource(spec.source).entryVaddr != 0;
            } catch (const com::sim::FatalError &) {
                return false;
            }
        }));

        // install = cold run with a cache attached - cold run without.
        no_cache.reset();
        check(reproduces(e, log.record(ColdNoCache, id, [&] {
            return no_cache.run(spec);
        })));
        with_cache.reset();
        with_cache.setProgramCache(std::make_shared<api::ProgramCache>(4));
        check(reproduces(e, log.record(ColdCache, id, [&] {
            return with_cache.run(spec);
        })));
        with_cache.reset();
        api::RunOutcome warm = log.record(
            WarmRestore, id, [&] { return with_cache.run(spec); });
        check(reproduces(e, warm) && warm.warmRestoreSeconds > 0.0);

        std::size_t w = wl_index.at(e.spec.name);
        api::RunOutcome c =
            log.record(CoreRun, id, [&] { return core[w]->run(e.spec); });
        check(reproduces(e, c));
        core_ops[w] += c.operations;
        core_ops_of[id] = c.operations;
    }
    sched.stop();

    // core.mips.<wl>: median per-call rate of the memoized runs.
    std::vector<std::vector<double>> rates(names.size());
    for (std::size_t id = 0; id < stream.size(); ++id) {
        double us = log.at(CoreRun, id);
        if (!std::isnan(us) && us > 0.0)
            rates[wl_index.at(mix[stream[id].entry].spec.name)].push_back(
                static_cast<double>(core_ops_of[id]) / us);
    }
    for (std::size_t w = 0; w < names.size(); ++w) {
        if (rates[w].empty()) {
            // The stream never drew this workload: time a few runs.
            api::ProgramSpec spec = api::ProgramSpec::workload(names[w]);
            for (int k = 0; k < 5; ++k) {
                Clock::time_point t0 = Clock::now();
                api::RunOutcome c = core[w]->run(spec);
                double us = secondsBetween(t0, Clock::now()) * 1e6;
                check(c.matches(spec));
                core_ops[w] += c.operations;
                rates[w].push_back(static_cast<double>(c.operations) / us);
            }
        }
        res.add("core.mips." + names[w], median(rates[w]), "M/s");
    }

    // Simulated time and cache statistics: exact counts over the
    // nine core machines (every run since construction).
    std::uint64_t cycles = 0, ops = 0, itlb = 0, icache = 0, atlb = 0,
                  ctx = 0, gc = 0;
    for (std::size_t w = 0; w < names.size(); ++w) {
        com::core::Machine &m = core[w]->machine();
        cycles += m.pipeline().cycles();
        ops += core_ops[w];
        itlb += m.itlb().stats().counterValue("hits");
        icache += m.icache().stats().counterValue("hits");
        atlb += m.atlb().stats().counterValue("hits");
        ctx += m.contextCache().stats().counterValue("return_hits");
        gc += m.gc().collections();
    }
    res.add("core.cpi",
            ops ? static_cast<double>(cycles) / static_cast<double>(ops)
                : 0.0,
            "cycles/instr");
    res.add("cache.itlb_hit", static_cast<double>(itlb), "count");
    res.add("cache.icache_hit", static_cast<double>(icache), "count");
    res.add("cache.atlb_hit", static_cast<double>(atlb), "count");
    res.add("cache.ctx_hit", static_cast<double>(ctx), "count");
    res.add("obj.gc_runs", static_cast<double>(gc), "count");

    // lang.compile_us: median over the nine sources of each source's
    // median compile time.
    std::vector<std::vector<double>> compile(names.size());
    for (std::size_t id = 0; id < stream.size(); ++id) {
        double us = log.at(LangCompile, id);
        if (!std::isnan(us))
            compile[wl_index.at(mix[stream[id].entry].spec.name)]
                .push_back(us);
    }
    std::vector<double> per_source;
    for (const std::vector<double> &v : compile)
        if (!v.empty())
            per_source.push_back(median(v));
    res.add("lang.compile_us", median(per_source), "us");

    // api.*: COM requests only (the stack and Fith engines reset in
    // microseconds and would otherwise hide the COM figure).
    std::vector<double> reset_us, checkout_us;
    for (std::size_t id = 0; id < stream.size(); ++id)
        if (mix[stream[id].entry].kind == api::EngineKind::Com) {
            reset_us.push_back(log.at(ApiReset, id));
            checkout_us.push_back(log.at(ApiCheckout, id));
        }
    res.add("api.reset_us", median(reset_us), "us");
    res.add("api.restore_us", median(log.spans(WarmRestore)), "us");
    res.add("api.install_us",
            median(log.self(ColdCache, {ColdNoCache})), "us");
    res.add("api.checkout_us", median(checkout_us), "us");
    api::ProgramCache::Counters after = pc.programCache->counters();
    std::uint64_t hits = after.hits - before.hits;
    std::uint64_t looked = hits + (after.misses - before.misses);
    res.add("api.cache_hit_ratio",
            looked ? static_cast<double>(hits) / static_cast<double>(looked)
                   : 0.0,
            "fraction");

    res.add("serve.sched_us", median(log.spans(ServeSched)), "us");
    res.add("serve.self_us", median(log.self(ServeSched, {ApiCheckout, ApiRun})),
            "us");
    res.add("net.codec_us", median(log.spans(NetCodec)), "us");
    res.add("net.rtt_us", median(log.spans(NetRtt)), "us");
    res.add("net.hop_us", median(log.self(NetRtt, {ServeSched, NetCodec})),
            "us");

    res.count(attempted, bad);
    return {median(log.spans(NetRtt)), median(log.spans(CoreRun))};
}

} // namespace perfbench
