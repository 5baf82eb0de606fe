/**
 * @file
 * The benchmark's workloads (sim_suite, serve_hot) and the
 * traced layer walk that gives their per-layer numbers.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "gen.hpp"
#include "util.hpp"

namespace com::net {
class Client;
}

namespace perfbench {

/** Command-line options after parsing. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string routerd; ///< comsim_routerd binary
    std::string workDir; ///< daemon logs go here
};

Result runSimSuite(const Options &o);
Result runServe(const Options &o);

/** Span medians the caller relates to its own end-to-end figures. */
struct WalkSummary
{
    double rttMedianUs = 0.0;  ///< net.rtt: Client::run via routerd
    double coreMedianUs = 0.0; ///< core.run: Engine::run, memoized
};

/**
 * Drive @p stream through every entry point, one request at a time,
 * recording one span per call (spans of one request share its index
 * as id): Client::run against the daemon behind @p client, the frame
 * codec, an in-process Scheduler at one worker's config, an
 * EnginePool checkout/run/release, and for COM requests the compiler,
 * cold runs with and without a program cache, a warm restore, and a
 * memoized Engine::run. Adds every per-layer metric except the
 * generator and overhead figures to @p res, and counts every
 * verified call in it.
 */
WalkSummary layerWalk(const std::vector<MixEntry> &mix,
                      const std::vector<Request> &stream,
                      com::net::Client &client, Result &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
