/**
 * @file
 * The benchmark's seeded input generator.
 *
 * Everything a run sends to the system under test is derived here from
 * the --seed argument: the order in which sim_suite threads run the
 * nine Smalltalk workloads, and for the serving workload each
 * request's program and its arrival time in the open-loop schedule.
 * A stream can also give every request its own comment salt, which
 * makes each Smalltalk request miss every cache. The same seed always yields the
 * byte-identical stream (perfbench/tests/test_gen.cpp checks this);
 * the program under test only ever sees the generated requests.
 */

#ifndef PERFBENCH_GEN_HPP
#define PERFBENCH_GEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.hpp"

namespace perfbench {

/** splitmix64: small, fast, and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

/** One entry of the fixed serving mix. */
struct MixEntry
{
    com::api::EngineKind kind = com::api::EngineKind::Com;
    com::api::ProgramSpec spec; ///< unsalted
    /** Result and guest output of a single-threaded reference run;
     *  every response must reproduce them byte for byte. */
    std::string expectedResult;
    std::string expectedOutput;
};

/**
 * The serving mix: the nine Smalltalk workloads on the COM and stack
 * engines, then the standard Fith suite. Reference results are empty
 * until recordReferences() fills them.
 */
std::vector<MixEntry> servingMix();

/** The nine Smalltalk workloads on the COM engine (sim_suite). */
std::vector<MixEntry> suiteMix();

/**
 * Run every entry once on a fresh single-threaded engine and record
 * its result and output. @return false (with @p why set) if a
 * reference run fails or misses its checksum.
 */
bool recordReferences(std::vector<MixEntry> &mix, std::string *why);

/** @return true if @p o reproduces @p e's reference run exactly. */
bool reproduces(const MixEntry &e, const com::api::RunOutcome &o);

/** Independent sub-streams of one seed. */
enum class Phase : std::uint64_t
{
    Capacity = 2,
    Latency = 3,
    Layers = 4,
    Suite = 5,
};

/** One generated request. */
struct Request
{
    std::uint32_t entry = 0; ///< index into the mix
    std::uint64_t salt = 0;  ///< 0: unsalted
    double dueSeconds = 0.0; ///< open-loop arrival offset (0: closed)
};

/**
 * @p count requests drawn uniformly from a mix of @p mix_size entries.
 * @p salted gives every request its own nonzero comment salt;
 * @p rate > 0 gives Poisson arrival offsets at that many requests
 * per second.
 */
std::vector<Request> makeStream(std::size_t mix_size, std::uint64_t seed,
                                Phase phase, std::size_t count,
                                bool salted, double rate);

/**
 * The sim_suite order: @p passes seeded permutations of
 * 0..programs-1, concatenated, so each program runs exactly
 * @p passes times.
 */
std::vector<std::uint32_t> suiteOrder(std::uint64_t seed,
                                      std::size_t programs,
                                      std::size_t passes);

/**
 * The spec a request sends: the entry's program, with the salt as a
 * leading comment for Smalltalk sources (a comment changes nothing
 * the program computes, but it is new source text to every cache).
 */
com::api::ProgramSpec specFor(const MixEntry &entry, const Request &r);

/** Byte-exact rendering of a stream (the self-test compares these). */
std::string serialize(const std::vector<Request> &stream);

} // namespace perfbench

#endif // PERFBENCH_GEN_HPP
