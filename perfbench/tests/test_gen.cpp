/**
 * @file
 * Self-test of the benchmark's seeded generator: the same seed gives
 * a byte-identical request stream (program order, comment salts,
 * arrival times); a different seed gives different salts. Exits
 * non-zero on the first failed check.
 */

#include <cstdio>
#include <set>

#include "gen.hpp"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

} // namespace

int
main()
{
    using namespace perfbench;
    const std::size_t mix = servingMix().size();

    for (Phase phase : {Phase::Capacity, Phase::Latency, Phase::Layers}) {
        std::string a = serialize(makeStream(mix, 7, phase, 500, true,
                                             800.0));
        std::string b = serialize(makeStream(mix, 7, phase, 500, true,
                                             800.0));
        expect(a == b, "same seed, same stream");
    }

    std::vector<Request> s7 =
        makeStream(mix, 7, Phase::Latency, 500, true, 800.0);
    std::vector<Request> s8 =
        makeStream(mix, 8, Phase::Latency, 500, true, 800.0);
    std::set<std::uint64_t> salts7, shared;
    for (const Request &r : s7) {
        expect(r.salt != 0, "salted requests carry a salt");
        expect(r.entry < mix, "entries index the mix");
        salts7.insert(r.salt);
    }
    expect(salts7.size() == s7.size(), "salts are distinct");
    for (const Request &r : s8)
        if (salts7.count(r.salt))
            shared.insert(r.salt);
    expect(shared.empty(), "another seed gives other salts");
    expect(serialize(s7) != serialize(s8), "another seed, another stream");

    double prev = 0.0;
    for (const Request &r : s7) {
        expect(r.dueSeconds > prev, "arrival times increase");
        prev = r.dueSeconds;
    }
    // 500 Poisson arrivals at 800/s: the last one lands near 0.625 s.
    expect(prev > 0.4 && prev < 0.9, "arrival rate is the one asked for");

    std::vector<Request> plain =
        makeStream(mix, 7, Phase::Capacity, 100, false, 0.0);
    for (const Request &r : plain)
        expect(r.salt == 0 && r.dueSeconds == 0.0,
               "unsalted closed-loop requests carry neither");

    std::vector<std::uint32_t> a = suiteOrder(3, 9, 40);
    expect(a == suiteOrder(3, 9, 40), "suite order is seeded");
    expect(a != suiteOrder(4, 9, 40), "suite order follows the seed");
    std::vector<int> runs(9, 0);
    for (std::uint32_t p : a)
        ++runs[p];
    for (int n : runs)
        expect(n == 40, "each program runs once per pass");

    MixEntry e = servingMix()[0];
    Request r{0, 0x1234, 0.0};
    expect(specFor(e, r).source != e.spec.source &&
               specFor(e, r).source.find(e.spec.source) !=
                   std::string::npos,
           "a salt prefixes the Smalltalk source");

    if (failures == 0)
        std::printf("perfbench generator self-test: ok\n");
    return failures == 0 ? 0 : 1;
}
