#include "gen.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

#include "fith/fith_programs.hpp"
#include "lang/workloads.hpp"

namespace perfbench {

using com::api::EngineKind;
using com::api::Language;
using com::api::ProgramSpec;

namespace {

Rng
phaseRng(std::uint64_t seed, Phase phase)
{
    Rng mixer(seed ^ (static_cast<std::uint64_t>(phase) *
                      0xd1342543de82ef95ULL));
    return Rng(mixer.next());
}

} // namespace

std::vector<MixEntry>
suiteMix()
{
    std::vector<MixEntry> mix;
    for (const std::string &name : com::lang::workloadNames())
        mix.push_back({EngineKind::Com, ProgramSpec::workload(name), {},
                       {}});
    return mix;
}

std::vector<MixEntry>
servingMix()
{
    std::vector<MixEntry> mix;
    for (EngineKind kind : {EngineKind::Com, EngineKind::Stack})
        for (const std::string &name : com::lang::workloadNames())
            mix.push_back({kind, ProgramSpec::workload(name), {}, {}});
    for (const com::fith::FithProgram &p :
         com::fith::standardPrograms())
        mix.push_back({EngineKind::Fith,
                       ProgramSpec::fith("fith:" + p.name, p.source), {},
                       {}});
    return mix;
}

bool
recordReferences(std::vector<MixEntry> &mix, std::string *why)
{
    for (MixEntry &e : mix) {
        std::unique_ptr<com::api::Engine> ref =
            com::api::makeEngine(e.kind);
        com::api::RunOutcome out = ref->run(e.spec);
        if (!out.matches(e.spec)) {
            *why = "reference run of " + e.spec.name + " on " +
                   com::api::engineKindName(e.kind) + " failed: " +
                   (out.ok ? "checksum mismatch" : out.error);
            return false;
        }
        e.expectedResult = out.resultText;
        e.expectedOutput = out.output;
    }
    return true;
}

bool
reproduces(const MixEntry &e, const com::api::RunOutcome &o)
{
    return o.matches(e.spec) && o.resultText == e.expectedResult &&
           o.output == e.expectedOutput;
}

std::vector<Request>
makeStream(std::size_t mix_size, std::uint64_t seed, Phase phase,
           std::size_t count, bool salted, double rate)
{
    Rng rng = phaseRng(seed, phase);
    std::vector<Request> out(count);
    double due = 0.0;
    for (Request &r : out) {
        r.entry = static_cast<std::uint32_t>(rng.below(mix_size));
        if (salted) {
            do
                r.salt = rng.next();
            while (r.salt == 0);
        }
        if (rate > 0.0) {
            due += -std::log1p(-rng.unit()) / rate;
            r.dueSeconds = due;
        }
    }
    return out;
}

std::vector<std::uint32_t>
suiteOrder(std::uint64_t seed, std::size_t programs, std::size_t passes)
{
    Rng rng = phaseRng(seed, Phase::Suite);
    std::vector<std::uint32_t> order;
    order.reserve(programs * passes);
    std::vector<std::uint32_t> pass(programs);
    for (std::size_t p = 0; p < passes; ++p) {
        for (std::size_t i = 0; i < programs; ++i)
            pass[i] = static_cast<std::uint32_t>(i);
        for (std::size_t i = programs; i > 1; --i)
            std::swap(pass[i - 1], pass[rng.below(i)]);
        order.insert(order.end(), pass.begin(), pass.end());
    }
    return order;
}

ProgramSpec
specFor(const MixEntry &entry, const Request &r)
{
    ProgramSpec spec = entry.spec;
    if (r.salt != 0 && spec.language == Language::Smalltalk) {
        char comment[48];
        std::snprintf(comment, sizeof comment, "\"salt %016llx\"\n",
                      static_cast<unsigned long long>(r.salt));
        spec.source = comment + spec.source;
    }
    return spec;
}

std::string
serialize(const std::vector<Request> &stream)
{
    std::string out;
    char line[96];
    for (const Request &r : stream) {
        std::snprintf(line, sizeof line, "%u %016llx %a\n", r.entry,
                      static_cast<unsigned long long>(r.salt),
                      r.dueSeconds);
        out += line;
    }
    return out;
}

} // namespace perfbench
