/**
 * @file
 * perfbench — the repository benchmark's measuring binary.
 *
 *   perfbench --workload sim_suite|serve_hot --seed N
 *             --seconds S --trace 0|1 --routerd PATH --workdir DIR
 *
 * Prints a human-readable summary, then one JSON line: with --trace 0
 * the end-to-end metrics, with --trace 1 the per-layer metrics.
 * perfbench/run.py builds this binary and supplies --routerd and
 * --workdir; see perfbench/README.md for the metric definitions.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sim_suite|serve_hot --seed N --seconds S "
                 "--trace 0|1 --routerd PATH --workdir DIR\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0.0))
                return usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--routerd") {
            o.routerd = v;
        } else if (flag == "--workdir") {
            o.workDir = v;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            return usage(("bad value for " + flag).c_str());
    }
    if (o.routerd.empty() || o.workDir.empty())
        return usage("--routerd and --workdir are required");

    std::signal(SIGPIPE, SIG_IGN);
    perfbench::Result r;
    if (o.workload == "sim_suite")
        r = perfbench::runSimSuite(o);
    else if (o.workload == "serve_hot")
        r = perfbench::runServe(o);
    else
        return usage(("unknown workload " + o.workload).c_str());
    // A result was measured: exit 0 and let "correct" carry failures.
    perfbench::printResult(o.workload, r);
    return 0;
}
