/**
 * @file
 * Small helpers shared by the benchmark's workloads: wall-clock
 * timing, order statistics, the result line, and peak-RSS readers.
 */

#ifndef PERFBENCH_UTIL_HPP
#define PERFBENCH_UTIL_HPP

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Geometric mean of positive values; 0 if any is not positive. */
double geomean(const std::vector<double> &v);

/** CPUs this process may run on (what `nproc` prints). */
unsigned nproc();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run reports: the benchmark's last stdout line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count @p n attempts of which @p bad failed. */
    void
    count(std::uint64_t n, std::uint64_t bad)
    {
        attempted += n;
        failed += bad;
        if (bad != 0)
            correct = false;
    }
};

/** Print the human-readable table, then the JSON line, to stdout. */
void printResult(const std::string &workload, const Result &r);

/** Print the set-up times of one run (their median is setup_s). */
void printSetups(const std::vector<double> &seconds);

/** A memory field of @p pid's /proc status ("VmHWM", "VmRSS"), MiB
 *  (0 if unreadable). */
double statusMb(pid_t pid, const char *field);

/** Direct children of @p pid. */
std::vector<pid_t> childrenOf(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HPP
