#include "util.hpp"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

unsigned
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 1;
}

void
printResult(const std::string &workload, const Result &r)
{
    std::printf("workload %s: %s, %llu attempted, %llu failed "
                "(failed share %.6f)\n",
                workload.c_str(), r.correct ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0);
    for (const Metric &m : r.metrics)
        std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(num, sizeof num, "%.17g", v);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
printSetups(const std::vector<double> &seconds)
{
    std::printf("set-up times (s):");
    for (double s : seconds)
        std::printf(" %.4f", s);
    std::printf("\n");
}

double
statusMb(pid_t pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key = std::string(field) + ":";
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0)
            return std::stod(line.substr(key.size())) / 1024.0; // kB
    return 0.0;
}

std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::vector<pid_t> out;
    std::string p = std::to_string(pid);
    std::ifstream in("/proc/" + p + "/task/" + p + "/children");
    if (in) {
        pid_t c = 0;
        while (in >> c)
            out.push_back(c);
        return out;
    }
    // Kernels without the children file: scan for our parent pid.
    if (DIR *d = opendir("/proc")) {
        while (dirent *e = readdir(d)) {
            pid_t c = static_cast<pid_t>(std::atoi(e->d_name));
            if (c <= 0)
                continue;
            std::ifstream st("/proc/" + std::string(e->d_name) + "/stat");
            std::string all((std::istreambuf_iterator<char>(st)),
                            std::istreambuf_iterator<char>());
            std::size_t close = all.rfind(')');
            if (close == std::string::npos)
                continue;
            std::istringstream rest(all.substr(close + 2));
            char state = 0;
            pid_t ppid = 0;
            rest >> state >> ppid;
            if (ppid == pid)
                out.push_back(c);
        }
        closedir(d);
    }
    return out;
}

} // namespace perfbench
