/**
 * @file
 * Lifecycle of the comsim_routerd the serving workloads measure.
 *
 * The daemon is started on port 0 with deployment flags only (port,
 * worker processes, scheduler threads per worker); its stdout and
 * stderr go to a log file in the benchmark's work directory, where
 * the "listening on HOST:PORT" line is read back. stop() sends
 * SIGTERM to the explicit pid and waits for the drain; the exit
 * status is the caller's to check. The child gets PR_SET_PDEATHSIG,
 * so a crashed benchmark still takes its daemon down.
 */

#ifndef PERFBENCH_DAEMON_HPP
#define PERFBENCH_DAEMON_HPP

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class Routerd
{
  public:
    Routerd() = default;
    /** Kills (SIGKILL) and reaps a daemon that was never stopped. */
    ~Routerd();

    Routerd(const Routerd &) = delete;
    Routerd &operator=(const Routerd &) = delete;

    /**
     * Spawn @p binary and wait (up to 20 s) for it to listen. Must be
     * called from the main thread: the death signal follows the
     * thread that forked. @return false with @p why set on failure.
     */
    bool start(const std::string &binary, const std::string &log_path,
               unsigned workers, unsigned threads_per_worker,
               std::string *why);

    /**
     * SIGTERM, then wait up to 30 s for the drain (SIGKILL after).
     * @return true if the daemon exited with status 0.
     */
    bool stop();

    std::uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** Sum of VmHWM over the router and its worker processes, MiB. */
    double peakRssMb() const;

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HPP
