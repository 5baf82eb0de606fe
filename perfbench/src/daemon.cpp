#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "util.hpp"

namespace perfbench {

namespace {

/** Poll waitpid until @p pid exits or @p limit passes. */
bool
waitFor(pid_t pid, std::chrono::milliseconds limit, int *status)
{
    auto until = Clock::now() + limit;
    for (;;) {
        pid_t r = waitpid(pid, status, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0 && errno != EINTR)
            return true; // not our child any more
        if (Clock::now() >= until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

} // namespace

Routerd::~Routerd()
{
    if (pid_ <= 0)
        return;
    // Abnormal path: take the whole process group (router and its
    // workers) down and reap the router.
    kill(-pid_, SIGKILL);
    int status = 0;
    waitFor(pid_, std::chrono::milliseconds(5000), &status);
    for (int i = 0; i < 2500 && kill(-pid_, 0) == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

bool
Routerd::start(const std::string &binary, const std::string &log_path,
               unsigned workers, unsigned threads_per_worker,
               std::string *why)
{
    int log = open(log_path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log < 0) {
        *why = "cannot open " + log_path + ": " + std::strerror(errno);
        return false;
    }
    std::string w = std::to_string(workers);
    std::string t = std::to_string(threads_per_worker);
    std::vector<const char *> argv = {binary.c_str(),
                                      "--port",
                                      "0",
                                      "--workers",
                                      w.c_str(),
                                      "--workers-per-shard",
                                      t.c_str(),
                                      nullptr};
    pid_t parent = getpid();
    pid_t pid = fork();
    if (pid < 0) {
        close(log);
        *why = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec.
        setpgid(0, 0);
        prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (getppid() != parent)
            _exit(126);
        dup2(log, STDOUT_FILENO);
        dup2(log, STDERR_FILENO);
        execv(binary.c_str(), const_cast<char *const *>(argv.data()));
        _exit(127);
    }
    close(log);
    setpgid(pid, pid); // also from here, so killpg never races exec
    pid_ = pid;

    auto until = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < until) {
        std::ifstream in(log_path);
        std::stringstream text;
        text << in.rdbuf();
        std::string s = text.str();
        std::size_t at = s.find("listening on ");
        std::size_t eol = at == std::string::npos
                              ? std::string::npos
                              : s.find('\n', at);
        if (eol != std::string::npos) {
            std::string addr = s.substr(at, eol - at);
            port_ = static_cast<std::uint16_t>(
                std::stoul(addr.substr(addr.rfind(':') + 1)));
            return true;
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            *why = binary + " exited before listening; see " + log_path;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *why = binary + " did not listen within 20 s; see " + log_path;
    return false;
}

bool
Routerd::stop()
{
    if (pid_ <= 0)
        return false;
    kill(pid_, SIGTERM);
    int status = 0;
    if (!waitFor(pid_, std::chrono::milliseconds(30000), &status)) {
        kill(-pid_, SIGKILL);
        waitFor(pid_, std::chrono::milliseconds(5000), &status);
        pid_ = -1;
        return false;
    }
    // The drain already waited for the workers; make sure no member
    // of the group outlives us even if one misbehaved.
    if (kill(-pid_, 0) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (kill(-pid_, 0) == 0) {
            kill(-pid_, SIGKILL);
            status = 1;
        }
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double
Routerd::peakRssMb() const
{
    if (pid_ <= 0)
        return 0.0;
    double mb = statusMb(pid_, "VmHWM");
    for (pid_t c : childrenOf(pid_))
        mb += statusMb(c, "VmHWM");
    return mb;
}

} // namespace perfbench
