#include "sim/proc_pool.hh"

#include <string>

#include "base/logging.hh"
#include "sim/robustness.hh"

#if defined(__unix__) || defined(__APPLE__)
#define NUCA_HAVE_FORK 1
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/sweep_store.hh"
#else
#define NUCA_HAVE_FORK 0
#endif

namespace nuca {

bool
procIsolationSupported()
{
    return NUCA_HAVE_FORK != 0;
}

#if NUCA_HAVE_FORK

namespace {

/** Set in a preemptible sandbox child when SIGTERM arrives. */
volatile std::sig_atomic_t g_proc_preempt = 0;

extern "C" void
procPreemptHandler(int)
{
    g_proc_preempt = 1;
}

} // namespace

bool
procPreemptSignalled()
{
    return g_proc_preempt != 0;
}

void
ProcJobHandle::requestPreempt()
{
    preempt.store(true, std::memory_order_relaxed);
    // The pid is cleared before the child is reaped (at pipe EOF the
    // child is dead-or-zombie), so this signal can only land on our
    // own live-or-zombie child, never a recycled pid.
    const long long p = pid.load(std::memory_order_relaxed);
    if (p > 0)
        ::kill(static_cast<pid_t>(p), SIGTERM);
}

#else // !NUCA_HAVE_FORK

bool
procPreemptSignalled()
{
    return false;
}

void
ProcJobHandle::requestPreempt()
{
    preempt.store(true, std::memory_order_relaxed);
}

#endif

ProcIsolation
ProcIsolation::fromEnv()
{
    ProcIsolation iso;
    const std::string mode = envString("REPRO_ISOLATE");
    if (mode.empty() || mode == "off") {
        iso.enabled = false;
    } else if (mode == "proc") {
        iso.enabled = true;
    } else {
        fatal("REPRO_ISOLATE must be proc or off, got '", mode, "'");
    }
    if (iso.enabled && !procIsolationSupported()) {
        warn("REPRO_ISOLATE=proc: fork is unavailable on this "
             "platform; jobs will run in-process without limits");
        iso.enabled = false;
    }
    iso.memMb = envOr("REPRO_JOB_MEM_MB", iso.memMb);
    iso.cpuS = envOr("REPRO_JOB_CPU_S", iso.cpuS);
    iso.timeoutS = envOr("REPRO_JOB_TIMEOUT_S", iso.timeoutS);
    iso.graceMs = envOr("REPRO_JOB_GRACE_MS", iso.graceMs);
    return iso;
}

std::string
describeSignal(int sig)
{
#if NUCA_HAVE_FORK
    // A fixed table, not strsignal(): the names land in sidecar
    // records that tests and tooling grep, so they must not vary
    // with libc locale or version.
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV (segmentation fault)";
      case SIGABRT:
        return "SIGABRT (abort)";
      case SIGBUS:
        return "SIGBUS (bus error)";
      case SIGILL:
        return "SIGILL (illegal instruction)";
      case SIGFPE:
        return "SIGFPE (arithmetic exception)";
      case SIGKILL:
        return "SIGKILL (killed; possible OOM kill)";
      case SIGTERM:
        return "SIGTERM (terminated)";
      case SIGXCPU:
        return "SIGXCPU (CPU time limit exceeded)";
      default:
        return "signal " + std::to_string(sig);
    }
#else
    return "signal " + std::to_string(sig);
#endif
}

#if NUCA_HAVE_FORK

namespace {

/** Apply the child-side rlimit caps; never returns on failure (the
 *  wire protocol would misattribute a half-limited child). */
void
applyLimits(const ProcIsolation &iso)
{
    if (iso.memMb != 0) {
        rlimit lim{};
        lim.rlim_cur = lim.rlim_max =
            static_cast<rlim_t>(iso.memMb) * 1024 * 1024;
        if (::setrlimit(RLIMIT_AS, &lim) != 0)
            ::_exit(124);
    }
    if (iso.cpuS != 0) {
        // Soft limit raises SIGXCPU (classified as a timeout); the
        // hard limit one second later is the kernel's backstop if
        // the child somehow survives it.
        rlimit lim{};
        lim.rlim_cur = static_cast<rlim_t>(iso.cpuS);
        lim.rlim_max = static_cast<rlim_t>(iso.cpuS) + 1;
        if (::setrlimit(RLIMIT_CPU, &lim) != 0)
            ::_exit(124);
    }
}

/** write(2) the whole buffer, riding out EINTR and short writes. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Child side: run the body, encode the settlement as one JSON line
 * on @p fd, and _exit. _exit (not exit) on every path: the child is
 * a fork of a possibly multi-threaded parent and must not run the
 * parent's atexit hooks — those would re-write trace files and
 * profiler reports the parent still owns. SIGTERM arrives blocked;
 * @p mask is the signal mask to restore once its disposition is set.
 */
[[noreturn]] void
childMain(int fd, const ProcIsolation &iso,
          const std::function<MixResult()> &body, const sigset_t &mask)
{
    applyLimits(iso);
    // Preemptible children turn SIGTERM into a yield request; the
    // job saves a snapshot at its next checkpoint boundary and the
    // settlement below ships "preempted". Non-preemptible children
    // keep the default disposition so the deadline escalation
    // (SIGTERM -> grace -> SIGKILL) kills them as before.
    if (iso.preemptible)
        std::signal(SIGTERM, procPreemptHandler);
    ::sigprocmask(SIG_SETMASK, &mask, nullptr);
    json::Value record = json::Value::object();
    try {
        const MixResult result = body();
        record = mixResultToJson(result);
        record.set("status", "ok");
    } catch (const SimulationStalled &e) {
        record.set("status", "stalled");
        record.set("error", std::string(e.what()));
    } catch (const CycleBudgetExceeded &e) {
        record.set("status", "over_budget");
        record.set("error", std::string(e.what()));
    } catch (const JobPreempted &e) {
        record.set("status", "preempted");
        record.set("error", std::string(e.what()));
    } catch (const std::exception &e) {
        record.set("status", "failed");
        record.set("error", std::string(e.what()));
    } catch (...) {
        record.set("status", "failed");
        record.set("error", "unknown exception");
    }
    if (!writeAll(fd, record.dump() + "\n"))
        ::_exit(123);
    ::_exit(0);
}

/** Parent-side watch result: the child's full pipe output plus
 *  whether the wall-clock deadline forced an escalation. */
struct WatchResult
{
    std::string payload;
    bool timedOut = false;
    bool killed = false; ///< escalated all the way to SIGKILL
};

/**
 * Drain the child's pipe to EOF, enforcing the wall-clock deadline:
 * past it the child gets SIGTERM, after graceMs more SIGKILL. The
 * pipe (not waitpid) is the progress signal — EOF means the child
 * and any descendants closed the write end, almost always by dying.
 */
WatchResult
watchChild(int fd, pid_t pid, const ProcIsolation &iso)
{
    using Clock = std::chrono::steady_clock;
    WatchResult watch;
    const bool deadline = iso.timeoutS != 0;
    const auto start = Clock::now();
    const auto term_at = start + std::chrono::seconds(iso.timeoutS);
    const auto kill_at =
        term_at + std::chrono::milliseconds(iso.graceMs);

    char buf[4096];
    for (;;) {
        // Block until EOF when there is no deadline left to arm:
        // none configured, or SIGKILL already sent (unblockable, so
        // EOF is guaranteed; polling again would only spin).
        int wait_ms = -1;
        if (deadline && !watch.killed) {
            const auto now = Clock::now();
            const auto next = watch.timedOut ? kill_at : term_at;
            wait_ms = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    next - now)
                    .count());
            if (wait_ms < 0)
                wait_ms = 0;
        }
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready > 0) {
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (n == 0)
                break; // EOF: the child is done (or dead)
            watch.payload.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        // poll timed out: a deadline boundary passed. Escalate.
        if (!watch.timedOut) {
            watch.timedOut = true;
            ::kill(pid, SIGTERM);
        } else if (!watch.killed) {
            watch.killed = true;
            ::kill(pid, SIGKILL);
        }
        // After SIGKILL the read loop still runs: EOF arrives as
        // soon as the kernel reaps the write end.
    }
    return watch;
}

/** waitpid riding out EINTR; returns the raw status word. */
int
awaitChild(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/** Decode a clean child's JSON settlement line; throws the typed
 *  failure the child shipped, returns its result otherwise. */
MixResult
settleWire(const std::string &payload)
{
    const auto parsed = json::Value::tryParse(payload);
    if (!parsed || parsed->type() != json::Value::Type::Object ||
        !parsed->contains("status")) {
        throw JobCrashed("isolated job exited cleanly but returned "
                         "no parsable result");
    }
    const std::string &status = parsed->at("status").asString();
    const std::string error =
        parsed->contains("error") ? parsed->at("error").asString()
                                  : std::string();
    if (status == "ok")
        return mixResultFromJson(*parsed);
    if (status == "stalled")
        throw SimulationStalled(error);
    if (status == "over_budget")
        throw CycleBudgetExceeded(error);
    if (status == "preempted")
        throw JobPreempted(error);
    throw SimulationError(error.empty() ? "isolated job failed"
                                        : error);
}

} // namespace

MixResult
runMixSandboxed(const ProcIsolation &iso,
                const std::function<MixResult()> &body,
                ProcJobHandle *handle)
{
    if (!iso.enabled)
        return body();

    int fds[2];
    if (::pipe(fds) != 0) {
        warn("proc pool: pipe() failed (", std::strerror(errno),
             "); running job in-process");
        return body();
    }

    // Keep SIGTERM blocked across the fork until the child has set
    // its disposition: a preempt sent right after fork() would
    // otherwise take the default action and kill the child.
    sigset_t term, mask;
    sigemptyset(&term);
    sigaddset(&term, SIGTERM);
    ::pthread_sigmask(SIG_BLOCK, &term, &mask);
    const pid_t pid = ::fork();
    if (pid != 0)
        ::pthread_sigmask(SIG_SETMASK, &mask, nullptr);
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        warn("proc pool: fork() failed (", std::strerror(errno),
             "); running job in-process");
        return body();
    }
    if (pid == 0) {
        // Child. Only this fork's own pipe end stays open; the read
        // end (and anything else) is surplus.
        ::close(fds[0]);
        childMain(fds[1], iso, body, mask); // never returns
    }

    // Parent.
    ::close(fds[1]);
    if (handle != nullptr) {
        handle->pid.store(pid, std::memory_order_relaxed);
        // A preempt that raced the fork: deliver it now that there
        // is a child to deliver it to.
        if (handle->preempt.load(std::memory_order_relaxed))
            ::kill(pid, SIGTERM);
    }
    const WatchResult watch = watchChild(fds[0], pid, iso);
    // EOF means the child closed its pipe end (dead or exiting), so
    // its pid cannot be recycled until we reap it below: clearing
    // the handle here closes the requestPreempt() pid-reuse window.
    if (handle != nullptr)
        handle->pid.store(0, std::memory_order_relaxed);
    ::close(fds[0]);
    const int status = awaitChild(pid);

    if (watch.timedOut) {
        throw JobTimedOut(
            "isolated job exceeded its " +
            std::to_string(iso.timeoutS) +
            " s wall-clock deadline (SIGTERM" +
            (watch.killed ? " escalated to SIGKILL after " +
                                std::to_string(iso.graceMs) +
                                " ms grace"
                          : "") +
            ")");
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        if (sig == SIGXCPU) {
            throw JobTimedOut("isolated job exceeded its " +
                              std::to_string(iso.cpuS) +
                              " s CPU limit (" + describeSignal(sig) +
                              ")");
        }
        throw JobCrashed("isolated job killed by " +
                         describeSignal(sig));
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        const int code = WEXITSTATUS(status);
        std::string what;
        if (code == 124)
            what = "isolated job could not apply its resource "
                   "limits (setrlimit failed)";
        else if (code == 123)
            what = "isolated job could not write its result pipe";
        else
            what = "isolated job exited with status " +
                   std::to_string(code);
        throw JobCrashed(what);
    }
    return settleWire(watch.payload);
}

#else // !NUCA_HAVE_FORK

MixResult
runMixSandboxed(const ProcIsolation &iso,
                const std::function<MixResult()> &body,
                ProcJobHandle *handle)
{
    (void)iso; // fromEnv() already warned and disabled
    (void)handle;
    return body();
}

#endif

} // namespace nuca
