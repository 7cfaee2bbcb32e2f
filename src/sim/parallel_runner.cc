#include "sim/parallel_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "base/logging.hh"
#include "base/random.hh"

namespace nuca {

const char *
to_string(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::Stalled:
        return "stalled";
      case JobStatus::OverBudget:
        return "over_budget";
      case JobStatus::Crashed:
        return "crashed";
      case JobStatus::TimedOut:
        return "timed_out";
      case JobStatus::Quarantined:
        return "quarantined";
      case JobStatus::Interrupted:
        return "interrupted";
    }
    panic("unknown job status");
}

bool
isRetryable(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
      case JobStatus::OverBudget:
      case JobStatus::Quarantined:
        return false;
      case JobStatus::Failed:
      case JobStatus::Stalled:
      case JobStatus::Crashed:
      case JobStatus::TimedOut:
      // Never attempted: a rerun is the job's first attempt.
      case JobStatus::Interrupted:
        return true;
    }
    panic("unknown job status");
}

unsigned
retryBackoffMs(const SweepPolicy &policy, std::size_t job_index,
               unsigned attempt)
{
    if (policy.backoffMs == 0 || attempt == 0)
        return 0;
    // Exponential in the retry ordinal, capped well before the shift
    // can overflow and at 30 s overall — a sweep's backoff should
    // yield the core, not park the worker for the night.
    constexpr unsigned kCapMs = 30'000;
    const unsigned doublings = std::min(attempt - 1, 20u);
    const std::uint64_t base =
        std::min<std::uint64_t>(std::uint64_t(policy.backoffMs)
                                    << doublings,
                                kCapMs);
    // Deterministic jitter: seeded from (job, attempt) so two workers
    // retrying simultaneously desynchronize, yet every run of the
    // same sweep sleeps the same schedule.
    Rng rng(0x9e3779b97f4a7c15ull ^
            (std::uint64_t(job_index) * 0xdeadbeefull + attempt));
    const std::uint64_t jitter = rng.below(base / 2 + 1);
    return static_cast<unsigned>(
        std::min<std::uint64_t>(base + jitter, kCapMs));
}

namespace parallel_detail {

void
backoffSleep(unsigned delay_ms)
{
    if (delay_ms != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms));
}

} // namespace parallel_detail

ProgressReporter::ProgressReporter(std::string label,
                                   std::size_t total, bool quiet)
    : label_(std::move(label)), total_(total),
      quiet_(quiet || total == 0)
{
}

void
ProgressReporter::redraw()
{
    if (quiet_)
        return;
    if (failed_ == 0) {
        std::fprintf(stderr, "  [%s] %zu/%zu\r", label_.c_str(),
                     done_, total_);
    } else if (crashed_ == 0) {
        std::fprintf(stderr, "  [%s] %zu/%zu (%zu failed)\r",
                     label_.c_str(), done_ + failed_, total_,
                     failed_);
    } else {
        std::fprintf(stderr,
                     "  [%s] %zu/%zu (%zu failed, %zu crashed)\r",
                     label_.c_str(), done_ + failed_, total_,
                     failed_, crashed_);
    }
    std::fflush(stderr);
}

void
ProgressReporter::completed()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ++done_;
    redraw();
}

void
ProgressReporter::failed()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ++failed_;
    redraw();
}

void
ProgressReporter::crashed()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ++failed_;
    ++crashed_;
    redraw();
}

void
ProgressReporter::finish()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (quiet_ || finished_)
        return;
    finished_ = true;
    if (failed_ == 0) {
        std::fprintf(stderr, "  [%s] done (%zu jobs)      \n",
                     label_.c_str(), done_);
    } else if (crashed_ == 0) {
        std::fprintf(stderr,
                     "  [%s] done %zu/%zu (%zu failed)      \n",
                     label_.c_str(), done_, total_, failed_);
    } else {
        std::fprintf(
            stderr,
            "  [%s] done %zu/%zu (%zu failed, %zu crashed)      \n",
            label_.c_str(), done_, total_, failed_, crashed_);
    }
    std::fflush(stderr);
}

std::size_t
ProgressReporter::done() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return done_;
}

std::size_t
ProgressReporter::failures() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return failed_;
}

std::size_t
ProgressReporter::crashes() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return crashed_;
}

} // namespace nuca
