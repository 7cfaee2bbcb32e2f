/**
 * @file
 * Outside-in instrumentation for nucabench: an in-memory span log,
 * sampled per-call timers, and the two decorators through which the
 * benchmark observes the simulator's hot boundaries without touching
 * the library — an InstSource wrapper (workload.next) and an
 * L3Organization wrapper (nuca.access). Neither decorator changes what
 * it forwards, so a system built with them simulates bit-identically
 * to one built without.
 */

#ifndef NUCABENCH_PROBES_HH
#define NUCABENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cpu/synth_inst.hh"
#include "nuca/l3_organization.hh"

namespace nucabench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    start)
        .count();
}

/**
 * Spans of one benchmark run: name, start, end and parent, kept in
 * memory (thread-safe; sweep workers record concurrently) and written
 * out once the run ends. A disabled log records nothing and hands out
 * id 0, so untraced code paths pay one branch per span.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id;
        std::uint64_t parent;
        double startS;
        double endS;
    };

    explicit SpanLog(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }

    std::uint64_t
    begin(const char *name, std::uint64_t parent)
    {
        if (!enabled_)
            return 0;
        const double start = secondsSince(origin_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, spans_.size() + 1, parent, start, start});
        return spans_.size();
    }

    void
    end(std::uint64_t id)
    {
        if (id == 0)
            return;
        const double stop = secondsSince(origin_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].endS = stop;
    }

    /** The recorded spans; call once every span has ended. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, std::uint64_t parent)
        : log_(log), id_(log.begin(name, parent))
    {}
    ~SpanScope() { log_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

/**
 * A per-call boundary: every call is counted, a fixed 1-in-period
 * sample is timed. Timing every call would perturb the host time it
 * measures; the sample keeps the clock reads rare. Not thread-safe:
 * one probe per simulated system.
 */
struct Probe
{
    explicit Probe(unsigned period) : period(period) {}

    /** Count one call; true when this call is in the timed sample. */
    bool
    sample()
    {
        return calls++ % period == 0;
    }

    void
    add(double ns)
    {
        ++sampled;
        sampledNs += ns;
    }

    double
    nsPerCall() const
    {
        return sampled == 0 ? 0.0
                            : sampledNs / static_cast<double>(sampled);
    }

    void
    merge(const Probe &other)
    {
        calls += other.calls;
        sampled += other.sampled;
        sampledNs += other.sampledNs;
    }

    unsigned period;
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampledNs = 0.0;
};

/** Counts and samples InstSource::next() of the source it owns. */
class CountingSource : public nuca::InstSource
{
  public:
    CountingSource(std::unique_ptr<nuca::InstSource> inner, Probe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {}

    nuca::SynthInst
    next() override
    {
        if (!probe_.sample())
            return inner_->next();
        const auto start = Clock::now();
        const nuca::SynthInst inst = inner_->next();
        probe_.add(nsSince(start));
        return inst;
    }

    void
    checkpoint(nuca::Serializer &s) const override
    {
        inner_->checkpoint(s);
    }

    void
    restore(nuca::Deserializer &d) override
    {
        inner_->restore(d);
    }

  private:
    std::unique_ptr<nuca::InstSource> inner_;
    Probe &probe_;
};

/**
 * Times an owned L3 organization from outside. access() is counted and
 * sampled by `probe`; between beginNested() and endNested() every
 * access and writeback is also timed, so a caller timing one
 * MemorySystem call can subtract the part spent inside the L3.
 */
class TimedL3 : public nuca::L3Organization
{
  public:
    TimedL3(std::unique_ptr<nuca::L3Organization> inner, unsigned period)
        : probe(period), inner_(std::move(inner))
    {}

    nuca::L3Result
    access(const nuca::MemRequest &req, nuca::Cycle now) override
    {
        const bool sampled = probe.sample();
        if (!sampled && !nested_)
            return inner_->access(req, now);
        const auto start = Clock::now();
        const nuca::L3Result result = inner_->access(req, now);
        const double ns = nsSince(start);
        if (sampled)
            probe.add(ns);
        if (nested_)
            nestedNs_ += ns;
        return result;
    }

    void
    writebackFromL2(nuca::CoreId core, nuca::Addr addr,
                    nuca::Cycle now) override
    {
        if (!nested_) {
            inner_->writebackFromL2(core, addr, now);
            return;
        }
        const auto start = Clock::now();
        inner_->writebackFromL2(core, addr, now);
        nestedNs_ += nsSince(start);
    }

    std::string schemeName() const override
    {
        return inner_->schemeName();
    }

    void
    beginNested()
    {
        nested_ = true;
        nestedNs_ = 0.0;
    }

    /** Host ns spent inside the L3 since beginNested(). */
    double
    endNested()
    {
        nested_ = false;
        return nestedNs_;
    }

    Probe probe;

  private:
    std::unique_ptr<nuca::L3Organization> inner_;
    bool nested_ = false;
    double nestedNs_ = 0.0;
};

} // namespace nucabench

#endif // NUCABENCH_PROBES_HH
