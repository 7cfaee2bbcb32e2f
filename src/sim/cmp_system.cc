#include "sim/cmp_system.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <sstream>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "nuca/private_l3.hh"
#include "nuca/random_replacement_l3.hh"
#include "nuca/shared_l3.hh"
#include "serialize/serializer.hh"
#include "sim/experiment.hh"

namespace nuca {

namespace {

MainMemoryParams
memParamsFor(const SystemConfig &config)
{
    MainMemoryParams p;
    p.firstChunkLatency = config.scheme == L3Scheme::Private
                              ? config.memFirstChunkPrivate
                              : config.memFirstChunkShared;
    return p;
}

} // namespace

CmpSystem::CmpSystem(const SystemConfig &config,
                     const std::vector<WorkloadProfile> &apps,
                     std::uint64_t seed)
    : config_(config),
      root_("system"),
      memory_(root_, "memory", memParamsFor(config))
{
    fatal_if(apps.size() != config_.numCores,
             "need exactly one workload per core (", config_.numCores,
             " cores, ", apps.size(), " workloads)");
    for (unsigned c = 0; c < config_.numCores; ++c) {
        workloads_.push_back(std::make_unique<SynthWorkload>(
            apps[c], static_cast<CoreId>(c),
            seed + c * 0x9e3779b9ull));
    }
    buildSystem();
}

CmpSystem::CmpSystem(const SystemConfig &config,
                     std::vector<std::unique_ptr<InstSource>> sources)
    : config_(config),
      root_("system"),
      memory_(root_, "memory", memParamsFor(config))
{
    fatal_if(sources.size() != config_.numCores,
             "need exactly one instruction source per core (",
             config_.numCores, " cores, ", sources.size(),
             " sources)");
    for (auto &source : sources) {
        fatal_if(source == nullptr, "null instruction source");
        workloads_.push_back(std::move(source));
    }
    buildSystem();
}

void
CmpSystem::buildSystem()
{
    switch (config_.scheme) {
      case L3Scheme::Private: {
          PrivateL3Params p;
          p.numCores = config_.numCores;
          p.sizePerCoreBytes = config_.l3SizePerCoreBytes;
          p.assoc = config_.l3LocalAssoc;
          p.hitLatency = config_.l3LocalLatency;
          p.policy = config_.l3ReplPolicy;
          l3_ = std::make_unique<PrivateL3>(root_, p, memory_);
          break;
      }
      case L3Scheme::Shared: {
          SharedL3Params p;
          p.numCores = config_.numCores;
          p.sizeBytes = config_.l3SizePerCoreBytes * config_.numCores;
          p.assoc = config_.l3LocalAssoc * config_.numCores;
          p.hitLatency = config_.l3SharedLatency;
          p.policy = config_.l3ReplPolicy;
          l3_ = std::make_unique<SharedL3>(root_, p, memory_);
          break;
      }
      case L3Scheme::Adaptive: {
          AdaptiveNucaParams p;
          p.numCores = config_.numCores;
          p.sizePerCoreBytes = config_.l3SizePerCoreBytes;
          p.localAssoc = config_.l3LocalAssoc;
          p.localHitLatency = config_.l3LocalLatency;
          p.remoteHitLatency = config_.l3SharedLatency;
          p.epochMisses = config_.epochMisses;
          p.shadowSampleShift = config_.shadowSampleShift;
          p.adaptationEnabled = config_.adaptationEnabled;
          p.allowRemotePrivateHits = config_.coherentSharing;
          auto adaptive =
              std::make_unique<AdaptiveNuca>(root_, p, memory_);
          adaptive_ = adaptive.get();
          l3_ = std::move(adaptive);
          break;
      }
      case L3Scheme::RandomReplacement: {
          RandomReplacementL3Params p;
          p.numCores = config_.numCores;
          p.sizePerCoreBytes = config_.l3SizePerCoreBytes;
          p.assoc = config_.l3LocalAssoc;
          p.localHitLatency = config_.l3LocalLatency;
          p.remoteHitLatency = config_.l3SharedLatency;
          p.seed = config_.schemeSeed;
          l3_ = std::make_unique<RandomReplacementL3>(root_, p,
                                                      memory_);
          break;
      }
    }

    if (config_.coherentSharing)
        coherence_ = std::make_unique<CoherenceHub>(root_);

    for (unsigned c = 0; c < config_.numCores; ++c) {
        const auto core = static_cast<CoreId>(c);
        memSystems_.push_back(std::make_unique<MemorySystem>(
            root_, "core" + std::to_string(c) + ".mem", core,
            config_.coreMem, *l3_));
        if (coherence_) {
            coherence_->attach(memSystems_.back().get());
            memSystems_.back()->setCoherenceHub(coherence_.get());
        }
        cores_.push_back(std::make_unique<OooCore>(
            root_, "core" + std::to_string(c), core, config_.core,
            *memSystems_.back(), *workloads_[c]));
    }

    committedZero_.assign(config_.numCores, 0);
    l3AccessZero_.assign(config_.numCores, 0);
    coreWake_.assign(config_.numCores, now_);
    corePendingStart_.assign(config_.numCores, now_);
    coreTicks_.assign(config_.numCores, 0);
    // Bucket k of the batch-span histogram holds spans with
    // bit_width k; 64-bit spans give buckets 1..64.
    horizonHist_.assign(65, 0);
    wakeHeap_.reserve(config_.numCores);
    cohort_.reserve(config_.numCores);
    joiners_.reserve(config_.numCores);

    fastForward_ = envOr("REPRO_FASTFWD", 1) != 0;
    setRobustness(RobustnessConfig::fromEnv());
}

void
CmpSystem::setRobustness(const RobustnessConfig &config)
{
    robust_ = config;
    faultPlanted_ = false;
    nextCheck_ = now_ + robust_.checkPeriod;
    // Probe a few times per bound (whichever is tighter) so a stall
    // is reported within ~1.25 windows of its onset and an overaged
    // MSHR entry soon after it crosses the age bound.
    watchdogPeriod_ = std::max<Cycle>(
        1, std::min(robust_.watchdogWindow, robust_.mshrAgeBound) / 4);
    nextWatchdog_ = now_ + watchdogPeriod_;
    watchdogLastProgress_ = now_;
    watchdogLastCommitted_ = 0;
    for (const auto &core : cores_)
        watchdogLastCommitted_ += core->committed();
    scheduleRobustness();
}

void
CmpSystem::scheduleRobustness()
{
    Cycle next = std::numeric_limits<Cycle>::max();
    if (robust_.checkEnabled)
        next = std::min(next, nextCheck_);
    if (robust_.watchdogEnabled)
        next = std::min(next, nextWatchdog_);
    if (robust_.maxCycles != 0)
        next = std::min(next, robust_.maxCycles);
    if (robust_.fault.isSimFault() && !faultPlanted_)
        next = std::min(next, static_cast<Cycle>(robust_.fault.arg));
    robustActive_ = next != std::numeric_limits<Cycle>::max();
    nextRobustEvent_ = next;
}

void
CmpSystem::setFastForward(bool enabled)
{
    if (fastForward_)
        settleCores();
    fastForward_ = enabled;
    // The cached horizons may be stale (built at cycle 0, or left
    // behind by an earlier fast-forwarded run); re-anchor so every
    // core ticks at the current cycle and no phantom span is folded.
    std::fill(coreWake_.begin(), coreWake_.end(), now_);
    std::fill(corePendingStart_.begin(), corePendingStart_.end(),
              now_);
}

void
CmpSystem::settleCores()
{
    for (unsigned c = 0; c < coreWake_.size(); ++c) {
        if (corePendingStart_[c] < now_) {
            cores_[c]->skipStalledCycles(
                corePendingStart_[c], now_ - corePendingStart_[c]);
            corePendingStart_[c] = now_;
        }
    }
}

void
CmpSystem::run(Cycle cycles)
{
    prof::Scope profRun(prof::Phase::Run);
    const Cycle end = now_ + cycles;
    if (!fastForward_) {
        runReference(end);
        return;
    }
    const Counter pops0 = heapPops_;
    const Counter pushes0 = horizonPushes_;
    const Counter batched0 = batchedCycles_;
    runDecoupled(end);
    prof::add(prof::Counter::WakeHeapPops, heapPops_ - pops0);
    prof::add(prof::Counter::HorizonRecomputes, horizonPushes_ - pushes0);
    prof::add(prof::Counter::DecoupledBatchedCycles,
              batchedCycles_ - batched0);
}

void
CmpSystem::runReference(Cycle end)
{
    while (now_ < end) {
        for (unsigned c = 0; c < cores_.size(); ++c) {
            cores_[c]->tick(now_);
            ++coreTicks_[c];
        }
        ++now_;
        if (trace_ && now_ >= nextSample_) {
            emitSample();
            nextSample_ += tracePeriod_;
        }
        if (robustActive_ && now_ >= nextRobustEvent_)
            robustnessTick();
    }
}

void
CmpSystem::runDecoupled(Cycle end)
{
    rebuildWakeHeap();
    frontier_ = now_;
    while (now_ < end) {
        // The barrier: no core tick at or past this cycle may run
        // before the events due there have fired, so samples,
        // robustness events, and the run window end land at the
        // cycles the reference loop lands them.
        Cycle cap = end;
        if (trace_ && nextSample_ < cap)
            cap = nextSample_;
        if (robustActive_ && nextRobustEvent_ < cap)
            cap = nextRobustEvent_;
        if (cap <= now_) {
            // An event that stays due (the lru_corrupt fault retries
            // until the L3 can be corrupted) re-fires after every
            // cycle in the reference loop; advance exactly one.
            cap = now_ + 1;
        }

        runCoresUntil(cap);

        const bool sampleDue = trace_ && now_ >= nextSample_;
        const bool robustDue =
            robustActive_ && now_ >= nextRobustEvent_;
        if (sampleDue || robustDue) {
            prof::Scope profDrain(prof::Phase::UncoreDrain);
            settleCores();
            if (sampleDue) {
                emitSample();
                nextSample_ += tracePeriod_;
            }
            if (robustDue)
                robustnessTick();
        }
    }
    settleCores();
}

void
CmpSystem::runCoresUntil(Cycle cap)
{
    for (;;) {
        Cycle t;
        std::uint32_t c;
        {
            const bool profHeap =
                prof::samplePoint(prof::Phase::WakeHeap);
            prof::MaybeScope s(profHeap, prof::Phase::WakeHeap);
            if (wakeHeap_.empty() || wakeHeap_.front().first >= cap)
                break;
            std::pop_heap(wakeHeap_.begin(), wakeHeap_.end(),
                          std::greater<>());
            t = wakeHeap_.back().first;
            c = wakeHeap_.back().second;
            wakeHeap_.pop_back();
            ++heapPops_;
        }
        if (t > frontier_)
            accountIdleGap(t);

        if (wakeHeap_.empty() || wakeHeap_.front().first > t) {
            advanceSole(c, t, cap);
            continue;
        }

        // Several cores share cycle t: lockstep, ascending coreId
        // per cycle (equal-cycle heap pops already arrive in id
        // order), demoting a core that stalls back to the heap and
        // joining cores as their wake-ups come due.
        cohort_.clear();
        cohort_.push_back(c);
        while (!wakeHeap_.empty() && wakeHeap_.front().first == t) {
            std::pop_heap(wakeHeap_.begin(), wakeHeap_.end(),
                          std::greater<>());
            cohort_.push_back(wakeHeap_.back().second);
            wakeHeap_.pop_back();
            ++heapPops_;
        }
        Cycle u = t;
        for (;;) {
            if (u >= cap) {
                // Still runnable, but the window is over: park the
                // survivors at the barrier cycle.
                for (const std::uint32_t id : cohort_)
                    pushWake(u, id);
                frontier_ = u;
                break;
            }
            if (cohort_.size() == 1) {
                advanceSole(cohort_[0], u, cap);
                break;
            }
            now_ = u;
            std::size_t keep = 0;
            for (std::size_t i = 0; i < cohort_.size(); ++i) {
                const std::uint32_t id = cohort_[i];
                OooCore &core = *cores_[id];
                settlePending(id, u);
                core.tick(u);
                ++coreTicks_[id];
                const Cycle w = core.nextWakeCycle(u);
                corePendingStart_[id] = u + 1;
                if (w == u + 1)
                    cohort_[keep++] = id;
                else
                    pushWake(w, id);
            }
            cohort_.resize(keep);
            ++u;
            if (!wakeHeap_.empty() && wakeHeap_.front().first == u) {
                joiners_.clear();
                while (!wakeHeap_.empty() &&
                       wakeHeap_.front().first == u) {
                    std::pop_heap(wakeHeap_.begin(), wakeHeap_.end(),
                                  std::greater<>());
                    joiners_.push_back(wakeHeap_.back().second);
                    wakeHeap_.pop_back();
                    ++heapPops_;
                }
                const std::size_t mid = cohort_.size();
                cohort_.insert(cohort_.end(), joiners_.begin(),
                               joiners_.end());
                std::inplace_merge(cohort_.begin(),
                                   cohort_.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           mid),
                                   cohort_.end());
            }
            if (cohort_.empty()) {
                frontier_ = u;
                break;
            }
        }
    }
    if (cap > frontier_)
        accountIdleGap(cap);
    now_ = cap;
}

void
CmpSystem::advanceSole(std::uint32_t c, Cycle start, Cycle cap)
{
    // The largest window in which core c provably acts alone: up to
    // the next scheduled core tick — inclusive when this core's id
    // orders it first within that shared cycle — and never past the
    // barrier. Every uncore access the batch makes therefore lands
    // in reference (cycle, coreId) order, and the cores still
    // sleeping only observe shared state at ticks >= the limit.
    Cycle limit = cap;
    if (!wakeHeap_.empty()) {
        const Cycle t2 = wakeHeap_.front().first;
        if (t2 < cap)
            limit = c < wakeHeap_.front().second ? t2 + 1 : t2;
    }

    settlePending(c, start);
    const bool profAdv = prof::samplePoint(prof::Phase::CoreAdvance);
    prof::MaybeScope profScope(profAdv, prof::Phase::CoreAdvance);
    const OooCore::AdvanceResult res =
        cores_[c]->advance(start, limit, now_);
    coreTicks_[c] += res.ticks;
    const Cycle span = res.doneThrough - start;
    batchedCycles_ += span;
    ++horizonHist_[static_cast<std::size_t>(std::bit_width(span))];
    // Cycles the batch folded internally are machine-idle (no other
    // core was scheduled inside the window), so they count as
    // fast-forwarded.
    ffSkipped_ += span - res.ticks;
    corePendingStart_[c] = res.doneThrough;
    frontier_ = res.doneThrough;
    pushWake(res.nextWake, c);
}

void
CmpSystem::rebuildWakeHeap()
{
    wakeHeap_.clear();
    for (unsigned c = 0; c < coreWake_.size(); ++c) {
        if (coreWake_[c] == OooCore::neverWakes)
            continue;
        // Horizons are >= now_ on every entry path (run() exits with
        // all wakes past now_; restore and setFastForward anchor at
        // now_); the clamp only defends that invariant.
        wakeHeap_.emplace_back(std::max(coreWake_[c], now_),
                               static_cast<std::uint32_t>(c));
    }
    std::make_heap(wakeHeap_.begin(), wakeHeap_.end(),
                   std::greater<>());
}

void
CmpSystem::pushWake(Cycle wake, std::uint32_t c)
{
    coreWake_[c] = wake;
    if (wake == OooCore::neverWakes)
        return;
    wakeHeap_.emplace_back(wake, c);
    std::push_heap(wakeHeap_.begin(), wakeHeap_.end(),
                   std::greater<>());
    ++horizonPushes_;
}

void
CmpSystem::settlePending(std::uint32_t c, Cycle upTo)
{
    if (corePendingStart_[c] < upTo) {
        cores_[c]->skipStalledCycles(corePendingStart_[c],
                                     upTo - corePendingStart_[c]);
        corePendingStart_[c] = upTo;
    }
}

void
CmpSystem::accountIdleGap(Cycle to)
{
    const Cycle skipped = to - frontier_;
    ffSkipped_ += skipped;
    ++ffJumps_;
    prof::add(prof::Counter::FastForwardJumps, 1);
    prof::add(prof::Counter::FastForwardCycles, skipped);
    if (events_ && events_->enabled()) {
        events_->complete(evtPid_, 0, "ff_jump",
                          static_cast<double>(frontier_),
                          static_cast<double>(skipped),
                          json::Value::object().set("cycles",
                                                    skipped));
    }
    frontier_ = to;
}

void
CmpSystem::robustnessTick()
{
    if (robust_.fault.isSimFault() && !faultPlanted_ &&
        now_ >= robust_.fault.arg) {
        plantFault();
    }
    if (robust_.checkEnabled && now_ >= nextCheck_) {
        if (events_ && events_->enabled())
            events_->instant(evtPid_, 0, "invariant_check",
                             static_cast<double>(now_));
        checkStructuralInvariants();
        nextCheck_ += robust_.checkPeriod;
    }
    if (robust_.watchdogEnabled && now_ >= nextWatchdog_) {
        watchdogCheck();
        nextWatchdog_ += watchdogPeriod_;
    }
    if (robust_.maxCycles != 0 && now_ >= robust_.maxCycles) {
        if (events_ && events_->enabled())
            events_->instant(evtPid_, 0, "cycle_budget_exceeded",
                             static_cast<double>(now_));
        throw CycleBudgetExceeded(
            "cycle budget of " + std::to_string(robust_.maxCycles) +
            " exhausted at cycle " + std::to_string(now_) + "\n" +
            progressSnapshot());
    }
    scheduleRobustness();
}

void
CmpSystem::plantFault()
{
    switch (robust_.fault.kind) {
      case FaultKind::LruCorrupt:
          // The L3 needs two valid blocks in one set to duplicate a
          // stamp; keep retrying until the workload has filled that
          // much.
          if (!l3_->injectLruCorruption())
              return;
          warn("fault injection: corrupted L3 LRU state at cycle ",
               now_);
          break;
      case FaultKind::MshrLeak:
          memSystems_[0]->l2d().mshrs().injectLeak(now_);
          break;
      case FaultKind::ChannelStall:
          memory_.injectChannelStall(
              std::numeric_limits<Cycle>::max() / 2);
          break;
      default:
          panic("fault kind is not a simulator fault");
    }
    faultPlanted_ = true;
}

void
CmpSystem::checkStructuralInvariants() const
{
    l3_->checkStructure();
    for (const auto &mem : memSystems_) {
        mem->l1d().mshrs().checkInvariants();
        mem->l2d().mshrs().checkInvariants();
    }
}

void
CmpSystem::watchdogCheck()
{
    Counter committed = 0;
    for (const auto &core : cores_)
        committed += core->committed();
    if (committed != watchdogLastCommitted_) {
        watchdogLastCommitted_ = committed;
        watchdogLastProgress_ = now_;
    } else if (now_ - watchdogLastProgress_ >= robust_.watchdogWindow) {
        if (events_ && events_->enabled())
            events_->instant(evtPid_, 0, "watchdog_stall",
                             static_cast<double>(now_));
        throw SimulationStalled(
            "no instruction retired in " +
            std::to_string(now_ - watchdogLastProgress_) +
            " cycles (window " +
            std::to_string(robust_.watchdogWindow) + ")\n" +
            progressSnapshot());
    }

    for (unsigned c = 0; c < config_.numCores; ++c) {
        const Cycle age =
            memSystems_[c]->l2d().mshrs().oldestAge(now_);
        if (age > robust_.mshrAgeBound) {
            if (events_ && events_->enabled())
                events_->instant(evtPid_, 0, "mshr_age_bound",
                                 static_cast<double>(now_));
            throw SimulationStalled(
                "core " + std::to_string(c) +
                " has an L2D MSHR entry outstanding for " +
                std::to_string(age) + " cycles (bound " +
                std::to_string(robust_.mshrAgeBound) + ")\n" +
                progressSnapshot());
        }
    }
}

std::string
CmpSystem::progressSnapshot() const
{
    std::ostringstream out;
    out << "progress snapshot at cycle " << now_ << ":";
    for (unsigned c = 0; c < config_.numCores; ++c) {
        auto &mshrs = memSystems_[c]->l2d().mshrs();
        out << "\n  core" << c << ": committed="
            << cores_[c]->committed()
            << " l2d_mshr_in_flight=" << mshrs.inFlight(now_)
            << " l2d_mshr_oldest_age=" << mshrs.oldestAge(now_);
    }
    out << "\n  memory: busy_until=" << memory_.busyUntil()
        << " fetches=" << memory_.fetches()
        << " queue_cycles=" << memory_.queueCycles();
    return out.str();
}

void
CmpSystem::attachTelemetry(TraceSink *sink, Cycle period)
{
    if (adaptive_) {
        adaptive_->engine().setRepartitionObserver(
            sink == nullptr
                ? std::function<void(const RepartitionEvent &)>{}
                : [this](const RepartitionEvent &event) {
                      emitRepartition(event);
                  });
    }
    trace_ = sink;
    if (sink == nullptr)
        return;
    fatal_if(period == 0, "telemetry sample period must be positive");
    tracePeriod_ = period;
    nextSample_ = now_ + period;

    samplePrevCycle_ = now_;
    samplePrevCommitted_.assign(config_.numCores, 0);
    samplePrevL3Access_.assign(config_.numCores, 0);
    samplePrevL3Miss_.assign(config_.numCores, 0);
    samplePrevL3Local_.assign(config_.numCores, 0);
    samplePrevL3Remote_.assign(config_.numCores, 0);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const auto core = static_cast<CoreId>(c);
        samplePrevCommitted_[c] = cores_[c]->committed();
        samplePrevL3Access_[c] = memSystems_[c]->l3DataAccesses();
        samplePrevL3Miss_[c] = memSystems_[c]->l3DataMisses();
        if (adaptive_) {
            samplePrevL3Local_[c] = adaptive_->localHitsOf(core);
            samplePrevL3Remote_[c] = adaptive_->remoteHitsOf(core);
            samplePrevL3Miss_[c] = adaptive_->missesOf(core);
        }
    }
    samplePrevFetches_ = memory_.fetches();
    samplePrevWritebacks_ = memory_.writebacks();
    samplePrevQueueCycles_ = memory_.queueCycles();

    json::Value meta = json::Value::object();
    meta.set("type", "meta");
    meta.set("cycle", now_);
    meta.set("scheme", l3_->schemeName());
    meta.set("cores", static_cast<std::uint64_t>(config_.numCores));
    meta.set("period", period);
    trace_->write(meta);
    prof::add(prof::Counter::TraceRecords, 1);
}

void
CmpSystem::emitSample()
{
    prof::Scope profSample(prof::Phase::TelemetrySample);
    const Cycle span = now_ - samplePrevCycle_;
    json::Value record = json::Value::object();
    record.set("type", "sample");
    record.set("cycle", now_);

    json::Value cores = json::Value::array();
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const auto core = static_cast<CoreId>(c);
        json::Value entry = json::Value::object();

        const Counter committed = cores_[c]->committed();
        entry.set("ipc",
                  span == 0 ? 0.0
                            : static_cast<double>(
                                  committed - samplePrevCommitted_[c]) /
                                  static_cast<double>(span));
        samplePrevCommitted_[c] = committed;

        const Counter accesses = memSystems_[c]->l3DataAccesses();
        entry.set("l3_access", accesses - samplePrevL3Access_[c]);
        samplePrevL3Access_[c] = accesses;

        if (adaptive_) {
            const Counter local = adaptive_->localHitsOf(core);
            const Counter remote = adaptive_->remoteHitsOf(core);
            const Counter miss = adaptive_->missesOf(core);
            entry.set("l3_local", local - samplePrevL3Local_[c]);
            entry.set("l3_remote", remote - samplePrevL3Remote_[c]);
            entry.set("l3_miss", miss - samplePrevL3Miss_[c]);
            samplePrevL3Local_[c] = local;
            samplePrevL3Remote_[c] = remote;
            samplePrevL3Miss_[c] = miss;
            entry.set("quota", static_cast<std::uint64_t>(
                                   adaptive_->engine().quota(core)));
        } else {
            const Counter miss = memSystems_[c]->l3DataMisses();
            entry.set("l3_miss", miss - samplePrevL3Miss_[c]);
            samplePrevL3Miss_[c] = miss;
        }

        // Occupancy snapshot of the L2D MSHR file (the bound on this
        // core's outstanding L3 traffic). inFlight only prunes
        // entries the next access would prune anyway.
        entry.set("mshr",
                  static_cast<std::uint64_t>(
                      memSystems_[c]->l2d().mshrs().inFlight(now_)));
        cores.append(std::move(entry));
    }
    record.set("cores", std::move(cores));

    json::Value mem = json::Value::object();
    const Counter fetches = memory_.fetches();
    const Counter writebacks = memory_.writebacks();
    const Counter queued = memory_.queueCycles();
    mem.set("fetches", fetches - samplePrevFetches_);
    mem.set("writebacks", writebacks - samplePrevWritebacks_);
    mem.set("queue_cycles", queued - samplePrevQueueCycles_);
    // Fraction of the interval the channel spent transferring
    // blocks: fetches * slot length over the interval, capped at 1.
    const double busy =
        span == 0 ? 0.0
                  : static_cast<double>(fetches - samplePrevFetches_) *
                        static_cast<double>(memory_.transferSlot()) /
                        static_cast<double>(span);
    mem.set("busy_frac", busy > 1.0 ? 1.0 : busy);
    samplePrevFetches_ = fetches;
    samplePrevWritebacks_ = writebacks;
    samplePrevQueueCycles_ = queued;
    record.set("mem", std::move(mem));

    samplePrevCycle_ = now_;
    trace_->write(record);
    prof::add(prof::Counter::TraceRecords, 1);

    // The add-on observability surfaces ride the sample boundary:
    // the heatmap record follows its sample in the same JSONL
    // stream, and the counter tracks land at the same cycle on the
    // trace-event log. Both read counters the simulation maintains
    // anyway, so enabling them cannot change simulated behaviour.
    if (heatBuckets_ != 0)
        emitHeatmap();
    if (events_ && events_->enabled())
        emitCounterEvents();
}

bool
CmpSystem::enableHeatmap(unsigned buckets)
{
    fatal_if(buckets == 0, "heatmap bucket count must be positive");
    if (!l3_->enableHeatmap())
        return false;
    const L3Heatmap &heat = *l3_->heatmap();
    heatBuckets_ = std::min(buckets, heat.sets());
    heatPrevAccess_.assign(std::size_t(heat.banks()) * heatBuckets_,
                           0);
    heatPrevMiss_.assign(std::size_t(heat.banks()) * heatBuckets_, 0);
    return true;
}

void
CmpSystem::emitHeatmap()
{
    prof::Scope profHeat(prof::Phase::HeatmapSample);
    const L3Heatmap &heat = *l3_->heatmap();
    const unsigned banks = heat.banks();
    const unsigned sets = heat.sets();

    json::Value record = json::Value::object();
    record.set("type", "heatmap");
    record.set("cycle", now_);
    record.set("scheme", l3_->schemeName());
    record.set("banks", static_cast<std::uint64_t>(banks));
    record.set("sets", static_cast<std::uint64_t>(sets));
    record.set("buckets", static_cast<std::uint64_t>(heatBuckets_));

    // Bucketize the running totals and report the delta since the
    // previous heatmap record, so each record maps the *interval*
    // (like the sample records) rather than ever-growing sums.
    auto grid = [&](const std::vector<std::uint64_t> &totals,
                    std::vector<std::uint64_t> &prev) {
        json::Value rows = json::Value::array();
        for (unsigned b = 0; b < banks; ++b) {
            json::Value row = json::Value::array();
            for (unsigned k = 0; k < heatBuckets_; ++k) {
                const std::size_t setLo =
                    std::size_t(k) * sets / heatBuckets_;
                const std::size_t setHi =
                    std::size_t(k + 1) * sets / heatBuckets_;
                std::uint64_t sum = 0;
                for (std::size_t s = setLo; s < setHi; ++s)
                    sum += totals[std::size_t(b) * sets + s];
                const std::size_t i =
                    std::size_t(b) * heatBuckets_ + k;
                row.append(sum - prev[i]);
                prev[i] = sum;
            }
            rows.append(std::move(row));
        }
        return rows;
    };
    record.set("access", grid(heat.accesses(), heatPrevAccess_));
    record.set("miss", grid(heat.misses(), heatPrevMiss_));

    json::Value occ = json::Value::array();
    for (const auto &hist : l3_->occupancyHistograms()) {
        json::Value row = json::Value::array();
        for (const std::uint64_t n : hist)
            row.append(n);
        occ.append(std::move(row));
    }
    record.set("occupancy", std::move(occ));

    trace_->write(record);
    prof::add(prof::Counter::TraceRecords, 1);
    prof::add(prof::Counter::HeatmapRecords, 1);
}

void
CmpSystem::attachTraceEvents(TraceEventLog *log,
                             const std::string &label)
{
    events_ = log;
    if (log == nullptr)
        return;
    evtPid_ = log->newProcess("sim:" + label);
    evtPrevMshrStalls_.assign(config_.numCores, 0);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        evtPrevMshrStalls_[c] =
            memSystems_[c]->l2d().mshrs().structuralStalls();
    }
}

void
CmpSystem::emitCounterEvents()
{
    const double ts = static_cast<double>(now_);
    json::Value ipc = json::Value::object();
    json::Value stalls = json::Value::object();
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const std::string key = "core" + std::to_string(c);
        ipc.set(key, ipcOf(static_cast<CoreId>(c)));
        const Counter total =
            memSystems_[c]->l2d().mshrs().structuralStalls();
        stalls.set(key, total - evtPrevMshrStalls_[c]);
        evtPrevMshrStalls_[c] = total;
    }
    events_->counter(evtPid_, 0, "ipc", ts, std::move(ipc));
    events_->counter(evtPid_, 0, "mshr_full_stalls", ts,
                     std::move(stalls));

    if (adaptive_) {
        json::Value quota = json::Value::object();
        for (unsigned c = 0; c < config_.numCores; ++c) {
            quota.set("core" + std::to_string(c),
                      static_cast<std::uint64_t>(
                          adaptive_->engine().quota(
                              static_cast<CoreId>(c))));
        }
        events_->counter(evtPid_, 0, "quota", ts, std::move(quota));
    }
}

void
CmpSystem::emitRepartition(const RepartitionEvent &event)
{
    json::Value record = json::Value::object();
    record.set("type", "repartition");
    record.set("cycle", now_);
    record.set("epoch", event.epoch);
    record.set("gainer", event.gainer);
    record.set("loser", event.loser);
    record.set("moved", event.moved);
    record.set("scaled_gain", event.scaledGain);

    const auto unsignedArray = [](const std::vector<unsigned> &vals) {
        json::Value arr = json::Value::array();
        for (const unsigned v : vals)
            arr.append(static_cast<std::uint64_t>(v));
        return arr;
    };
    const auto counterArray = [](const std::vector<Counter> &vals) {
        json::Value arr = json::Value::array();
        for (const Counter v : vals)
            arr.append(v);
        return arr;
    };
    record.set("quota_before", unsignedArray(event.quotaBefore));
    record.set("quota_after", unsignedArray(event.quotaAfter));
    record.set("shadow_hits", counterArray(event.shadowHits));
    record.set("lru_hits", counterArray(event.lruHits));
    trace_->write(record);
    prof::add(prof::Counter::TraceRecords, 1);

    if (events_ && events_->enabled()) {
        json::Value args = json::Value::object();
        args.set("epoch", event.epoch);
        args.set("gainer", event.gainer);
        args.set("loser", event.loser);
        args.set("moved", event.moved);
        args.set("quota_before", unsignedArray(event.quotaBefore));
        args.set("quota_after", unsignedArray(event.quotaAfter));
        events_->instant(evtPid_, 0, "repartition",
                         static_cast<double>(now_), std::move(args));
    }
}

void
CmpSystem::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("SYST"));
    s.putU64(now_);
    s.putU64(statsZero_);
    s.putVecU64(committedZero_);
    s.putVecU64(l3AccessZero_);
    for (const auto &workload : workloads_)
        workload->checkpoint(s);
    l3_->checkpoint(s);
    memory_.checkpoint(s);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        memSystems_[c]->checkpoint(s);
        cores_[c]->checkpoint(s);
    }
    root_.serialize(s);
}

void
CmpSystem::restore(Deserializer &d)
{
    d.expectTag(fourcc("SYST"), "cmp system");
    now_ = d.getU64();
    statsZero_ = d.getU64();
    committedZero_ =
        d.getVecU64(config_.numCores, "committed baselines");
    l3AccessZero_ =
        d.getVecU64(config_.numCores, "L3 access baselines");
    for (auto &workload : workloads_)
        workload->restore(d);
    l3_->restore(d);
    memory_.restore(d);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        memSystems_[c]->restore(d);
        cores_[c]->restore(d);
    }
    root_.deserialize(d);
    // The watchdog and periodic checks were baselined at cycle 0 in
    // the constructor; re-anchor them at the restored cycle. Same
    // for the per-core skip horizons: force a real tick at now_
    // (harmless if the core is still stalled — a stalled tick
    // records exactly what the fold would) and clear pending spans.
    setRobustness(robust_);
    std::fill(coreWake_.begin(), coreWake_.end(), now_);
    std::fill(corePendingStart_.begin(), corePendingStart_.end(),
              now_);
}

void
CmpSystem::resetStats()
{
    statsZero_ = now_;
    for (unsigned c = 0; c < config_.numCores; ++c) {
        committedZero_[c] = cores_[c]->committed();
        l3AccessZero_[c] = memSystems_[c]->l3DataAccesses();
    }
}

Counter
CmpSystem::coreTicksExecuted(CoreId core) const
{
    panic_if(core < 0 ||
                 static_cast<unsigned>(core) >= coreTicks_.size(),
             "core id out of range");
    return coreTicks_[static_cast<unsigned>(core)];
}

double
CmpSystem::ipcOf(CoreId core) const
{
    panic_if(core < 0 ||
                 static_cast<unsigned>(core) >= config_.numCores,
             "core id out of range");
    const Cycle cycles = measuredCycles();
    if (cycles == 0)
        return 0.0;
    const Counter insts =
        cores_[static_cast<unsigned>(core)]->committed() -
        committedZero_[static_cast<unsigned>(core)];
    return static_cast<double>(insts) / static_cast<double>(cycles);
}

std::vector<double>
CmpSystem::ipcs() const
{
    std::vector<double> out;
    out.reserve(config_.numCores);
    for (unsigned c = 0; c < config_.numCores; ++c)
        out.push_back(ipcOf(static_cast<CoreId>(c)));
    return out;
}

double
CmpSystem::l3AccessesPerKilocycle(CoreId core) const
{
    const Cycle cycles = measuredCycles();
    if (cycles == 0)
        return 0.0;
    const Counter accesses =
        memSystems_[static_cast<unsigned>(core)]->l3DataAccesses() -
        l3AccessZero_[static_cast<unsigned>(core)];
    return 1000.0 * static_cast<double>(accesses) /
           static_cast<double>(cycles);
}

OooCore &
CmpSystem::coreAt(CoreId core)
{
    panic_if(core < 0 ||
                 static_cast<unsigned>(core) >= cores_.size(),
             "core id out of range");
    return *cores_[static_cast<unsigned>(core)];
}

MemorySystem &
CmpSystem::memOf(CoreId core)
{
    panic_if(core < 0 ||
                 static_cast<unsigned>(core) >= memSystems_.size(),
             "core id out of range");
    return *memSystems_[static_cast<unsigned>(core)];
}

} // namespace nuca
