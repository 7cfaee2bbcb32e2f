/** @file Unit tests for the out-of-order core's timing behaviour. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "base/random.hh"

#include "cpu/ooo_core.hh"
#include "mem/main_memory.hh"
#include "nuca/private_l3.hh"
#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

/** InstSource generating instructions from an index function. */
class FnSource : public InstSource
{
  public:
    explicit FnSource(std::function<SynthInst(std::uint64_t)> fn)
        : fn_(std::move(fn))
    {}

    SynthInst
    next() override
    {
        return fn_(index_++);
    }

  private:
    std::function<SynthInst(std::uint64_t)> fn_;
    std::uint64_t index_ = 0;
};

/** A full single-core rig: core + hierarchy + private L3 + memory. */
struct Rig
{
    explicit Rig(std::function<SynthInst(std::uint64_t)> fn)
        : root("t"),
          memory(root, "memory", MainMemoryParams{258, 4, 8}),
          l3(root, PrivateL3Params{}, memory),
          mem(root, "mem", 0, CoreMemoryParams{}, l3),
          source(std::move(fn)),
          core(root, "core", 0, OooCoreParams{}, mem, source)
    {
    }

    /** Run for @p cycles and return the committed IPC. */
    double
    run(Cycle cycles)
    {
        for (Cycle t = now_; t < now_ + cycles; ++t)
            core.tick(t);
        now_ += cycles;
        return static_cast<double>(core.committed()) /
               static_cast<double>(now_);
    }

    /** Warm up, then return the IPC of the measured window only
     * (excludes cold-start I-cache misses). */
    double
    runWarm(Cycle warmup, Cycle measure)
    {
        run(warmup);
        const Counter before = core.committed();
        run(measure);
        return static_cast<double>(core.committed() - before) /
               static_cast<double>(measure);
    }

    Cycle now_ = 0;

    stats::Group root;
    MainMemory memory;
    PrivateL3 l3;
    MemorySystem mem;
    FnSource source;
    OooCore core;
};

/** A plain independent ALU op at a small looping PC. */
SynthInst
aluAt(std::uint64_t i)
{
    SynthInst inst;
    inst.op = OpClass::IntAlu;
    inst.pc = 0x1000 + (i % 256) * 4;
    return inst;
}

TEST(OooCore, IndependentAluStreamReachesFullWidth)
{
    Rig rig(aluAt);
    const double ipc = rig.runWarm(8000, 20000);
    // 4-wide machine with no hazards: IPC close to 4.
    EXPECT_GT(ipc, 3.7);
    EXPECT_LE(ipc, 4.0);
}

TEST(OooCore, SerialDependenceChainLimitsIpcToOne)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.depDist[0] = 1; // each op needs its predecessor
        return inst;
    });
    const double ipc = rig.runWarm(8000, 20000);
    EXPECT_GT(ipc, 0.9);
    EXPECT_LT(ipc, 1.1);
}

TEST(OooCore, FpDividesSerializeOnTheSingleUnit)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.op = OpClass::FpDiv;
        return inst;
    });
    const double ipc = rig.run(20000);
    // One unpipelined FP divider, 12-cycle latency: ~1/12 IPC.
    EXPECT_NEAR(ipc, 1.0 / 12.0, 0.02);
}

TEST(OooCore, LoadsHittingL1SustainMemPortThroughput)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.op = OpClass::Load;
        // A tiny set of hot addresses: after warmup all L1 hits.
        inst.effAddr = 0x100000 + (i % 16) * 8;
        return inst;
    });
    const double ipc = rig.runWarm(8000, 20000);
    // Two memory ports bound an all-load stream at 2 per cycle.
    EXPECT_GT(ipc, 1.8);
    EXPECT_LE(ipc, 2.05);
}

TEST(OooCore, ColdLoadsFillTheRuuWithOutstandingMisses)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.op = OpClass::Load;
        // Every load misses everywhere (streaming).
        inst.effAddr = 0x1000000 + i * blockBytes;
        return inst;
    });
    rig.run(2000);
    // Long-latency misses back the machine up to the L1 MSHR bound
    // (16 outstanding misses) plus issued-but-stalled work.
    EXPECT_GT(rig.core.ruuOccupancy(), 16u);
    EXPECT_GT(rig.core.lsqOccupancy(), 16u);
    EXPECT_GT(rig.mem.l1d().mshrs().structuralStalls(), 0u);
}

TEST(OooCore, MispredictedBranchesThrottleFetch)
{
    // Never-taken branches that the predictor learns perfectly vs
    // 50/50 random branches.
    Rig predictable([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 4 == 3) {
            inst.op = OpClass::Branch;
            inst.pc = 0x2000;
            inst.taken = false;
        }
        return inst;
    });
    auto rng = std::make_shared<Rng>(99);
    Rig random([rng](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 4 == 3) {
            inst.op = OpClass::Branch;
            inst.pc = 0x2000;
            inst.taken = rng->chance(0.5); // irreducibly random
            inst.target = 0x3000;
        }
        return inst;
    });
    const double ipc_good = predictable.runWarm(8000, 30000);
    const double ipc_bad = random.runWarm(8000, 30000);
    EXPECT_GT(ipc_good, ipc_bad * 1.5);
    EXPECT_GT(random.core.predictor().mispredictRate(), 0.2);
}

TEST(OooCore, TakenBranchLimitsFetchToOneBasicBlockPerCycle)
{
    // Alternating taken branches: fetch can pass at most one taken
    // branch per cycle, capping IPC near the run length.
    Rig rig([](std::uint64_t i) {
        SynthInst inst;
        if (i % 2 == 0) {
            inst.op = OpClass::IntAlu;
            inst.pc = 0x1000;
        } else {
            inst.op = OpClass::Branch;
            inst.pc = 0x1004;
            inst.taken = true;
            inst.target = 0x1000;
        }
        return inst;
    });
    const double ipc = rig.run(30000);
    EXPECT_LT(ipc, 2.3);
    EXPECT_GT(ipc, 1.2);
}

TEST(OooCore, StoreToLoadForwardingHappens)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 8 == 0) {
            inst.op = OpClass::Store;
            inst.effAddr = 0x100000 + (i % 64) * 8;
        } else if (i % 8 == 1) {
            inst.op = OpClass::Load;
            inst.effAddr = 0x100000 + ((i - 1) % 64) * 8;
        }
        return inst;
    });
    rig.run(10000);
    EXPECT_GT(rig.core.committed(), 0u);
    // Loads one instruction behind a same-word store forward.
    EXPECT_GT(rig.core.forwardedLoads(), 0u);
}

TEST(OooCore, CommittedMemOpsCountsLoadsAndStores)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 2 == 0) {
            inst.op = OpClass::Load;
            inst.effAddr = 0x100000 + (i % 8) * 8;
        }
        return inst;
    });
    rig.run(5000);
    const Counter committed = rig.core.committed();
    const Counter mem_ops = rig.core.committedMemOps();
    EXPECT_NEAR(static_cast<double>(mem_ops) /
                    static_cast<double>(committed),
                0.5, 0.05);
}

TEST(OooCore, IcacheMissesStallFetch)
{
    // Jump across a huge code footprint every instruction: every
    // line is cold, so fetch pays an L2I/L3/memory trip per line.
    Rig rig([](std::uint64_t i) {
        SynthInst inst;
        inst.op = OpClass::IntAlu;
        inst.pc = 0x1000 + i * 4096;
        return inst;
    });
    const double ipc = rig.run(20000);
    EXPECT_LT(ipc, 0.1);
}

/**
 * Groups of a load to a cold line followed by a serial chain of
 * @p chain dependent ALU ops; each group's load depends on the
 * previous group's last op, so the groups run one after another.
 */
SynthInst
loadThenChain(std::uint64_t i, unsigned chain)
{
    SynthInst inst = aluAt(i);
    const std::uint64_t group = i / (chain + 1);
    if (i % (chain + 1) == 0) {
        inst.op = OpClass::Load;
        // An odd multiplier permutes the group numbers, so every
        // group touches its own line in no stride a prefetcher
        // could follow.
        inst.effAddr =
            0x40000000 + ((group * 0x9e3779b1ull) & 0xfffff) * 64;
    }
    inst.depDist[0] = 1;
    return inst;
}

/** Tick @p rig for @p cycles and return each instruction's commit
 * cycle, in program order. */
std::vector<Cycle>
commitCycles(Rig &rig, Cycle cycles)
{
    std::vector<Cycle> at;
    for (Cycle t = 0; t < cycles; ++t) {
        rig.core.tick(t);
        while (at.size() < rig.core.committed())
            at.push_back(t);
    }
    return at;
}

TEST(OooCore, WakeUpBeyondTheWheelHorizonComesFromTheHeap)
{
    // The consumer of a memory-latency load wakes far beyond the
    // issue scheduler's 64-cycle wheel, so its wake-up goes through
    // the overflow heap. It must still issue the cycle the load
    // completes: commit exactly one cycle behind the load.
    Rig rig([](std::uint64_t i) { return loadThenChain(i, 1); });
    const std::vector<Cycle> at = commitCycles(rig, 30000);
    ASSERT_GT(at.size(), 40u);
    unsigned long_waits = 0;
    for (std::size_t g = 0; g + 3 < at.size(); g += 2) {
        EXPECT_EQ(at[g + 1], at[g] + 1) << "group " << g / 2;
        if (at[g + 2] - at[g] > 64)
            ++long_waits;
    }
    EXPECT_GT(long_waits, 20u);
}

TEST(OooCore, IssueSleepLongerThanTheWheelWrapsTheDrain)
{
    // Each load's miss puts the issue stage to sleep for more than
    // a full wheel revolution; on waking, the drain covers every
    // bucket, and the dependent chain behind the load then wakes
    // through the wheel one cycle at a time. Every chain op must
    // commit exactly one cycle after its producer.
    constexpr unsigned chain = 8;
    Rig rig([](std::uint64_t i) { return loadThenChain(i, chain); });
    const std::vector<Cycle> at = commitCycles(rig, 30000);
    ASSERT_GT(at.size(), 10u * (chain + 1));
    unsigned long_sleeps = 0;
    for (std::size_t g = 0; g + 2 * (chain + 1) <= at.size();
         g += chain + 1) {
        for (unsigned j = 1; j <= chain; ++j)
            EXPECT_EQ(at[g + j], at[g] + j) << "group " << g;
        // Load-to-load: the chain, then the next load's miss.
        if (at[g + chain + 1] - at[g + chain] > 64)
            ++long_sleeps;
    }
    EXPECT_GT(long_sleeps, 10u);
}

struct SystemImage
{
    std::string stats;
    std::vector<std::uint8_t> machine;
};

SystemImage
imageOf(CmpSystem &system)
{
    SystemImage out;
    std::ostringstream os;
    system.statsRoot().dump(os);
    out.stats = os.str();
    Serializer s;
    system.checkpoint(s);
    out.machine = s.bytes();
    return out;
}

TEST(OooCore, CheckpointRestoredMidFlightRebuildsTheScheduler)
{
    // A checkpoint taken with wake-ups pending in the wheel and the
    // heap restores into cores that rebuild both from the RUU; the
    // resumed run must match an uninterrupted one bit for bit.
    const std::vector<std::vector<WorkloadProfile>> mixes = {
        std::vector<WorkloadProfile>(4, computeBoundProfile()),
        {specProfile("mcf"), specProfile("art"), specProfile("swim"),
         specProfile("equake")}};
    constexpr Cycle before = 30011, after = 20000;
    for (const auto &mix : mixes) {
        for (const bool decoupled : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << mix[0].name << (decoupled ? " decoupled"
                                                      : " reference"));
            const SystemConfig config =
                SystemConfig::baseline(L3Scheme::Adaptive);
            CmpSystem whole(config, mix, 5);
            whole.setFastForward(decoupled);
            whole.run(before + after);

            CmpSystem first(config, mix, 5);
            first.setFastForward(decoupled);
            first.run(before);
            // Cut mid-flight: cores hold unissued work (a core may
            // have just drained behind a mispredicted branch).
            unsigned in_flight = 0;
            for (CoreId c = 0; c < 4; ++c)
                in_flight += first.coreAt(c).ruuOccupancy() > 0;
            EXPECT_GE(in_flight, 3u);
            Serializer s;
            first.checkpoint(s);

            CmpSystem resumed(config, mix, 5);
            resumed.setFastForward(decoupled);
            Deserializer d(s.bytes());
            resumed.restore(d);
            resumed.run(after);

            const SystemImage want = imageOf(whole);
            const SystemImage got = imageOf(resumed);
            EXPECT_EQ(got.stats, want.stats);
            EXPECT_EQ(got.machine, want.machine);
        }
    }
}

TEST(OooCore, DeterministicAcrossRuns)
{
    Rig a(aluAt), b(aluAt);
    a.run(5000);
    b.run(5000);
    EXPECT_EQ(a.core.committed(), b.core.committed());
}

} // namespace
} // namespace nuca
