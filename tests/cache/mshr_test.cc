/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "cache/mshr.hh"
#include "serialize/serializer.hh"

namespace nuca {
namespace {

TEST(Mshr, LookupMissesWhenEmpty)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    EXPECT_EQ(mshrs.lookup(0x1000, 0), 0u);
    EXPECT_EQ(mshrs.inFlight(0), 0u);
}

TEST(Mshr, ReserveCompleteLookupCycle)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    const Cycle start = mshrs.reserve(0x1000, 10);
    EXPECT_EQ(start, 10u);
    mshrs.complete(0x1000, 300);
    EXPECT_EQ(mshrs.inFlight(10), 1u);

    // A secondary miss merges and sees the primary's ready cycle.
    EXPECT_EQ(mshrs.lookup(0x1000, 50), 300u);
    EXPECT_EQ(mshrs.merges(), 1u);
}

TEST(Mshr, EntriesRetireWhenReady)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    mshrs.reserve(0x1000, 0);
    mshrs.complete(0x1000, 100);
    EXPECT_EQ(mshrs.inFlight(99), 1u);
    EXPECT_EQ(mshrs.inFlight(100), 0u);
    // After retirement the block is no longer merged into.
    EXPECT_EQ(mshrs.lookup(0x1000, 150), 0u);
}

TEST(Mshr, FullFileDelaysNewMiss)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 2);
    mshrs.reserve(0x1000, 0);
    mshrs.complete(0x1000, 200);
    mshrs.reserve(0x2000, 0);
    mshrs.complete(0x2000, 300);

    // Third miss at cycle 10 must wait for the earliest retirement.
    const Cycle start = mshrs.reserve(0x3000, 10);
    EXPECT_EQ(start, 200u);
    EXPECT_EQ(mshrs.structuralStalls(), 1u);
}

TEST(Mshr, FullFileNoDelayIfEntryAlreadyRetired)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 1);
    mshrs.reserve(0x1000, 0);
    mshrs.complete(0x1000, 50);
    // At cycle 60 the entry has retired: no stall.
    const Cycle start = mshrs.reserve(0x2000, 60);
    EXPECT_EQ(start, 60u);
    EXPECT_EQ(mshrs.structuralStalls(), 0u);
}

TEST(Mshr, DistinctBlocksDoNotMerge)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    mshrs.reserve(0x1000, 0);
    mshrs.complete(0x1000, 500);
    EXPECT_EQ(mshrs.lookup(0x2000, 10), 0u);
    EXPECT_EQ(mshrs.merges(), 0u);
}

TEST(Mshr, CapacityReported)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 16);
    EXPECT_EQ(mshrs.capacity(), 16u);
}

TEST(Mshr, OldestAgeTracksTheEarliestLiveEntry)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    EXPECT_EQ(mshrs.oldestAge(100), 0u);

    mshrs.reserve(0x1000, 100);
    mshrs.complete(0x1000, 400);
    mshrs.reserve(0x2000, 150);
    mshrs.complete(0x2000, 300);
    // Both entries are still in flight at 200; the oldest was
    // issued at 100.
    EXPECT_EQ(mshrs.oldestAge(200), 100u);
    // At 350 the 0x2000 entry has retired and 0x1000 (issued at
    // 100) is still the oldest.
    EXPECT_EQ(mshrs.oldestAge(350), 250u);
    // At 450 everything has retired.
    EXPECT_EQ(mshrs.oldestAge(450), 0u);
}

TEST(Mshr, CheckInvariantsPassesOnHealthyFile)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    mshrs.reserve(0x1000, 0);
    mshrs.checkInvariants(); // reserved, no ready cycle: fine
    mshrs.complete(0x1000, 100);
    mshrs.reserve(0x2000, 10);
    mshrs.complete(0x2000, 120);
    mshrs.checkInvariants();
}

TEST(MshrDeathTest, CheckInvariantsCatchesLeakOverflow)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 2);
    mshrs.reserve(0x1000, 0);
    mshrs.complete(0x1000, 1u << 20);
    mshrs.reserve(0x2000, 0);
    mshrs.complete(0x2000, 1u << 20);
    // Leaking into a full file pushes occupancy past capacity —
    // exactly what the periodic invariant pass must flag.
    mshrs.injectLeak(5);
    EXPECT_DEATH(mshrs.checkInvariants(), "exceeds the file's");
}

TEST(Mshr, InjectedLeakNeverRetires)
{
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    mshrs.injectLeak(10);
    // The leaked reservation survives arbitrary pruning horizons and
    // keeps aging — the signature the watchdog's age bound detects.
    EXPECT_EQ(mshrs.inFlight(1u << 30), 1u);
    EXPECT_EQ(mshrs.oldestAge(1000010), 1000000u);
}

TEST(Mshr, RestoreRejectsCountBeyondCapacity)
{
    // A hostile entry count must fail as a checkpoint error before
    // anything is sized from it.
    Serializer s;
    s.putTag(fourcc("MSHR"));
    s.putU64(std::uint64_t{1} << 40);
    stats::Group g("g");
    MshrFile mshrs(g, "m", 4);
    Deserializer d(s.bytes());
    EXPECT_THROW(mshrs.restore(d), CheckpointError);
}

} // namespace
} // namespace nuca
