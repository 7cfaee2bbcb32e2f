/**
 * @file
 * Golden bit-identity pins. The differential tests compare the two
 * run loops of the *same* build against each other, so a change that
 * alters the synthetic instruction stream, the core's timing or any
 * statistic in both loops alike passes them. These tests pin FNV-1a
 * digests of
 *  - the first 2^20 instructions (every SynthInst field) of each
 *    built-in profile plus the compute and pointer-chase profiles,
 *  - the stats dump and the checkpoint image of a 200k-cycle warm-up
 *    plus 200k-cycle measured mcf/art/swim/equake run for every L3
 *    scheme, under both run loops,
 * to values recorded before the hot-path rewrites they guard. A
 * performance change must leave every digest unchanged; a change
 * that is meant to alter simulated behaviour updates the pins and
 * says why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

namespace nuca {
namespace {

/** 64-bit FNV-1a over a byte stream, fed field by field. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void
    u64(std::uint64_t v)
    {
        // Little-endian byte order, independent of the host.
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(b, sizeof(b));
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
streamDigest(const WorkloadProfile &profile)
{
    SynthWorkload w(profile, 1, 2024);
    Fnv1a h;
    for (unsigned i = 0; i < (1u << 20); ++i) {
        const SynthInst inst = w.next();
        h.u64(static_cast<std::uint64_t>(inst.op));
        h.u64(inst.pc);
        h.u64(inst.effAddr);
        h.u64(inst.depDist[0]);
        h.u64(inst.depDist[1]);
        h.u64(inst.taken);
        h.u64(inst.target);
    }
    return h.value();
}

/** Instruction-stream digests, by profile name. */
const std::map<std::string, std::uint64_t> kStreamPins = {
    {"ammp", 0x0a15da179f257d88ull},
    {"applu", 0xc012ae9168ebf5d9ull},
    {"apsi", 0xf8ca54e03c79104full},
    {"art", 0x58e41be943ee412bull},
    {"bzip2", 0x82ae5e12b24ca364ull},
    {"compute", 0xc1575832b666f303ull},
    {"crafty", 0x0e022d2e7f92253dull},
    {"eon", 0x88379bb9aa2f8dabull},
    {"equake", 0x9da45e5b182778c7ull},
    {"facerec", 0x34d8fe9887c94be6ull},
    {"fma3d", 0x7cb4c26bc3b423b8ull},
    {"galgel", 0x24a26573065d2bdcull},
    {"gap", 0x788bbaf37e85e74bull},
    {"gcc", 0xb15cd8bede1c650full},
    {"gzip", 0x2b61a37a94af14d9ull},
    {"idle", 0xaa785e22663961e1ull},
    {"lucas", 0xe3ad811be004cd13ull},
    {"mcf", 0x61d046168ac68772ull},
    {"mesa", 0xc280bec7b92acacaull},
    {"mgrid", 0xe05d25ce563597a5ull},
    {"parser", 0x218da64f3f7ae85cull},
    {"pchase", 0xdbc9fb202287e7d1ull},
    {"perlbmk", 0x2b1a99b9edaf5ecbull},
    {"swim", 0x5862ac577844ed17ull},
    {"twolf", 0x66650ff868ee352full},
    {"vpr", 0xb340e0640cb239f2ull},
    {"wupwise", 0xca3f0f38e1a2952cull},
};

TEST(GoldenDigest, InstructionStreamsOfEveryProfile)
{
    std::vector<WorkloadProfile> profiles = specProfiles();
    profiles.push_back(idleProfile());
    profiles.push_back(computeBoundProfile());
    profiles.push_back(pointerChaseProfile());
    ASSERT_EQ(profiles.size(), kStreamPins.size());
    for (const auto &p : profiles) {
        const auto pin = kStreamPins.find(p.name);
        ASSERT_NE(pin, kStreamPins.end()) << p.name;
        EXPECT_EQ(hex(streamDigest(p)), hex(pin->second))
            << "instruction stream of " << p.name;
    }
}

struct RunPin
{
    L3Scheme scheme;
    bool decoupled;
    std::uint64_t stats;
    std::uint64_t machine;
};

/** Stats-dump and checkpoint digests of the memory mix. */
const std::vector<RunPin> kRunPins = {
    {L3Scheme::Private, false, 0x3228a05517c6b7d0ull,
     0x4255d4d2fdf96827ull},
    {L3Scheme::Private, true, 0x3228a05517c6b7d0ull,
     0x4255d4d2fdf96827ull},
    {L3Scheme::Shared, false, 0xfcf5bb5fb929f953ull,
     0xf7058aa9406449a3ull},
    {L3Scheme::Shared, true, 0xfcf5bb5fb929f953ull,
     0xf7058aa9406449a3ull},
    {L3Scheme::Adaptive, false, 0x8a9dab4de5cd574full,
     0x74f7fd8372088707ull},
    {L3Scheme::Adaptive, true, 0x8a9dab4de5cd574full,
     0x74f7fd8372088707ull},
    {L3Scheme::RandomReplacement, false, 0x54c1ef731695ced9ull,
     0x4ab6f59a5e8ad461ull},
    {L3Scheme::RandomReplacement, true, 0x54c1ef731695ced9ull,
     0x4ab6f59a5e8ad461ull},
};

TEST(GoldenDigest, MemoryMixStatsAndCheckpointForEverySchemeAndLoop)
{
    const std::vector<WorkloadProfile> mix = {
        specProfile("mcf"), specProfile("art"), specProfile("swim"),
        specProfile("equake")};
    for (const auto &pin : kRunPins) {
        CmpSystem system(SystemConfig::baseline(pin.scheme), mix, 77);
        system.setFastForward(pin.decoupled);
        system.run(200000);
        system.resetStats();
        system.run(200000);

        std::ostringstream os;
        system.statsRoot().dump(os);
        const std::string stats = os.str();
        Fnv1a hs;
        hs.bytes(stats.data(), stats.size());
        Serializer s;
        system.checkpoint(s);
        Fnv1a hm;
        hm.bytes(s.bytes().data(), s.bytes().size());

        const std::string what = to_string(pin.scheme) +
                                 (pin.decoupled ? "/decoupled"
                                                : "/reference");
        EXPECT_EQ(hex(hs.value()), hex(pin.stats))
            << "stats dump of " << what;
        EXPECT_EQ(hex(hm.value()), hex(pin.machine))
            << "checkpoint image of " << what;
    }
}

} // namespace
} // namespace nuca
