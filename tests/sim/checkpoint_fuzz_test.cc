/**
 * @file
 * Hostile-input coverage for the NCKP checkpoint container: a seeded,
 * deterministic sweep of byte flips, truncations and inflated length
 * fields over a real warm-up artifact. Every mutated file must either
 * be refused with a CheckpointError or read back exactly; nothing
 * else (bad_alloc, a crash, a silently different payload) may escape.
 * runMix must treat such an artifact as a cache miss and re-simulate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/random.hh"
#include "serialize/checkpoint_io.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

/** Header layout: magic u32 | version u32 | hash u64 | length u64 |
 *  crc u32, little-endian. */
constexpr std::size_t kHeaderSize = 28;
constexpr std::size_t kLengthOffset = 16;

using Bytes = std::vector<std::uint8_t>;

Bytes
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

void
setLength(Bytes &bytes, std::uint64_t length)
{
    for (std::size_t i = 0; i < 8; ++i)
        bytes[kLengthOffset + i] =
            static_cast<std::uint8_t>(length >> (8 * i));
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "ckpt_fuzz_" + name + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name();
}

/** A scaled-down machine: a real container, a small one to rewrite
 *  hundreds of times. */
SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::baseline(L3Scheme::Private);
    cfg.coreMem.l1i = CacheLevelParams{8ull << 10, 2, 2, 16};
    cfg.coreMem.l1d = CacheLevelParams{8ull << 10, 2, 3, 16};
    cfg.coreMem.l2i = CacheLevelParams{16ull << 10, 4, 9, 16};
    cfg.coreMem.l2d = CacheLevelParams{16ull << 10, 4, 9, 16};
    cfg.l3SizePerCoreBytes = 128ull << 10;
    return cfg;
}

class CheckpointContainerFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tempPath("case.ckpt");
        const std::vector<WorkloadProfile> apps = {
            specProfile("mcf"), specProfile("gzip"),
            specProfile("ammp"), specProfile("art")};
        CmpSystem system(config_, apps, 7);
        system.run(5000);
        hash_ = configHash(config_);
        saveCheckpoint(system, path_, hash_);
        original_ = readBytes(path_);
        ASSERT_GT(original_.size(), kHeaderSize);
        payload_ = readCheckpointFile(path_, hash_);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Write @p bytes and require a CheckpointError or an exact
     *  round trip of the original payload. */
    void
    expectRefusedOrExact(const Bytes &bytes, const std::string &what)
    {
        writeBytes(path_, bytes);
        try {
            const Bytes back = readCheckpointFile(path_, hash_);
            EXPECT_EQ(back, payload_) << what << ": read a payload "
                                         "that is not the original";
        } catch (const CheckpointError &) {
            // Refused: the caller falls back to simulation.
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": escaped as " << e.what();
        }
    }

    SystemConfig config_ = smallConfig();
    std::string path_;
    std::uint64_t hash_ = 0;
    Bytes original_;
    Bytes payload_;
};

TEST_F(CheckpointContainerFuzz, ByteFlipsAreRefusedOrHarmless)
{
    Rng rng(20070201);
    for (int i = 0; i < 400; ++i) {
        Bytes bytes = original_;
        // Half the flips land in the 28-byte header, the rest
        // anywhere in the payload.
        const std::size_t at =
            i % 2 == 0 ? rng.below(kHeaderSize)
                       : kHeaderSize +
                             rng.below(bytes.size() - kHeaderSize);
        const auto mask =
            static_cast<std::uint8_t>(1 + rng.below(255));
        bytes[at] ^= mask;
        expectRefusedOrExact(bytes, "flip at " + std::to_string(at));
    }
}

TEST_F(CheckpointContainerFuzz, TruncationAtEveryHeaderOffsetIsRefused)
{
    for (std::size_t size = 0; size <= kHeaderSize; ++size) {
        writeBytes(path_, Bytes(original_.begin(),
                                original_.begin() +
                                    static_cast<long>(size)));
        EXPECT_THROW(readCheckpointFile(path_, hash_), CheckpointError)
            << "truncated to " << size << " bytes";
    }
    // A payload cut short by one byte, too.
    writeBytes(path_, Bytes(original_.begin(), original_.end() - 1));
    EXPECT_THROW(readCheckpointFile(path_, hash_), CheckpointError);
}

TEST_F(CheckpointContainerFuzz, InflatedLengthIsRefusedBeforeAllocating)
{
    // The CRC does not cover the header: a length the file cannot
    // back must be refused before a buffer of that size is made.
    for (const std::uint64_t length :
         {std::uint64_t(1) << 63, std::uint64_t(1) << 62,
          std::uint64_t(1) << 40,
          static_cast<std::uint64_t>(original_.size()) + 1}) {
        Bytes bytes = original_;
        setLength(bytes, length);
        writeBytes(path_, bytes);
        EXPECT_THROW(readCheckpointFile(path_, hash_), CheckpointError)
            << "length " << length;
    }
}

TEST(CheckpointInflatedLength, RunMixReSimulatesFromScratch)
{
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);
    const ExperimentSpec spec{{"art", "mcf", "gzip", "ammp"}, 1234};
    const SimWindow window{20000, 30000};
    RunPolicy cached;
    cached.ckpt.dir = tempPath("dir");
    std::filesystem::remove_all(cached.ckpt.dir);

    const MixResult clean = runMix(config, spec, window);
    runMix(config, spec, window, std::string(), cached);
    const std::string warm = warmupPath(
        cached.ckpt, warmupKey(config, spec.apps, spec.seed,
                               window.warmupCycles));
    Bytes bytes = readBytes(warm);
    ASSERT_GT(bytes.size(), kHeaderSize);
    setLength(bytes, std::uint64_t(1) << 62);
    writeBytes(warm, bytes);

    const MixResult fallback =
        runMix(config, spec, window, std::string(), cached);
    EXPECT_EQ(fallback.ipc, clean.ipc);
    EXPECT_EQ(fallback.l3AccessesPerKilocycle,
              clean.l3AccessesPerKilocycle);
    std::filesystem::remove_all(cached.ckpt.dir);
}

} // namespace
} // namespace nuca
