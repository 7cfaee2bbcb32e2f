/** @file Tests for the crash-safe JSONL results sidecar. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "sim/json_writer.hh"
#include "sim/run_options.hh"
#include "sim/sweep_store.hh"

namespace nuca {
namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Replace @p path's contents with @p text. */
void
writeText(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

SweepRecord
okRecord(const std::string &label, double ipc0)
{
    SweepRecord record;
    record.label = label;
    record.result.ipc = {ipc0, ipc0 * 2};
    record.result.l3AccessesPerKilocycle = {7.5, 8.25};
    return record;
}

TEST(SweepStore, AppendLoadRoundTripsEveryField)
{
    const std::string path = tempPath("sweep_store_roundtrip.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord ok = okRecord("adaptive.mix0", 1.25);
        ok.key = "00c0ffee12345678";
        store.append(ok);
        SweepRecord failed;
        failed.label = "adaptive.mix1";
        failed.status = JobStatus::Stalled;
        failed.error = "no instruction retired in 5000 cycles";
        store.append(failed);
    }

    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);

    EXPECT_EQ(records[0].label, "adaptive.mix0");
    EXPECT_EQ(records[0].key, "00c0ffee12345678");
    EXPECT_EQ(records[0].status, JobStatus::Ok);
    EXPECT_TRUE(records[0].error.empty());
    EXPECT_EQ(records[0].result.ipc,
              (std::vector<double>{1.25, 2.5}));
    EXPECT_EQ(records[0].result.l3AccessesPerKilocycle,
              (std::vector<double>{7.5, 8.25}));

    EXPECT_EQ(records[1].label, "adaptive.mix1");
    EXPECT_TRUE(records[1].key.empty());
    EXPECT_EQ(records[1].status, JobStatus::Stalled);
    EXPECT_EQ(records[1].error,
              "no instruction retired in 5000 cycles");
    EXPECT_TRUE(records[1].result.ipc.empty());
}

TEST(SweepStore, CrashStatusesRoundTrip)
{
    const std::string path = tempPath("sweep_store_crash.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord crashed;
        crashed.label = "adaptive.mix0";
        crashed.status = JobStatus::Crashed;
        crashed.error = "isolated job killed by SIGSEGV";
        store.append(crashed);
        SweepRecord timed;
        timed.label = "adaptive.mix1";
        timed.status = JobStatus::TimedOut;
        store.append(timed);
        SweepRecord quarantined;
        quarantined.label = "adaptive.mix2";
        quarantined.status = JobStatus::Quarantined;
        store.append(quarantined);
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].status, JobStatus::Crashed);
    EXPECT_NE(records[0].error.find("SIGSEGV"), std::string::npos);
    EXPECT_EQ(records[1].status, JobStatus::TimedOut);
    EXPECT_EQ(records[2].status, JobStatus::Quarantined);
}

TEST(SweepStore, UnknownStatusLoadsAsFailed)
{
    // A sidecar written by a newer build must still load — and an
    // unrecognized status must never be mistaken for a reusable ok.
    EXPECT_EQ(jobStatusFromString("exploded"), JobStatus::Failed);
    EXPECT_EQ(jobStatusFromString("ok"), JobStatus::Ok);
    EXPECT_EQ(jobStatusFromString("crashed"), JobStatus::Crashed);
    EXPECT_EQ(jobStatusFromString("timed_out"),
              JobStatus::TimedOut);
    EXPECT_EQ(jobStatusFromString("quarantined"),
              JobStatus::Quarantined);
    EXPECT_EQ(jobStatusFromString("interrupted"),
              JobStatus::Interrupted);
}

TEST(SweepStore, ServiceStatusesRoundTrip)
{
    // A sweep wound down by SIGINT/SIGTERM persists its unattempted
    // jobs as interrupted; lines carrying the lifecycle states of the
    // retired sweep daemon load as failed. Neither may ever be reused
    // by a resume as an ok result.
    const std::string path = tempPath("sweep_store_service.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord interrupted;
        interrupted.label = "adaptive.mix0";
        interrupted.status = JobStatus::Interrupted;
        interrupted.error = "sweep interrupted by SIGTERM";
        store.append(interrupted);
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        for (const char *status :
             {"queued", "preempted", "cache_hit", "cancelled"})
            std::fprintf(f,
                         "{\"label\": \"a.%s\", \"status\": \"%s\", "
                         "\"ipc\": [1.0]}\n",
                         status, status);
        std::fclose(f);
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].status, JobStatus::Interrupted);
    EXPECT_EQ(records[0].error, "sweep interrupted by SIGTERM");
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_EQ(records[i].status, JobStatus::Failed)
            << records[i].label;
    for (const auto &record : records)
        EXPECT_NE(record.status, JobStatus::Ok);
}

TEST(SweepStore, MixResultCodecRoundTripsEveryBit)
{
    // The codec backs both the sidecar and the proc-pool pipe; a
    // double that fails to round-trip would silently break the
    // proc-isolated sweep's byte-identity guarantee.
    MixResult result;
    result.ipc = {1.0 / 3.0, 0.1, 1e-300, 12345.6789012345678,
                  2.0 / 7.0};
    result.l3AccessesPerKilocycle = {0.0, 1e300, 0.3333333333333333};
    const std::string wire = mixResultToJson(result).dump();
    const auto back =
        mixResultFromJson(json::Value::parse(wire));
    ASSERT_TRUE(back);
    EXPECT_EQ(back->ipc, result.ipc);
    EXPECT_EQ(back->l3AccessesPerKilocycle,
              result.l3AccessesPerKilocycle);
    // And a second pass through text is byte-stable.
    EXPECT_EQ(mixResultToJson(*back).dump(), wire);
}

TEST(SweepStore, SyncKnobIsReadPerStore)
{
    const std::string path = tempPath("sweep_store_sync.jsonl");
    std::remove(path.c_str());
    ASSERT_TRUE(RunOptions::parse({{"REPRO_SYNC", "1"}}).sync);
    ASSERT_FALSE(RunOptions::parse({}).sync);
    {
        SweepStore store(path, true);
        EXPECT_TRUE(store.synced());
        store.append(okRecord("sync.mix0", 1.0));
    }
    {
        SweepStore store(path);
        EXPECT_FALSE(store.synced());
        store.append(okRecord("sync.mix1", 2.0));
    }
    // Synced and unsynced appends write the same bytes; the knob
    // changes durability, never content.
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "sync.mix0");
    EXPECT_EQ(records[1].label, "sync.mix1");
}

TEST(SweepStore, ResumeStyleLoadSurvivesTornMidRecordWrite)
{
    // A record torn *mid-line* (killed between fwrite chunks, or a
    // partial flush) must not poison the records after it when a
    // later run appended past the tear.
    const std::string path = tempPath("sweep_store_midtorn.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        store.append(okRecord("a.mix0", 1.0));
    }
    {
        // The torn middle: half a record with no newline...
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"label\":\"a.mix1\",\"ipc\":[0.5,", f);
        std::fclose(f);
    }
    {
        // ...then the resumed run appends a complete record. The
        // torn bytes and the new record share one physical line.
        SweepStore store(path);
        store.append(okRecord("a.mix2", 3.0));
        store.append(okRecord("a.mix3", 4.0));
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    // The torn line (glued to a.mix2's record) is unparsable and
    // skipped; the first and last records survive.
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "a.mix0");
    EXPECT_EQ(records[1].label, "a.mix3");
}

TEST(SweepStore, LoadSkipsTornTrailingLine)
{
    const std::string path = tempPath("sweep_store_torn.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        store.append(okRecord("private.mix0", 0.5));
    }
    // Simulate a kill mid-append: a final line cut off mid-object.
    std::FILE *f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"o", f);
    std::fclose(f);

    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].label, "private.mix0");
}

TEST(SweepStore, LoadSkipsWrongTypedFields)
{
    // Well-formed JSON with a field of the wrong type is as
    // unusable as a torn line: skipped, never a panic, and never an
    // ok record with an empty payload.
    const std::string path = tempPath("sweep_store_types.jsonl");
    writeText(path,
              "{\"label\":5,\"status\":\"ok\"}\n"
              "{\"label\":\"a\",\"status\":\"ok\",\"ipc\":[1,\"x\"]}\n"
              "{\"label\":\"a\",\"status\":\"ok\",\"ipc\":\"x\"}\n"
              "{\"label\":\"a\",\"status\":[\"ok\"]}\n"
              "{\"label\":\"a\",\"status\":\"failed\",\"error\":{}}\n"
              "{\"label\":\"a\",\"key\":7,\"status\":\"ok\"}\n"
              "{\"label\":\"a\",\"status\":\"ok\",\"l3apk\":null}\n"
              "[\"label\",\"status\"]\n"
              "{\"label\":\"good\",\"status\":\"ok\",\"ipc\":[1.5]}\n");
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].label, "good");
    EXPECT_EQ(records[0].result.ipc, (std::vector<double>{1.5}));
}

TEST(SweepStore, MutatedSidecarNeverPanics)
{
    // Seeded mutation sweep over a valid sidecar: byte flips,
    // truncation, and per-field type swaps. Every load must return
    // (the process must not panic), yield no more records than the
    // file has lines, and a type swap must cost exactly its line.
    const std::string path = tempPath("sweep_store_mutate.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord ok = okRecord("adaptive.mix0", 1.25);
        ok.key = "0123456789abcdef";
        store.append(ok);
        SweepRecord failed;
        failed.label = "adaptive.mix1";
        failed.key = "fedcba9876543210";
        failed.status = JobStatus::Crashed;
        failed.error = "isolated job killed by SIGSEGV";
        store.append(failed);
        store.append(okRecord("private.mix0", 0.5));
    }
    const std::string valid = json::readFile(path);
    std::vector<std::string> lines;
    for (std::size_t pos = 0; pos < valid.size();) {
        const std::size_t end = valid.find('\n', pos);
        lines.push_back(valid.substr(pos, end - pos));
        pos = end + 1;
    }
    ASSERT_EQ(SweepStore::load(path).size(), lines.size());

    // One replacement value of each JSON type; a swap picks one whose
    // type differs from the field's.
    std::vector<json::Value> values;
    values.emplace_back();
    values.emplace_back(true);
    values.emplace_back(3.5);
    values.emplace_back("x");
    values.push_back(json::Value::array().append(1.0).append("x"));
    values.push_back(json::Value::object().set("ipc", 1.0));

    Rng rng(20260206);
    for (unsigned iter = 0; iter < 3000; ++iter) {
        std::string text = valid;
        std::size_t expected_max = lines.size();
        std::size_t expected_exact = ~std::size_t(0);
        switch (iter % 3) {
          case 0: { // flip 1..4 random bytes
            const unsigned flips = 1 + unsigned(rng.below(4));
            for (unsigned f = 0; f < flips; ++f) {
                text[rng.below(text.size())] ^=
                    static_cast<char>(1 + rng.below(255));
            }
            // A flipped newline can split one line into two.
            expected_max = lines.size() + flips;
            break;
          }
          case 1: // truncate anywhere
            text.resize(rng.below(text.size()));
            break;
          case 2: { // swap one field of one line to another type
            const std::size_t l = rng.below(lines.size());
            json::Value obj = json::Value::parse(lines[l]);
            const auto &members = obj.members();
            const std::string key =
                members[rng.below(members.size())].first;
            const json::Value *swap;
            do {
                swap = &values[rng.below(values.size())];
            } while (swap->type() == obj.at(key).type());
            obj.set(key, *swap);
            text.clear();
            for (std::size_t k = 0; k < lines.size(); ++k)
                text += (k == l ? obj.dump() : lines[k]) + "\n";
            expected_exact = lines.size() - 1;
            break;
          }
        }
        writeText(path, text);
        const auto records = SweepStore::load(path);
        EXPECT_LE(records.size(), expected_max) << "iteration " << iter;
        if (expected_exact != ~std::size_t(0)) {
            EXPECT_EQ(records.size(), expected_exact)
                << "iteration " << iter << ": " << text;
        }
    }
    std::remove(path.c_str());
}

TEST(SweepStore, LoadOfMissingFileIsEmpty)
{
    EXPECT_TRUE(
        SweepStore::load(tempPath("sweep_store_absent.jsonl"))
            .empty());
}

TEST(SweepStore, AppendIsOpenedForAppendAcrossRuns)
{
    const std::string path = tempPath("sweep_store_append.jsonl");
    std::remove(path.c_str());
    {
        SweepStore first(path);
        first.append(okRecord("a.mix0", 1.0));
    }
    {
        // A resumed run opens the same sidecar and must not clobber
        // the records of the killed run.
        SweepStore second(path);
        second.append(okRecord("a.mix1", 2.0));
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "a.mix0");
    EXPECT_EQ(records[1].label, "a.mix1");
}

TEST(SweepStore, ConcurrentAppendsAllSurviveIntact)
{
    const std::string path = tempPath("sweep_store_threads.jsonl");
    std::remove(path.c_str());
    constexpr unsigned perThread = 25;
    {
        SweepStore store(path);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < 4; ++t) {
            threads.emplace_back([&store, t]() {
                for (unsigned i = 0; i < perThread; ++i) {
                    store.append(okRecord(
                        "t" + std::to_string(t) + ".mix" +
                            std::to_string(i),
                        1.0));
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    // Every record parses (no interleaved lines) and none is lost.
    EXPECT_EQ(records.size(), 4u * perThread);
    for (const auto &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok);
}

TEST(WriteFileAtomic, ReplacesTargetAndLeavesNoTemp)
{
    const std::string path = tempPath("atomic_write.json");
    json::Value doc = json::Value::object();
    doc.set("v", 1);
    json::writeFileAtomic(path, doc);
    doc.set("v", 2);
    json::writeFileAtomic(path, doc);

    const auto parsed = json::Value::parse(json::readFile(path));
    EXPECT_EQ(parsed.at("v").asNumber(), 2.0);
    // The temporary staging file was renamed away.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    std::remove(path.c_str());
}

} // namespace
} // namespace nuca
