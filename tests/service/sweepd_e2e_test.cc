/**
 * @file
 * End-to-end proof of the service contract (the PR's acceptance
 * criteria):
 *
 *  (a) a daemon-run sweep produces results byte-identical to the
 *      one-shot CLI path (direct runMix);
 *  (b) a job preempted mid-run and resumed finishes with a result
 *      identical to an uninterrupted run;
 *  (c) a repeated spec is served from the result cache without
 *      spawning a worker.
 *
 * Most tests drive SweepDaemon::handle() directly (no socket); the
 * socket tests at the bottom run the full wire path through
 * SweepClient against an in-process daemon on a /tmp socket.
 */

#include "service/sweepd.hh"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "service/client.hh"
#include "sim/proc_pool.hh"
#include "sim/sweep_store.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

JobSpec
quickMix(const std::string &scheme = "adaptive")
{
    JobSpec spec;
    spec.scheme = scheme;
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = 20070201;
    spec.warmupCycles = 20000;
    spec.measureCycles = 40000;
    return spec;
}

/** The one-shot CLI path: runMix with no checkpointing at all. */
MixResult
directRun(const JobSpec &spec)
{
    RunPolicy policy; // no ckpt dir, no resume, no preemption
    return runMix(spec.config(), {spec.apps, spec.seed},
                  {spec.warmupCycles, spec.measureCycles}, "",
                  policy);
}

class SweepdE2eTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Named after the test: ctest runs each test in its own
        // process, concurrently, so only the name keeps them apart.
        state_ = ::testing::TempDir() + "nuca_sweepd_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
        std::filesystem::remove_all(state_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(state_);
    }

    DaemonOptions
    baseOptions()
    {
        DaemonOptions opts;
        opts.socketPath.clear(); // drive handle() directly
        opts.stateDir = state_;
        opts.workers = 1;
        opts.quantumMs = 0; // no automatic preemption: tests drive
                            // the preempt op deterministically
        opts.isolate = false;
        return opts;
    }

    static json::Value
    submit(SweepDaemon &daemon, const JobSpec &spec)
    {
        json::Value req = json::Value::object();
        req.set("op", "submit");
        req.set("spec", spec.toJson());
        return daemon.handle(req);
    }

    static json::Value
    idOp(SweepDaemon &daemon, const char *op, std::uint64_t id)
    {
        json::Value req = json::Value::object();
        req.set("op", op);
        req.set("id", id);
        return daemon.handle(req);
    }

    /** Poll the result op until the job reaches a terminal state. */
    static json::Value
    await(SweepDaemon &daemon, std::uint64_t id)
    {
        for (;;) {
            json::Value resp = idOp(daemon, "result", id);
            const std::string state =
                resp.at("state").asString();
            if (state == "ok" || state == "cache_hit" ||
                state == "failed" || state == "cancelled")
                return resp;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }

    std::string state_;
};

TEST_F(SweepdE2eTest, ProtocolRejectsGarbageWithoutDying)
{
    SweepDaemon daemon(baseOptions());

    EXPECT_FALSE(daemon.handle(json::Value(42.0)).at("ok").asBool());
    json::Value req = json::Value::object();
    req.set("op", "frobnicate");
    EXPECT_FALSE(daemon.handle(req).at("ok").asBool());

    req = json::Value::object();
    req.set("op", "submit"); // no spec
    EXPECT_FALSE(daemon.handle(req).at("ok").asBool());

    req.set("spec", json::Value::object()); // invalid spec
    const json::Value resp = daemon.handle(req);
    EXPECT_FALSE(resp.at("ok").asBool());
    EXPECT_NE(resp.at("error").asString().find("apps"),
              std::string::npos);

    EXPECT_FALSE(
        idOp(daemon, "result", 999).at("ok").asBool());
}

// Criterion (a): daemon result == one-shot CLI result, byte for
// byte. Criterion (c): the resubmitted spec is a cache hit that
// spawns no worker and returns the same bytes.
TEST_F(SweepdE2eTest, DaemonMatchesCliAndRepeatHitsCache)
{
    SweepDaemon daemon(baseOptions());
    daemon.start();

    const JobSpec spec = quickMix();
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    EXPECT_EQ(sub.at("state").asString(), "queued");
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());

    const json::Value first = await(daemon, id);
    ASSERT_TRUE(first.at("ok").asBool());
    EXPECT_EQ(first.at("state").asString(), "ok");
    EXPECT_EQ(daemon.executedJobs(), 1u);

    const std::string daemon_bytes = first.at("result").dump();
    const std::string cli_bytes =
        mixResultToJson(directRun(spec)).dump();
    EXPECT_EQ(daemon_bytes, cli_bytes); // (a)

    // Resubmit the identical spec: settled at submit time, no new
    // execution, identical bytes.
    const json::Value again = submit(daemon, spec);
    ASSERT_TRUE(again.at("ok").asBool());
    EXPECT_EQ(again.at("state").asString(), "cache_hit"); // (c)
    const auto id2 =
        static_cast<std::uint64_t>(again.at("id").asNumber());
    const json::Value cached = await(daemon, id2);
    EXPECT_EQ(cached.at("state").asString(), "cache_hit");
    EXPECT_EQ(cached.at("result").dump(), daemon_bytes);
    EXPECT_EQ(daemon.executedJobs(), 1u); // no worker ran

    // A different scheme is a different key: queued, not cache_hit.
    const json::Value other =
        submit(daemon, quickMix("private"));
    ASSERT_TRUE(other.at("ok").asBool());
    EXPECT_EQ(other.at("state").asString(), "queued");
    await(daemon,
          static_cast<std::uint64_t>(other.at("id").asNumber()));

    daemon.requestStop();
    daemon.join();
}

// Criterion (b): preempted at a snapshot, requeued, resumed — and
// the final result matches an uninterrupted run exactly.
TEST_F(SweepdE2eTest, PreemptedJobResumesBitIdentical)
{
    DaemonOptions opts = baseOptions();
    opts.preemptPeriod = 10000; // many snapshot boundaries
    SweepDaemon daemon(opts);
    daemon.start();

    JobSpec spec = quickMix();
    spec.measureCycles = 400000; // 40 boundaries
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());

    // Ask for preemption as soon as the worker picks the job up;
    // the run then yields at its next 10k-cycle boundary.
    for (;;) {
        const json::Value resp = idOp(daemon, "preempt", id);
        if (resp.at("ok").asBool())
            break;
        const json::Value poll = idOp(daemon, "result", id);
        const std::string state = poll.at("state").asString();
        ASSERT_NE(state, "failed");
        if (state == "ok")
            break; // finished before we could preempt (unlikely)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1));
    }

    const json::Value done = await(daemon, id);
    ASSERT_TRUE(done.at("ok").asBool());
    EXPECT_EQ(done.at("state").asString(), "ok");
    EXPECT_GE(done.at("preempts").asNumber(), 1.0);

    EXPECT_EQ(done.at("result").dump(),
              mixResultToJson(directRun(spec)).dump()); // (b)

    daemon.requestStop();
    daemon.join();

    // The journal recorded the preemption lifecycle with timing
    // telemetry (queued wait + preempt count) for trace_report.
    const auto records =
        SweepStore::load(state_ + "/jobs.jsonl");
    ASSERT_FALSE(records.empty());
    bool saw_preempted = false, saw_ok = false;
    for (const auto &record : records) {
        EXPECT_TRUE(record.timed);
        if (record.status == JobStatus::Preempted)
            saw_preempted = true;
        if (record.status == JobStatus::Ok) {
            saw_ok = true;
            EXPECT_GE(record.preempts, 1u);
        }
    }
    EXPECT_TRUE(saw_preempted);
    EXPECT_TRUE(saw_ok);
}

// The same preemption contract through the proc-pool sandbox: the
// preempt request becomes SIGTERM, the child snapshots and ships a
// "preempted" settlement, and the resumed child is bit-identical.
TEST_F(SweepdE2eTest, SandboxedPreemptionAlsoResumesBitIdentical)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";

    DaemonOptions opts = baseOptions();
    opts.isolate = true;
    opts.preemptPeriod = 10000;
    SweepDaemon daemon(opts);
    daemon.start();

    JobSpec spec = quickMix("shared");
    spec.measureCycles = 400000;
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());

    for (;;) {
        const json::Value resp = idOp(daemon, "preempt", id);
        if (resp.at("ok").asBool())
            break;
        const json::Value poll = idOp(daemon, "result", id);
        const std::string state = poll.at("state").asString();
        ASSERT_NE(state, "failed");
        if (state == "ok")
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1));
    }

    const json::Value done = await(daemon, id);
    ASSERT_TRUE(done.at("ok").asBool());
    EXPECT_EQ(done.at("result").dump(),
              mixResultToJson(directRun(spec)).dump());

    daemon.requestStop();
    daemon.join();
}

TEST_F(SweepdE2eTest, MissCurveJobMatchesDirectReplay)
{
    SweepDaemon daemon(baseOptions());
    daemon.start();

    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"mcf"};
    spec.insts = 200000;
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    const json::Value done = await(
        daemon,
        static_cast<std::uint64_t>(sub.at("id").asNumber()));
    ASSERT_TRUE(done.at("ok").asBool());

    const MixResult result =
        mixResultFromJson(done.at("result"));
    ASSERT_EQ(result.curve.size(), 16u);
    // Monotone non-increasing: more ways never add misses.
    for (std::size_t w = 1; w < result.curve.size(); ++w)
        EXPECT_LE(result.curve[w], result.curve[w - 1]);

    // Repeat is a cache hit with the same curve.
    const json::Value again = submit(daemon, spec);
    EXPECT_EQ(again.at("state").asString(), "cache_hit");

    daemon.requestStop();
    daemon.join();
}

TEST_F(SweepdE2eTest, CancelQueuedJobSettlesImmediately)
{
    // No started workers: submitted jobs stay queued forever, so
    // cancel must settle them synchronously.
    SweepDaemon daemon(baseOptions());
    const json::Value sub = submit(daemon, quickMix());
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());
    const json::Value resp = idOp(daemon, "cancel", id);
    ASSERT_TRUE(resp.at("ok").asBool());
    EXPECT_EQ(resp.at("state").asString(), "cancelled");
    EXPECT_FALSE(idOp(daemon, "result", id).at("ok").asBool());
    // Cancelling again reports the terminal state as an error.
    EXPECT_FALSE(idOp(daemon, "cancel", id).at("ok").asBool());
}

TEST_F(SweepdE2eTest, FairShareSpreadsWorkersAcrossTenants)
{
    // One worker, automatic preemption on: tenant "hog"'s long job
    // must yield to tenant "newcomer"'s short one mid-run.
    DaemonOptions opts = baseOptions();
    opts.quantumMs = 50;
    opts.preemptPeriod = 10000;
    SweepDaemon daemon(opts);
    daemon.start();

    JobSpec hog = quickMix();
    hog.tenant = "hog";
    hog.measureCycles = 2000000;
    const auto hog_id = static_cast<std::uint64_t>(
        submit(daemon, hog).at("id").asNumber());

    // Give the hog a head start so it is running when the newcomer
    // arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    JobSpec quick = quickMix("private");
    quick.tenant = "newcomer";
    const auto quick_id = static_cast<std::uint64_t>(
        submit(daemon, quick).at("id").asNumber());

    // The newcomer finishes long before an unpreempted hog could.
    const json::Value quick_done = await(daemon, quick_id);
    EXPECT_EQ(quick_done.at("state").asString(), "ok");

    const json::Value hog_done = await(daemon, hog_id);
    EXPECT_EQ(hog_done.at("state").asString(), "ok");
    EXPECT_GE(hog_done.at("preempts").asNumber(), 1.0);

    daemon.requestStop();
    daemon.join();
}

TEST_F(SweepdE2eTest, SocketRoundTripThroughSweepClient)
{
    DaemonOptions opts = baseOptions();
    opts.socketPath = state_ + "/sock";
    if (opts.socketPath.size() >= 100)
        GTEST_SKIP() << "tmp path too long for sun_path";
    SweepDaemon daemon(opts);
    daemon.start();

    const SweepClient client(opts.socketPath);
    ASSERT_TRUE(client.ping(5));

    const JobSpec spec = quickMix();
    const json::Value sub = client.submit(spec);
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());
    const json::Value done = client.waitResult(id, 60000);
    EXPECT_EQ(done.at("state").asString(), "ok");
    EXPECT_EQ(done.at("result").dump(),
              mixResultToJson(directRun(spec)).dump());

    // Same wire, warm cache.
    const json::Value again = client.submit(spec);
    EXPECT_EQ(again.at("state").asString(), "cache_hit");

    const json::Value stats = client.stats();
    EXPECT_TRUE(stats.at("ok").asBool());
    EXPECT_EQ(stats.at("executed").asNumber(), 1.0);
    EXPECT_GE(stats.at("cache_entries").asNumber(), 1.0);

    EXPECT_TRUE(client.shutdown().at("ok").asBool());
    daemon.join();
}

} // namespace
