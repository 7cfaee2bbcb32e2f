#include "sim/run_options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "sim/trace_event.hh"

extern char **environ;

namespace nuca {

namespace {

constexpr std::uint64_t kMaxU32 = std::numeric_limits<unsigned>::max();

/** Reads knobs from a REPRO_* map and remembers every name asked
 *  for, so a parse of the empty map lists the knobs there are. */
struct Knobs
{
    const EnvMap &env;
    std::set<std::string> read;

    /** Raw value of @p name; empty when unset. */
    std::string
    str(const std::string &name)
    {
        read.insert(name);
        const auto it = env.find(name);
        return it == env.end() ? std::string() : it->second;
    }

    /** Unsigned value of @p name, at most @p max; @p def when unset
     *  or empty. */
    std::uint64_t
    num(const std::string &name, std::uint64_t def,
        std::uint64_t max = ~std::uint64_t(0))
    {
        const std::string value = str(name);
        if (value.empty())
            return def;
        // strtoull silently wraps negative input ("-1" parses to
        // 2^64-1, which once sent a sweep off to run 18 quintillion
        // mixes) and saturates on overflow; reject both explicitly.
        const char *digits = value.c_str();
        while (std::isspace(static_cast<unsigned char>(*digits)))
            ++digits;
        fatal_if(*digits == '-', "environment variable ", name,
                 " must be non-negative: '", value, "'");
        errno = 0;
        char *end = nullptr;
        const std::uint64_t parsed = std::strtoull(digits, &end, 10);
        fatal_if(end == digits || *end != '\0', "environment variable ",
                 name, " is not a number: '", value, "'");
        fatal_if(errno == ERANGE, "environment variable ", name,
                 " overflows 64 bits: '", value, "'");
        // A narrower field would silently wrap (2^32 -> 0).
        fatal_if(parsed > max, "environment variable ", name,
                 " overflows 32 bits: '", value, "'");
        return parsed;
    }

    unsigned
    u32(const std::string &name, unsigned def)
    {
        return static_cast<unsigned>(num(name, def, kMaxU32));
    }
};

/** Parse the decimal suffix of "<kind>:<number>" specs. */
std::uint64_t
parseArg(const char *what, const std::string &spec, std::size_t colon)
{
    const std::string digits = spec.substr(colon + 1);
    fatal_if(digits.empty(), what, " '", spec,
             "' is missing its numeric argument");
    std::uint64_t value = 0;
    for (const char c : digits) {
        fatal_if(c < '0' || c > '9', what, " '", spec,
                 "' has a non-numeric argument");
        fatal_if(value > (~0ull - 9) / 10, what, " '", spec,
                 "' argument overflows 64 bits");
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
}

/** REPRO_FAULT=<kind>[:arg]; unknown kinds are fatal. */
FaultSpec
parseFault(const std::string &spec)
{
    FaultSpec fault;
    if (spec.empty())
        return fault;
    const std::size_t colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    // The kinds after None, matched by their printable names.
    for (int k = 1; k <= static_cast<int>(FaultKind::SigtermJob); ++k) {
        if (kind == to_string(static_cast<FaultKind>(k)))
            fault.kind = static_cast<FaultKind>(k);
    }
    fatal_if(!fault.enabled(),
             "REPRO_FAULT kind must be lru_corrupt, mshr_leak, "
             "channel_stall, throw_job, segv, oom, hang, or "
             "sigterm, got '", spec, "'");
    fatal_if(fault.isJobFault() && colon == std::string::npos,
             "REPRO_FAULT=", kind, " needs a job index (", kind,
             ":K)");
    if (colon != std::string::npos)
        fault.arg = parseArg("REPRO_FAULT", spec, colon);
    return fault;
}

/** Read every knob; unconditionally, so knobNames() sees them all. */
RunOptions
parseWith(Knobs &k)
{
    RunOptions opts;
    RunPolicy &run = opts.run;
    run.ckpt.dir = k.str("REPRO_CKPT_DIR");
    run.ckpt.period = k.num("REPRO_CKPT_PERIOD", 0);
    run.ckpt.maxMb = k.num("REPRO_CKPT_MAX_MB", 0);
    run.resume = k.num("REPRO_RESUME", 0) != 0;
    run.fastForward = k.num("REPRO_FASTFWD", 1) != 0;

    TelemetryConfig &tel = run.telemetry;
    tel.tracePath = k.str("REPRO_TRACE");
    tel.samplePeriod = k.num("REPRO_TRACE_PERIOD", tel.samplePeriod);
    fatal_if(tel.samplePeriod == 0,
             "REPRO_TRACE_PERIOD must be positive");
    tel.heatmap = k.num("REPRO_HEATMAP", 0) != 0;

    RobustnessConfig &rob = run.robustness;
    rob.checkEnabled = k.num("REPRO_CHECK", 0) != 0;
    rob.checkPeriod = k.num("REPRO_CHECK_PERIOD", rob.checkPeriod);
    fatal_if(rob.checkEnabled && rob.checkPeriod == 0,
             "REPRO_CHECK_PERIOD must be positive");
    rob.watchdogEnabled = k.num("REPRO_WATCHDOG", 1) != 0;
    rob.watchdogWindow =
        k.num("REPRO_WATCHDOG_WINDOW", rob.watchdogWindow);
    fatal_if(rob.watchdogEnabled && rob.watchdogWindow == 0,
             "REPRO_WATCHDOG_WINDOW must be positive");
    // An MSHR entry outstanding for a whole zero-retirement window
    // is as wedged as the window itself.
    rob.mshrAgeBound = rob.watchdogWindow;
    rob.maxCycles = k.num("REPRO_MAX_CYCLES", 0);
    rob.fault = parseFault(k.str("REPRO_FAULT"));

    SweepPolicy &sweep = opts.sweep;
    const std::string fail = k.str("REPRO_FAIL");
    if (fail == "skip") {
        sweep.onFail = FailPolicy::Skip;
    } else if (fail.rfind("retry:", 0) == 0) {
        sweep.onFail = FailPolicy::Retry;
        const std::uint64_t retries =
            parseArg("REPRO_FAIL", fail, fail.find(':'));
        fatal_if(retries == 0,
                 "REPRO_FAIL=retry:N needs N >= 1, got '", fail, "'");
        fatal_if(retries > kMaxU32, "REPRO_FAIL '", fail,
                 "' argument overflows 32 bits");
        sweep.retries = static_cast<unsigned>(retries);
    } else if (!fail.empty() && fail != "abort") {
        fatal("REPRO_FAIL must be abort, skip, or retry:N, got '",
              fail, "'");
    }
    sweep.backoffMs = k.u32("REPRO_RETRY_BACKOFF_MS", sweep.backoffMs);
    sweep.maxCrashes = k.u32("REPRO_QUARANTINE", sweep.maxCrashes);

    ProcIsolation &iso = opts.isolate;
    const std::string mode = k.str("REPRO_ISOLATE");
    fatal_if(!mode.empty() && mode != "off" && mode != "proc",
             "REPRO_ISOLATE must be proc or off, got '", mode, "'");
    iso.enabled = mode == "proc";
    if (iso.enabled && !procIsolationSupported()) {
        warn("REPRO_ISOLATE=proc: fork is unavailable on this "
             "platform; jobs will run in-process without limits");
        iso.enabled = false;
    }
    iso.memMb = k.num("REPRO_JOB_MEM_MB", iso.memMb);
    iso.cpuS = k.num("REPRO_JOB_CPU_S", iso.cpuS);
    iso.timeoutS = k.num("REPRO_JOB_TIMEOUT_S", iso.timeoutS);
    iso.graceMs = k.num("REPRO_JOB_GRACE_MS", iso.graceMs);

    opts.jobs = k.u32("REPRO_JOBS", 0);
    opts.jsonPath = k.str("REPRO_JSON");
    opts.sync = k.num("REPRO_SYNC", 0) != 0;
    if (!k.str("REPRO_WARMUP_CYCLES").empty())
        opts.warmupCycles = k.num("REPRO_WARMUP_CYCLES", 0);
    if (!k.str("REPRO_MEASURE_CYCLES").empty())
        opts.measureCycles = k.num("REPRO_MEASURE_CYCLES", 0);
    if (!k.str("REPRO_MIXES").empty())
        opts.mixes = k.u32("REPRO_MIXES", 0);

    const std::string profile = k.str("REPRO_PROFILE");
    opts.profile = !profile.empty() && profile != "0";
    opts.profileOut = k.str("REPRO_PROFILE_OUT");
    opts.perfettoPath = k.str("REPRO_PERFETTO");
    return opts;
}

} // namespace

RunOptions
RunOptions::parse(const EnvMap &env,
                  const std::vector<std::string> &extra_names)
{
    Knobs knobs{env, {}};
    RunOptions opts = parseWith(knobs);
    for (const auto &[name, value] : env) {
        if (name.rfind("REPRO_", 0) != 0 || knobs.read.count(name))
            continue;
        if (std::count(extra_names.begin(), extra_names.end(), name))
            opts.extra[name] = value;
        else
            warn("environment variable ", name,
                 " is not a known option and has no effect");
    }
    return opts;
}

RunOptions
RunOptions::fromEnv(const std::vector<std::string> &extra_names)
{
    EnvMap env;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        const std::size_t eq = entry.find('=');
        if (entry.rfind("REPRO_", 0) == 0 && eq != std::string::npos)
            env[entry.substr(0, eq)] = entry.substr(eq + 1);
    }
    RunOptions opts = parse(env, extra_names);
    if (opts.profile)
        prof::armReport(opts.profileOut);
    if (!opts.perfettoPath.empty())
        exportTraceEventsAtExit(opts.perfettoPath);
    return opts;
}

std::vector<std::string>
RunOptions::knobNames()
{
    const EnvMap none;
    Knobs knobs{none, {}};
    parseWith(knobs);
    return {knobs.read.begin(), knobs.read.end()};
}

unsigned
RunOptions::workers() const
{
    const unsigned hw = std::thread::hardware_concurrency();
    return jobs != 0 ? jobs : std::max(hw, 1u);
}

std::uint64_t
RunOptions::extraNumber(const std::string &name,
                        std::uint64_t def) const
{
    return Knobs{extra, {}}.num(name, def);
}

std::string
RunOptions::extraString(const std::string &name,
                        const std::string &def) const
{
    const std::string value = Knobs{extra, {}}.str(name);
    return value.empty() ? def : value;
}

} // namespace nuca
