#include "sim/sweep_store.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "base/logging.hh"

namespace nuca {

namespace {

json::Value
doubleArray(const std::vector<double> &values)
{
    json::Value arr = json::Value::array();
    for (const double v : values)
        arr.append(v);
    return arr;
}

/** The elements of @p arr, or nullopt unless it is an array of
 *  numbers. */
std::optional<std::vector<double>>
numberVector(const json::Value &arr)
{
    if (arr.type() != json::Value::Type::Array)
        return std::nullopt;
    std::vector<double> out;
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) {
        if (arr.at(i).type() != json::Value::Type::Number)
            return std::nullopt;
        out.push_back(arr.at(i).asNumber());
    }
    return out;
}

/** The string at @p obj[@p key] into @p out: true when absent (and
 *  not required) or a string, false on a wrong type. */
bool
readString(const json::Value &obj, const char *key, bool required,
           std::string &out)
{
    if (!obj.contains(key))
        return !required;
    const json::Value &v = obj.at(key);
    if (v.type() != json::Value::Type::String)
        return false;
    out = v.asString();
    return true;
}

} // namespace

json::Value
mixResultToJson(const MixResult &result)
{
    json::Value obj = json::Value::object();
    obj.set("ipc", doubleArray(result.ipc));
    obj.set("l3apk", doubleArray(result.l3AccessesPerKilocycle));
    return obj;
}

std::optional<MixResult>
mixResultFromJson(const json::Value &obj)
{
    MixResult result;
    for (const auto &[key, field] :
         {std::pair{"ipc", &result.ipc},
          std::pair{"l3apk", &result.l3AccessesPerKilocycle}}) {
        if (!obj.contains(key))
            continue;
        auto values = numberVector(obj.at(key));
        if (!values)
            return std::nullopt;
        *field = std::move(*values);
    }
    return result;
}

JobStatus
jobStatusFromString(const std::string &name)
{
    if (name == "ok")
        return JobStatus::Ok;
    if (name == "stalled")
        return JobStatus::Stalled;
    if (name == "over_budget")
        return JobStatus::OverBudget;
    if (name == "crashed")
        return JobStatus::Crashed;
    if (name == "timed_out")
        return JobStatus::TimedOut;
    if (name == "quarantined")
        return JobStatus::Quarantined;
    if (name == "interrupted")
        return JobStatus::Interrupted;
    return JobStatus::Failed;
}

SweepStore::SweepStore(std::string path, bool sync)
    : path_(std::move(path)), sync_(sync)
{
    file_ = std::fopen(path_.c_str(), "a");
    fatal_if(file_ == nullptr, "sweep store: cannot open '", path_,
             "' for appending");
}

SweepStore::~SweepStore()
{
    std::fclose(file_);
}

void
SweepStore::append(const SweepRecord &record)
{
    json::Value line = json::Value::object();
    line.set("label", record.label);
    if (!record.key.empty())
        line.set("key", record.key);
    line.set("status", to_string(record.status));
    if (!record.error.empty())
        line.set("error", record.error);
    const json::Value payload = mixResultToJson(record.result);
    line.set("ipc", payload.at("ipc"));
    line.set("l3apk", payload.at("l3apk"));
    const std::string text = line.dump() + "\n";

    std::lock_guard<std::mutex> guard(mutex_);
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), file_);
    // The sidecar IS the crash-safety mechanism; losing it silently
    // would defeat its purpose, so short writes are fatal.
    fatal_if(written != text.size() || std::fflush(file_) != 0,
             "sweep store: short write to '", path_, "'");
#if defined(__unix__) || defined(__APPLE__)
    // fflush hands the bytes to the kernel (enough to survive this
    // process dying, the default guarantee); REPRO_SYNC=1 pushes
    // them to stable storage so even a host crash loses at most the
    // in-flight record.
    fatal_if(sync_ && ::fsync(::fileno(file_)) != 0,
             "sweep store: fsync failed on '", path_, "'");
#endif
}

std::vector<SweepRecord>
SweepStore::load(const std::string &path)
{
    std::vector<SweepRecord> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty())
            continue;
        const auto parsed = json::Value::tryParse(line);
        // A torn trailing line is the expected signature of a killed
        // run; skip it (and anything else unparsable or wrong-typed)
        // rather than die.
        if (!parsed || parsed->type() != json::Value::Type::Object)
            continue;
        SweepRecord record;
        std::string status;
        if (!readString(*parsed, "label", true, record.label) ||
            !readString(*parsed, "key", false, record.key) ||
            !readString(*parsed, "status", true, status) ||
            !readString(*parsed, "error", false, record.error))
            continue;
        auto result = mixResultFromJson(*parsed);
        if (!result)
            continue;
        record.status = jobStatusFromString(status);
        record.result = std::move(*result);
        out.push_back(std::move(record));
    }
    return out;
}

} // namespace nuca
