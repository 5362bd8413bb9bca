#include "obs/pulse.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <unistd.h>

#include "obs/atomic_file.hh"
#include "obs/json_reader.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

namespace grp
{
namespace obs
{

namespace
{

/// Written once by the signal handler, polled by the sim loop.
std::atomic<bool> stopFlag{false};

thread_local std::string currentJobLabel;

uint64_t
steadyNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
recordName(PulseSink::Record kind)
{
    switch (kind) {
      case PulseSink::Record::Start: return "start";
      case PulseSink::Record::Beat: return "beat";
      case PulseSink::Record::Warn: return "warn";
      case PulseSink::Record::JobEnd: return "jobEnd";
    }
    return "?";
}

} // namespace

void
requestStop()
{
    stopFlag.store(true, std::memory_order_relaxed);
}

bool
stopRequested()
{
    return stopFlag.load(std::memory_order_relaxed);
}

void
clearStopRequest()
{
    stopFlag.store(false, std::memory_order_relaxed);
}

void
setPulseJobLabel(std::string label)
{
    currentJobLabel = std::move(label);
}

const std::string &
pulseJobLabel()
{
    return currentJobLabel;
}

PulseSink::PulseSink(std::string path) : path_(std::move(path))
{
    live_.open(path_, std::ios::trunc);
    ok_ = live_.good();
    if (!ok_)
        warn("cannot open pulse sidecar '%s'", path_.c_str());
    epochNanos_ = steadyNanos();
}

PulseSink::~PulseSink()
{
    // A sink nobody sealed (the process-wide $GRP_PULSE sink, or an
    // exception unwinding past the harness) still gets a best-effort
    // seal so readers can tell "writer exited" from "writer died".
    // Partial only when a stop was actually requested: a sweep whose
    // jobs all finished seals complete at process exit.
    seal(stopRequested(), "exit");
}

uint64_t
PulseSink::monotonicNanos() const
{
    const uint64_t now = steadyNanos();
    return now >= epochNanos_ ? now - epochNanos_ : 0;
}

void
PulseSink::append(Record kind,
                  const std::function<void(JsonWriter &)> &fields)
{
    if (!ok_)
        return;
    std::lock_guard<std::mutex> guard(mutex_);
    if (sealed_)
        return;
    std::ostringstream line;
    JsonWriter json(line, /*pretty=*/false);
    json.beginObject();
    json.kv("ev", recordName(kind));
    json.kv("seq", nextSeq_++);
    json.kv("tMonoNs", monotonicNanos());
    if (fields)
        fields(json);
    json.endObject();
    if (kind == Record::Beat)
        ++beats_;
    else if (kind == Record::Warn)
        ++warnings_;
    lines_.push_back(line.str());
    // Flush whole lines so a live tail (and a killed writer's
    // leftovers) always parse up to the last newline.
    live_ << lines_.back() << '\n' << std::flush;
}

void
PulseSink::seal(bool partial, const char *reason,
                const std::function<void(JsonWriter &)> &fields)
{
    if (!ok_)
        return;
    std::lock_guard<std::mutex> guard(mutex_);
    if (sealed_)
        return;
    sealed_ = true;
    std::ostringstream line;
    JsonWriter json(line, /*pretty=*/false);
    json.beginObject();
    json.kv("ev", "seal");
    json.kv("seq", nextSeq_++);
    json.kv("tMonoNs", monotonicNanos());
    json.kv("beats", beats_);
    json.kv("warnings", warnings_);
    json.kv("partial", partial);
    json.kv("reason", reason);
    if (fields)
        fields(json);
    json.endObject();
    lines_.push_back(line.str());
    live_ << lines_.back() << '\n' << std::flush;
    live_.close();
    // Republish the complete stream through the tmp+rename
    // discipline: the sealed artefact at the published path is
    // all-or-nothing even if the live appends raced a reader.
    atomicWriteFile(
        path_,
        [this](std::ostream &os) {
            for (const std::string &l : lines_)
                os << l << '\n';
        },
        "pulse stream");
}

const std::shared_ptr<PulseSink> &
PulseSink::process()
{
    static const std::shared_ptr<PulseSink> sink = [] {
        const char *path = std::getenv("GRP_PULSE");
        if (!path || !*path)
            return std::shared_ptr<PulseSink>();
        return std::make_shared<PulseSink>(path);
    }();
    return sink;
}

PulseMeter::PulseMeter(std::shared_ptr<PulseSink> sink, bool owns_sink,
                       PulseConfig config, PulseRunMeta meta,
                       std::function<PulseSample()> sampler)
    : sink_(std::move(sink)), sampler_(std::move(sampler)),
      ownsSink_(owns_sink), config_(config), meta_(std::move(meta))
{
    config_.validate();
    interval_ = config_.intervalInstructions;
    if (interval_ == 0) {
        // ~1% of the run — ~100 beats regardless of budget — but
        // never so fine that beat overhead becomes measurable.
        interval_ = meta_.targetInstructions / 100;
        if (interval_ < 1000)
            interval_ = 1000;
    }
    nextBeatInstructions_ = interval_;
    lastBeatNanos_ = sink_ ? sink_->monotonicNanos() : 0;
    if (!sink_)
        return;
    sink_->append(PulseSink::Record::Start, [this](JsonWriter &json) {
        json.kv("schema", "grp-pulse-v1");
        if (!meta_.job.empty())
            json.kv("job", meta_.job);
        json.kv("workload", meta_.workload);
        json.kv("scheme", meta_.scheme);
        json.kv("seed", meta_.seed);
        json.kv("targetInstructions", meta_.targetInstructions);
        json.kv("intervalInstructions", interval_);
        json.kv("wallFloorMillis", config_.wallFloorMillis);
        json.kv("pid", static_cast<uint64_t>(::getpid()));
    });
}

bool
PulseMeter::onDeadline(Tick)
{
    if (stopRequested())
        return false;
    if (sink_ && config_.wallFloorMillis != 0 &&
        sink_->monotonicNanos() - lastBeatNanos_ >=
            config_.wallFloorMillis * 1'000'000ull)
        beat(sampler_());
    return true;
}

void
PulseMeter::onFinish(bool partial)
{
    if (sink_)
        finish(sampler_(), partial, partial ? "interrupted" : "completed");
}

void
PulseMeter::beat(const PulseSample &sample)
{
    if (!sink_ || finished_)
        return;
    emitBeat(sample, sink_->monotonicNanos());
}

void
PulseMeter::emitBeat(const PulseSample &sample, uint64_t nowNanos)
{
    // The warmup boundary resets the mem-stat counters, so a
    // cumulative value can step backwards once per run; treat that
    // beat's delta as the post-reset value rather than wrapping.
    const auto delta = [](uint64_t cur, uint64_t prev) {
        return cur >= prev ? cur - prev : cur;
    };
    const uint64_t dInstructions = delta(sample.instructions,
                                         prev_.instructions);
    const uint64_t dCycles = delta(sample.cycles, prev_.cycles);
    const uint64_t dIssued = delta(sample.prefetchesIssued,
                                   prev_.prefetchesIssued);
    const uint64_t dFills = delta(sample.prefetchFills,
                                  prev_.prefetchFills);
    const uint64_t dUseful = delta(sample.usefulPrefetches,
                                   prev_.usefulPrefetches);
    const uint64_t dPollution = delta(sample.pollutionMisses,
                                      prev_.pollutionMisses);
    const uint64_t dNanos = nowNanos > lastBeatNanos_
                                ? nowNanos - lastBeatNanos_
                                : 1;
    const double instPerSec =
        static_cast<double>(dInstructions) * 1e9 /
        static_cast<double>(dNanos);
    const double occupancy =
        sample.queueCapacity
            ? static_cast<double>(sample.queueDepth) /
                  static_cast<double>(sample.queueCapacity)
            : 0.0;
    const uint64_t dIdle = delta(sample.dramIdleCycles,
                                 prev_.dramIdleCycles);
    const uint64_t dDramTotal = delta(sample.dramTotalCycles,
                                      prev_.dramTotalCycles);
    const double idleFrac =
        dDramTotal ? static_cast<double>(dIdle) /
                         static_cast<double>(dDramTotal)
                   : 0.0;

    sink_->append(PulseSink::Record::Beat, [&](JsonWriter &json) {
        if (!meta_.job.empty())
            json.kv("job", meta_.job);
        json.kv("instructions", sample.instructions);
        json.kv("cycles", sample.cycles);
        json.kv("instPerSec", instPerSec);
        json.kv("dInstructions", dInstructions);
        json.kv("dCycles", dCycles);
        json.kv("issued", sample.prefetchesIssued);
        json.kv("fills", sample.prefetchFills);
        json.kv("useful", sample.usefulPrefetches);
        json.kv("pollution", sample.pollutionMisses);
        json.kv("dIssued", dIssued);
        json.kv("dFills", dFills);
        json.kv("dUseful", dUseful);
        json.kv("dPollution", dPollution);
        json.kv("queueDepth", sample.queueDepth);
        json.kv("queueOccupancy", occupancy);
        json.kv("dramIdleFrac", idleFrac);
    });
    ++beats_;

    // --- Stall watchdog -------------------------------------------
    // Zero retired instructions since the last beat is only
    // observable because the wall floor keeps forcing beats; the
    // instruction trigger can never fire with dInstructions == 0.
    // Require real simulated progress (dCycles) behind the zero:
    // wall time with few cycles means the host thread was merely
    // descheduled (an oversubscribed sweep), not that the simulation
    // is wedged — a wedged sim burns cycles without retiring.
    constexpr uint64_t kStallMinCycles = 4096;
    if (dInstructions == 0) {
        if (dCycles >= kStallMinCycles) {
            ++stallStreak_;
            ++warnings_;
            sink_->append(PulseSink::Record::Warn,
                          [&](JsonWriter &json) {
                              if (!meta_.job.empty())
                                  json.kv("job", meta_.job);
                              json.kv("kind", "stall");
                              json.kv("instructions",
                                      sample.instructions);
                              json.kv("dCycles", dCycles);
                              json.kv("stalledBeats", stallStreak_);
                          });
        }
    } else {
        stallStreak_ = 0;
        // inst/s collapse: sustained drop below the EMA baseline.
        // The baseline learns only from healthy beats so a long
        // slowdown cannot drag it down and mask itself.
        if (baselineInstPerSec_ <= 0.0) {
            baselineInstPerSec_ = instPerSec;
        } else {
            const double floor =
                baselineInstPerSec_ * (1.0 - config_.dropPct / 100.0);
            if (instPerSec < floor) {
                ++dropStreak_;
                if (dropStreak_ == config_.dropSustainBeats) {
                    ++warnings_;
                    sink_->append(
                        PulseSink::Record::Warn,
                        [&](JsonWriter &json) {
                            if (!meta_.job.empty())
                                json.kv("job", meta_.job);
                            json.kv("kind", "slowdown");
                            json.kv("instPerSec", instPerSec);
                            json.kv("baselineInstPerSec",
                                    baselineInstPerSec_);
                            json.kv("dropPct", config_.dropPct);
                            json.kv("sustainedBeats", dropStreak_);
                        });
                }
            } else {
                dropStreak_ = 0;
                baselineInstPerSec_ = 0.75 * baselineInstPerSec_ +
                                      0.25 * instPerSec;
            }
        }
    }

    prev_ = sample;
    lastBeatNanos_ = nowNanos;
    nextBeatInstructions_ = sample.instructions + interval_;
}

void
PulseMeter::finish(const PulseSample &sample, bool partial,
                   const char *reason)
{
    if (!sink_ || finished_)
        return;
    finished_ = true;
    if (sample.instructions > prev_.instructions)
        emitBeat(sample, sink_->monotonicNanos());
    if (ownsSink_) {
        sink_->seal(partial, reason, [&](JsonWriter &json) {
            json.kv("instructions", sample.instructions);
            json.kv("targetInstructions", meta_.targetInstructions);
        });
    } else {
        sink_->append(PulseSink::Record::JobEnd,
                      [&](JsonWriter &json) {
                          if (!meta_.job.empty())
                              json.kv("job", meta_.job);
                          json.kv("partial", partial);
                          json.kv("reason", reason);
                          json.kv("instructions", sample.instructions);
                          json.kv("targetInstructions",
                                  meta_.targetInstructions);
                          json.kv("beats", beats_);
                          json.kv("warnings", warnings_);
                      });
    }
}

const char *
toString(PulseVerdict verdict)
{
    switch (verdict) {
      case PulseVerdict::Healthy: return "healthy";
      case PulseVerdict::Stalled: return "stalled";
      case PulseVerdict::Truncated: return "truncated";
      case PulseVerdict::Malformed: return "malformed";
    }
    return "?";
}

namespace
{

uint64_t
numField(const JsonValue &record, const char *name, uint64_t fallback = 0)
{
    const JsonValue *v = record.find(name);
    return v && v->isNumber() ? static_cast<uint64_t>(v->asNumber())
                              : fallback;
}

double
doubleField(const JsonValue &record, const char *name)
{
    const JsonValue *v = record.find(name);
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

std::string
stringField(const JsonValue &record, const char *name)
{
    const JsonValue *v = record.find(name);
    return v && v->isString() ? v->asString() : std::string();
}

} // namespace

PulseAnalysis
analyzePulse(std::istream &is)
{
    PulseAnalysis out;
    bool malformed = false;
    uint64_t stallWarnings = 0;
    bool haveSeq = false;
    uint64_t lastSeq = 0;
    uint64_t lastNanos = 0;
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    // Ring of recent beat (instructions, tMonoNs) pairs per job for
    // the rolling inst/s the monitor's ETA uses.
    struct RecentBeat { uint64_t instructions; uint64_t nanos; };
    std::map<std::string, std::vector<RecentBeat>> recent;
    constexpr size_t kRollingWindow = 8;

    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].empty())
            continue;
        std::string error;
        const auto record = parseJson(lines[i], &error);
        if (!record || !record->isObject()) {
            // A torn final line is the expected tail of a live (or
            // killed) writer; a torn *interior* line is corruption.
            if (i + 1 == lines.size()) {
                out.tornTail = true;
            } else {
                malformed = true;
                out.problems.push_back(
                    "unparseable record at line " +
                    std::to_string(i + 1) + ": " + error);
            }
            continue;
        }
        ++out.records;
        if (out.sealed) {
            malformed = true;
            out.problems.push_back(
                "record after seal at line " + std::to_string(i + 1));
        }
        const uint64_t seq = numField(*record, "seq");
        if (haveSeq && seq <= lastSeq) {
            malformed = true;
            out.problems.push_back(
                "seq not strictly increasing at line " +
                std::to_string(i + 1) + " (" +
                std::to_string(lastSeq) + " -> " +
                std::to_string(seq) + ")");
        }
        lastSeq = seq;
        haveSeq = true;
        const uint64_t nanos = numField(*record, "tMonoNs");
        if (nanos < lastNanos) {
            malformed = true;
            out.problems.push_back(
                "tMonoNs decreased at line " + std::to_string(i + 1));
        }
        lastNanos = nanos;

        const std::string ev = stringField(*record, "ev");
        const std::string jobName = stringField(*record, "job");
        PulseJobSummary &job = out.jobs[jobName];
        job.job = jobName;
        job.lastSeq = seq;
        if (ev == "start") {
            job.workload = stringField(*record, "workload");
            job.scheme = stringField(*record, "scheme");
            job.targetInstructions =
                numField(*record, "targetInstructions");
        } else if (ev == "beat") {
            ++out.beats;
            ++job.beats;
            const uint64_t instructions =
                numField(*record, "instructions");
            if (instructions < job.instructions) {
                malformed = true;
                out.problems.push_back(
                    "instructions decreased for job '" + jobName +
                    "' at line " + std::to_string(i + 1));
            }
            job.instructions = instructions;
            job.cycles = numField(*record, "cycles");
            job.lastBeatNanos = nanos;
            job.lastInstPerSec = doubleField(*record, "instPerSec");
            job.queueOccupancy =
                doubleField(*record, "queueOccupancy");
            job.dramIdleFrac = doubleField(*record, "dramIdleFrac");
            auto &ring = recent[jobName];
            ring.push_back({instructions, nanos});
            if (ring.size() > kRollingWindow)
                ring.erase(ring.begin());
        } else if (ev == "warn") {
            ++out.warnings;
            ++job.warnings;
            // Only stall warnings drive the verdict. A slowdown warn
            // compares wall-clock inst/s against an EMA baseline, so
            // a descheduled host thread (noisy CI runner, an
            // oversubscribed sweep) can emit one during a perfectly
            // healthy run; stall warns are gated on *simulated*
            // cycles burned without retirement and cannot.
            if (stringField(*record, "kind") == "stall")
                ++stallWarnings;
        } else if (ev == "jobEnd") {
            job.ended = true;
            job.partial = record->find("partial") &&
                          record->find("partial")->asBool();
        } else if (ev == "seal") {
            out.sealed = true;
            out.partial = record->find("partial") &&
                          record->find("partial")->asBool();
            // The seal closes every job that had no explicit jobEnd
            // (single-run streams have no jobEnd records at all).
            for (auto &[jname, j] : out.jobs) {
                if (!j.ended) {
                    j.ended = true;
                    j.partial = out.partial;
                }
            }
        } else {
            malformed = true;
            out.problems.push_back("unknown record type '" + ev +
                                   "' at line " +
                                   std::to_string(i + 1));
        }
    }
    // The anonymous job slot exists only when single-run records
    // carried no job field; drop it if it never saw any records
    // (e.g. an empty stream).
    if (auto it = out.jobs.find(""); it != out.jobs.end() &&
                                     it->second.beats == 0 &&
                                     it->second.workload.empty())
        out.jobs.erase(it);

    for (auto &[name, job] : out.jobs) {
        const auto &ring = recent[name];
        if (ring.size() >= 2) {
            const uint64_t dInst =
                ring.back().instructions - ring.front().instructions;
            const uint64_t dNanos =
                ring.back().nanos > ring.front().nanos
                    ? ring.back().nanos - ring.front().nanos
                    : 1;
            job.rollingInstPerSec = static_cast<double>(dInst) * 1e9 /
                                    static_cast<double>(dNanos);
        } else {
            job.rollingInstPerSec = job.lastInstPerSec;
        }
    }

    if (malformed) {
        out.verdict = PulseVerdict::Malformed;
    } else if (!out.sealed) {
        out.verdict = PulseVerdict::Truncated;
        out.problems.push_back("stream has no seal record");
    } else if (stallWarnings > 0) {
        out.verdict = PulseVerdict::Stalled;
        out.problems.push_back(std::to_string(stallWarnings) +
                               " stall warning(s) in stream");
    }
    return out;
}

} // namespace obs
} // namespace grp
