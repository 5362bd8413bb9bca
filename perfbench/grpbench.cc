/**
 * @file
 * grpbench: the repository benchmark.
 *
 *   grpbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--workers K]
 *
 * Runs one workload's job list as repeated rounds until S seconds
 * have passed (at least one round; with --trace 1 an even number, so
 * untraced and traced rounds pair up), checks every job's outputs, and
 * prints the metrics as "metric <name> <value> <unit>" lines and, on
 * the last line, one JSON object {correct, attempted, failed,
 * metrics}. With --trace 0 the metrics are the end-to-end ones, timed
 * by in-process monotonic clocks with nothing traced; with --trace 1
 * untraced and traced rounds alternate, the traced ones record spans
 * around every call into the simulator's public functions, per-layer
 * kernels run afterwards, and the metrics are the per-layer ones. The
 * exit code is 1 when any check failed, 2 on a usage error.
 *
 * Workloads (NOTES.md records why each was chosen):
 *   paper-grid     Table 1 grid on legacy DRAM plus a grp-adaptive
 *                  point on ddr4-2400, shared recordings, 2 workers
 *   cold-observed  every workload cold, full observer set, serial
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/provenance.hh"
#include "harness/replay.hh"
#include "harness/runner.hh"
#include "harness/suite.hh"
#include "harness/sweep.hh"
#include "kernels.hh"
#include "mem/dram_backend/presets.hh"
#include "metrics.hh"
#include "obs/json_reader.hh"
#include "obs/json_writer.hh"
#include "obs/pulse.hh"
#include "obs/trace_reader.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "spans.hh"

using namespace grpbench;
using grp::Perfection;
using grp::PrefetchScheme;

namespace
{

// ----------------------------------------------------------------
// Workload definitions
// ----------------------------------------------------------------

struct JobSpec
{
    std::string workload;
    uint64_t seed = 0;
    PrefetchScheme scheme = PrefetchScheme::None;
    Perfection perfection = Perfection::None;
    std::string dram = "legacy"; ///< DRAM backend preset.

    std::string
    label() const
    {
        std::string what = perfection == Perfection::None
                               ? grp::toString(scheme)
                               : grp::toString(perfection);
        if (dram != "legacy")
            what += "@" + dram;
        return workload + "/" + what + "/s" + std::to_string(seed);
    }
    /** The Table 1 benchmark instance this job belongs to. */
    std::string
    instance() const
    {
        return workload + "/s" + std::to_string(seed);
    }
};

struct WorkloadSpec
{
    std::string name;
    uint64_t window = 0;   ///< Measured instructions per job.
    unsigned workers = 1;  ///< runSweep worker threads.
    /** Each job builds its own recording, with every observer on;
     *  otherwise one recording per workload is shared by its jobs. */
    bool cold = false;
    std::vector<JobSpec> jobs;
};

/**
 * The grid @p points x @p workloads at @p seed, point-major as
 * bench/tab01_summary queues it: the first point's jobs record every
 * workload's stream, and concurrent workers then mostly run different
 * workloads instead of waiting on one recording's lock.
 */
std::vector<JobSpec>
grid(const std::vector<std::string> &workloads,
     const std::vector<JobSpec> &points, uint64_t seed)
{
    std::vector<JobSpec> jobs;
    for (JobSpec job : points) {
        for (const std::string &w : workloads) {
            job.workload = w;
            job.seed = seed;
            jobs.push_back(job);
        }
    }
    return jobs;
}

JobSpec
scheme(PrefetchScheme s, std::string dram = "legacy")
{
    JobSpec job;
    job.scheme = s;
    job.dram = std::move(dram);
    return job;
}

JobSpec
perfectL2()
{
    JobSpec job;
    job.perfection = Perfection::PerfectL2;
    return job;
}

/** Seeds per workload in cold-observed. */
constexpr uint64_t kColdSeeds = 2;

bool
makeSpec(const std::string &name, uint64_t seed, WorkloadSpec &spec)
{
    spec.name = name;
    if (name == "paper-grid") {
        // Table 1's points, plus grp-adaptive on the queued ddr4-2400
        // backend: the memory system's queued-completion side, the
        // bank/refresh model and the adaptive controller, which the
        // legacy points never enter.
        spec.window = 1'000'000;
        spec.workers = 2;
        spec.jobs = grid(grp::perfSuite(),
                         {scheme(PrefetchScheme::None),
                          scheme(PrefetchScheme::Stride),
                          scheme(PrefetchScheme::Srp),
                          scheme(PrefetchScheme::GrpFix),
                          scheme(PrefetchScheme::GrpVar), perfectL2(),
                          scheme(PrefetchScheme::GrpAdaptive, "ddr4-2400")},
                         seed);
        return true;
    }
    if (name == "cold-observed") {
        spec.window = 200'000;
        spec.workers = 1;
        spec.cold = true;
        for (uint64_t k = 0; k < kColdSeeds; ++k) {
            for (JobSpec job :
                 grid(grp::workloadNames(),
                      {scheme(PrefetchScheme::None),
                       scheme(PrefetchScheme::GrpVar), perfectL2()},
                      seed * 16 + k))
                spec.jobs.push_back(job);
        }
        return true;
    }
    return false;
}

grp::SimConfig
jobConfig(const JobSpec &job)
{
    grp::SimConfig config;
    config.scheme = job.scheme;
    config.perfection = job.perfection;
    config.dram.backend = job.dram;
    return config;
}

// ----------------------------------------------------------------
// One round: setup, the job list, output checks
// ----------------------------------------------------------------

/** What one job left behind besides its RunResult. */
struct JobExtra
{
    double setupS = 0.0;
    double buildS = 0.0; ///< SweepRecording::memory (cold jobs).
    double hintsS = 0.0; ///< SweepRecording::hints (cold jobs).
    double loopS = 0.0;  ///< runWorkload.
    double exportS = 0.0;
    int64_t startNs = 0;
    uint64_t opsRecorded = 0;
    uint64_t traceRecords = 0;
    uint64_t traceBytes = 0;
    uint64_t pulseBeats = 0;
    std::vector<std::string> problems;
};

struct Round
{
    bool traced = false;
    double wallS = 0.0;
    double setupS = 0.0;
    double sweepS = 0.0; ///< runSweep call alone.
    int64_t sweepStartNs = 0;
    double exportS = 0.0;
    double peakRssMb = 0.0; ///< 0 when it could not be read.
    uint64_t simInstructions = 0;
    std::vector<grp::SweepOutcome> outcomes;
    std::vector<JobExtra> extras;
    std::vector<uint64_t> digests;
    double buildS = 0.0; ///< SweepRecording::memory calls.
    double hintsS = 0.0; ///< SweepRecording::hints calls.
    double loopS = 0.0;  ///< runWorkload calls.
};

/** Time one call into the simulator, as a span when tracing, and
 *  add its seconds to @p total. */
template <typename Fn>
void
timedCall(SpanRecorder &spans, const char *name, int64_t parent,
          int64_t job, double &total, Fn &&fn)
{
    SpanRecorder::Scope span(spans, name, parent, job);
    const int64_t t0 = nowNs();
    fn();
    total += secondsBetween(t0, nowNs());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse a JSON export; a problem when it is missing or malformed. */
std::unique_ptr<grp::obs::JsonValue>
readJson(const std::string &path, const char *what,
         std::vector<std::string> &problems)
{
    std::string error;
    auto doc = grp::obs::parseJson(readFile(path), &error);
    if (!doc || !doc->isObject())
        problems.push_back(std::string(what) + " export does not parse: " +
                           error);
    return doc;
}

/** Read back every export a cold-observed job wrote. */
void
checkExports(const std::string &stem, const grp::RunResult &result,
             JobExtra &extra)
{
    auto &problems = extra.problems;
    if (auto stats = readJson(stem + ".stats.json", "stats", problems)) {
        const grp::obs::JsonValue *v = stats->findPath(
            "groups.mem.counters.l2DemandAccesses");
        if (!v || !v->isNumber() ||
            static_cast<uint64_t>(v->asNumber()) !=
                result.stats.value("mem.l2DemandAccesses"))
            problems.push_back("stats export disagrees with the run");
    }
    readJson(stem + ".timeseries.json", "timeseries", problems);
    readJson(stem + ".sites.json", "site profile", problems);

    const std::string trace_path = stem + ".grpbin";
    const grp::obs::TraceParseResult trace =
        grp::obs::readTraceFile(trace_path);
    if (trace.openFailed || !trace.binary || trace.truncated ||
        !trace.errors.empty()) {
        problems.push_back("trace export does not read back");
    } else {
        const grp::obs::TraceAnalysis analysis =
            grp::obs::analyzeTrace(trace.lines);
        if (!analysis.violations.empty())
            problems.push_back("trace breaks " +
                               std::to_string(analysis.violations.size()) +
                               " lifecycle invariants");
        extra.traceRecords = analysis.records;
        std::error_code ec;
        extra.traceBytes = std::filesystem::file_size(trace_path, ec);
    }

    std::ifstream pulse_in(stem + ".pulse.jsonl");
    const grp::obs::PulseAnalysis pulse =
        grp::obs::analyzePulse(pulse_in);
    if (!pulse.sealed || pulse.verdict == grp::obs::PulseVerdict::Malformed ||
        pulse.verdict == grp::obs::PulseVerdict::Truncated)
        problems.push_back(std::string("pulse stream is ") +
                           grp::obs::toString(pulse.verdict) +
                           (pulse.sealed ? "" : ", not sealed"));
    extra.pulseBeats = pulse.beats;
}

/** The output checks every job must pass. */
void
checkJob(const WorkloadSpec &spec, const JobSpec &job,
         const grp::SweepOutcome &outcome, JobExtra &extra)
{
    auto &problems = extra.problems;
    if (outcome.failed) {
        problems.push_back("threw: " + outcome.error);
        return;
    }
    const grp::RunResult &r = outcome.result;
    // The measured window opens on the cycle whose retirement crosses
    // the warmup count, so it may start up to retireWidth - 1
    // instructions late; a job cut short falls further behind.
    const unsigned width = grp::SimConfig{}.cpu.retireWidth;
    if (r.partial || r.instructions + width <= spec.window)
        problems.push_back("retired " + std::to_string(r.instructions) +
                           " of a " + std::to_string(spec.window) +
                           "-instruction window");
    if (r.usefulPrefetches > r.prefetchFills || r.accuracy() > 1.0 ||
        r.stats.value("mem.accuracyClampEvents") != 0)
        problems.push_back("prefetch accuracy above 1");
    if (const grp::DramPreset *preset = grp::findDramPreset(job.dram)) {
        static const char *kStates[] = {"Idle", "Open", "Activating",
                                        "Precharging", "Refreshing"};
        for (unsigned ch = 0; ch < preset->channels; ++ch) {
            const std::string c = "dram.ch" + std::to_string(ch);
            const uint64_t cycles = r.stats.value(c + "Cycles");
            for (unsigned b = 0; b < preset->banksPerChannel; ++b) {
                uint64_t sum = 0;
                for (const char *state : kStates)
                    sum += r.stats.value(c + "bank" + std::to_string(b) +
                                         state + "Cycles");
                if (sum != cycles)
                    problems.push_back(c + "bank" + std::to_string(b) +
                                       " state cycles do not sum to the "
                                       "channel's");
            }
        }
    }
    if (spec.cold) {
        const auto v = [&r](const char *name) {
            return static_cast<int64_t>(r.stats.value(name));
        };
        if (v("mem.pollutionCoverageHits") - v("mem.pollutionMisses") !=
            v("mem.pollutionShadowMisses") - v("mem.l2DemandMissesTotal"))
            problems.push_back("shadow-tag identity broken");
    }
}

/** Restart the kernel's peak-RSS (VmHWM) tracking for this process. */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/** Peak resident memory, in MiB, since the last resetPeakRss(); 0 when
 *  /proc/self/status has no VmHWM line. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Run @p fn on a new thread and return its result, rethrowing what
 *  it threw. */
template <typename Fn>
grp::RunResult
onFreshThread(const Fn &fn)
{
    grp::RunResult result;
    std::exception_ptr error;
    std::thread t([&] {
        try {
            result = fn();
        } catch (...) {
            error = std::current_exception();
        }
    });
    t.join();
    if (error)
        std::rethrow_exception(error);
    return result;
}

/** Warmup before each job's measured window: a quarter of it, as
 *  RunOptions defaults to. */
uint64_t
warmupOf(uint64_t window)
{
    return window / 4;
}

/**
 * Run one round. Cold-observed jobs write their exports under
 * @p export_dir, which must exist; a fresh directory per round keeps
 * file deletion (slow and erratic on a discard-mounted disk) out of
 * the measured time.
 */
Round
runRound(const WorkloadSpec &spec, SpanRecorder &spans,
         const std::string &export_dir)
{
    Round round;
    round.traced = spans.enabled();
    // Each round reports its own peak, from a heap with earlier
    // rounds' freed memory handed back, so a run's figure does not
    // depend on how many rounds it fitted in.
    malloc_trim(0);
    const bool rss_reset = resetPeakRss();
    const size_t n = spec.jobs.size();
    round.extras.resize(n);
    const int64_t t0 = nowNs();
    SpanRecorder::Scope round_span(spans, "round", 0);

    // Shared setup: one recording per workload, built before any
    // simulated cycle and kept for the whole round, as BenchSweep
    // does. Cold rounds build inside each job instead.
    std::map<std::string, std::shared_ptr<grp::SweepRecording>> shared;
    if (!spec.cold) {
        SpanRecorder::Scope setup_span(spans, "setup", round_span.id());
        for (const JobSpec &job : spec.jobs) {
            auto &rec = shared[job.instance()];
            if (rec)
                continue;
            rec = std::make_shared<grp::SweepRecording>(
                job.workload, job.seed, jobConfig(job).l2.sizeBytes);
            timedCall(spans, "SweepRecording::memory", setup_span.id(), -1,
                      round.buildS, [&rec] { rec->memory(); });
            timedCall(spans, "SweepRecording::hints", setup_span.id(), -1,
                      round.hintsS, [&rec] {
                          rec->hints(grp::CompilerPolicy::Default);
                      });
        }
    }
    const int64_t t_setup = nowNs();
    if (!spec.cold)
        round.setupS = secondsBetween(t0, t_setup);

    {
        std::vector<grp::SweepJob> jobs;
        SpanRecorder::Scope sweep_span(spans, "runSweep", round_span.id());
        const int64_t sweep_id = sweep_span.id();
        for (size_t i = 0; i < n; ++i) {
            const JobSpec &job = spec.jobs[i];
            JobExtra &extra = round.extras[i];
            std::shared_ptr<grp::SweepRecording> rec =
                spec.cold ? nullptr : shared[job.instance()];
            const std::string stem =
                export_dir + "/job" + std::to_string(i);
            const auto body = [&, i, rec, stem] {
                extra.startNs = nowNs();
                SpanRecorder::Scope job_span(spans, "job", sweep_id,
                                             static_cast<int64_t>(i));
                const grp::SimConfig config = jobConfig(job);
                grp::RunOptions opts;
                opts.maxInstructions = spec.window;
                opts.warmupInstructions = warmupOf(spec.window);
                opts.seed = job.seed;
                if (rec) {
                    opts.recording = rec;
                } else {
                    const int64_t s0 = nowNs();
                    opts.recording = std::make_shared<grp::SweepRecording>(
                        job.workload, job.seed, config.l2.sizeBytes);
                    grp::SweepRecording &own = *opts.recording;
                    timedCall(spans, "SweepRecording::memory", job_span.id(),
                              i, extra.buildS, [&own] { own.memory(); });
                    timedCall(spans, "SweepRecording::hints", job_span.id(),
                              i, extra.hintsS,
                              [&own, &config] { own.hints(config.policy); });
                    extra.setupS = secondsBetween(s0, nowNs());
                    grp::ObsOptions &o = opts.obs;
                    o.statsJsonPath = stem + ".stats.json";
                    o.tracePath = stem + ".grpbin";
                    o.traceLevel = 2;
                    o.shadow = true;
                    o.siteProfilePath = stem + ".sites.json";
                    o.timeseriesPath = stem + ".timeseries.json";
                    o.pulsePath = stem + ".pulse.jsonl";
                    o.statsProvenance = true;
                }
                grp::RunResult result;
                timedCall(spans, "runWorkload", job_span.id(), i, extra.loopS,
                          [&] {
                              result =
                                  grp::runWorkload(job.workload, config, opts);
                          });
                extra.opsRecorded = opts.recording->opsRecorded();
                if (spec.cold) {
                    const int64_t e0 = nowNs();
                    SpanRecorder::Scope s(spans, "readExports", job_span.id(),
                                          i);
                    checkExports(stem, result, extra);
                    extra.exportS = secondsBetween(e0, nowNs());
                }
                return result;
            };
            // The site profiler's thread_local stat group keeps every
            // counter name an earlier run on its thread created
            // (zero-valued after its reset), so an observed job's stats
            // snapshot would depend on which jobs shared its worker
            // thread. Each cold job therefore runs on a fresh thread.
            jobs.push_back(grp::SweepJob{
                job.label(),
                spec.cold ? std::function<grp::RunResult()>(
                                [body] { return onFreshThread(body); })
                          : std::function<grp::RunResult()>(body)});
        }
        round.sweepStartNs = nowNs();
        round.outcomes = grp::runSweep(std::move(jobs), spec.workers);
        round.sweepS = secondsBetween(round.sweepStartNs, nowNs());
    }

    for (size_t i = 0; i < n; ++i) {
        const grp::SweepOutcome &outcome = round.outcomes[i];
        JobExtra &extra = round.extras[i];
        checkJob(spec, spec.jobs[i], outcome, extra);
        round.digests.push_back(statsDigest(outcome.result.stats));
        round.simInstructions +=
            outcome.result.instructions + warmupOf(spec.window);
        round.setupS += extra.setupS;
        round.buildS += extra.buildS;
        round.hintsS += extra.hintsS;
        round.loopS += extra.loopS;
        round.exportS += extra.exportS;
    }
    round.wallS = secondsBetween(t0, nowNs());
    round.peakRssMb = rss_reset ? peakRssMb() : 0.0;
    return round;
}

// ----------------------------------------------------------------
// Reporting
// ----------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
printProvenance(const WorkloadSpec &spec, uint64_t seed, bool trace)
{
    const grp::BuildProvenance build = grp::buildProvenance();
    const bool optimised =
        (build.buildType == "Release" ||
         build.buildType == "RelWithDebInfo") &&
        (build.cxxFlags.find("-O2") != std::string::npos ||
         build.cxxFlags.find("-O3") != std::string::npos);
    std::ostringstream os;
    grp::obs::JsonWriter json(os, false);
    json.beginObject();
    json.kv("gitSha", build.gitSha);
    json.kv("compiler", build.compiler);
    json.kv("buildType", build.buildType);
    json.kv("cxxFlags", build.cxxFlags);
    json.kv("optimised", optimised);
    json.kv("cpuModel", cpuModel());
    json.kv("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.kv("workers", spec.workers);
    json.kv("window", spec.window);
    json.kv("jobs", static_cast<uint64_t>(spec.jobs.size()));
    json.kv("workload", spec.name);
    json.kv("seed", seed);
    json.kv("trace", trace);
    json.kv("configHash",
            grp::configHash(jobConfig(spec.jobs.front())));
    json.endObject();
    std::printf("provenance %s\n", os.str().c_str());
    if (!optimised)
        std::printf("WARNING: non-optimised build (%s, flags '%s'); "
                    "do not compare its timings with an optimised "
                    "build\n",
                    build.buildType.c_str(), build.cxxFlags.c_str());
}

/** Per-job results of round 0 (every round repeats them exactly). */
std::vector<grp::RunResult>
resultsOf(const Round &round)
{
    std::vector<grp::RunResult> results;
    for (const grp::SweepOutcome &o : round.outcomes)
        results.push_back(o.result);
    return results;
}

std::vector<Metric>
endToEnd(const WorkloadSpec &spec, const std::vector<Round> &rounds)
{
    // Per-round figures, reported as medians over the rounds. Every
    // round runs the same job list, so each job's wall time is also
    // taken as its median over the rounds before the job list is
    // summarised: a job slowed by a passing disturbance on the host
    // moves its own median only. The typical job is the geometric
    // mean of those times, not their median: the job times cluster
    // around two values with few jobs between, and the median sits
    // near that gap, where a small shift moves it to the other side.
    std::vector<double> wall, setup, minst, rss;
    std::vector<std::vector<double>> per_job(spec.jobs.size());
    for (const Round &r : rounds) {
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
        rss.push_back(r.peakRssMb);
        minst.push_back(simMinstPerSec(r.simInstructions, r.wallS,
                                       r.setupS));
        for (size_t i = 0; i < r.outcomes.size(); ++i)
            per_job[i].push_back(r.outcomes[i].wallSeconds);
    }
    std::vector<double> job_times;
    for (const std::vector<double> &times : per_job)
        job_times.push_back(median(times));
    const TailPercentile tail = tailPercentile(job_times);
    std::printf("job_tail_s: p%.2f of %zu jobs (each the median of its "
                "%zu rounds)%s\n",
                tail.percentile, tail.samples, rounds.size(),
                tail.valid ? "" : " (too few jobs: the slowest job)");
    const double tail_s =
        tail.valid ? tail.value
                   : *std::max_element(job_times.begin(), job_times.end());

    size_t ok = 0, attempted = 0;
    for (const Round &r : rounds) {
        for (const JobExtra &e : r.extras) {
            ++attempted;
            ok += e.problems.empty();
        }
    }

    std::vector<std::string> keys;
    for (const JobSpec &job : spec.jobs)
        keys.push_back(job.instance());
    const Summaries sims =
        summarize(resultsOf(rounds.front()), keys, grp::perfSuite());
    const PaperError err = paperError(sims);
    const std::vector<ShapeCheck> shapes = paperShapes(sims);
    std::printf("Table 1 columns (reference: the paper's legacy-DRAM "
                "runs of the full suite%s)\n",
                spec.name == "paper-grid"
                    ? ""
                    : "; this workload is not that grid, so the "
                      "figures are its distance from the paper, not "
                      "the model's fidelity error");
    for (const PaperRow &row : table1()) {
        const auto it = sims.find(row.scheme);
        if (it == sims.end())
            continue;
        std::printf("  %-8s speedup %.3f (paper %.3f)  traffic %.2f "
                    "(paper %.2f)  gap %.2f%% (paper %.2f%%)\n",
                    row.scheme, it->second.speedup, row.speedup,
                    it->second.traffic, row.traffic, it->second.gapPct,
                    row.gapPct);
    }
    for (const ShapeCheck &c : shapes)
        std::printf("  shape %-34s %s\n", c.claim.c_str(),
                    c.holds ? "holds" : "FAILS");

    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_minst_s", median(minst), "Minst/s"},
        {"job_geomean_s", grp::geometricMean(job_times), "s"},
        {"job_tail_s", tail_s, "s"},
        {"peak_rss_mb", median(rss), "MB"},
        {"run_ok_frac",
         attempted ? static_cast<double>(ok) / static_cast<double>(attempted)
                   : 0.0,
         "frac"},
        {"paper_err_speedup_pp", err.speedupPp, "pp"},
        {"paper_err_traffic_pp", err.trafficPp, "pp"},
        {"paper_err_gap_pp", err.gapPp, "pp"},
        {"paper_shape_frac", shapeFrac(shapes), "frac"},
    };
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
perLayer(const WorkloadSpec &spec, const std::vector<Round> &rounds,
         const KernelTimes &k)
{
    std::vector<double> untraced, traced, build, hints, busy, wait,
        exports;
    double loop_s = 0.0;
    uint64_t sim_inst = 0, sim_cycles = 0, transfers_traced = 0;
    for (const Round &r : rounds) {
        if (!r.traced) {
            untraced.push_back(r.wallS);
            continue;
        }
        traced.push_back(r.wallS);
        build.push_back(r.buildS);
        hints.push_back(r.hintsS);
        exports.push_back(r.exportS);
        loop_s += r.loopS;
        sim_inst += r.simInstructions;
        double job_s = 0.0, wait_s = 0.0;
        for (size_t i = 0; i < r.outcomes.size(); ++i) {
            job_s += r.outcomes[i].wallSeconds;
            wait_s += secondsBetween(r.sweepStartNs, r.extras[i].startNs);
            sim_cycles += r.outcomes[i].result.cycles;
            transfers_traced +=
                r.outcomes[i].result.stats.value("dram.transfers");
        }
        busy.push_back(ratio(job_s, spec.workers * r.sweepS));
        wait.push_back(wait_s / static_cast<double>(r.outcomes.size()));
    }

    // Modelled counts: exact, taken from the first round.
    const Round &r0 = rounds.front();
    const auto sum = [&r0](const char *name) {
        uint64_t total = 0;
        for (const grp::SweepOutcome &o : r0.outcomes)
            total += o.result.stats.value(name);
        return static_cast<double>(total);
    };
    const auto maxOf = [&r0](const char *name) {
        uint64_t m = 0;
        for (const grp::SweepOutcome &o : r0.outcomes)
            m = std::max(m, o.result.stats.value(name));
        return static_cast<double>(m);
    };
    std::map<std::string, const grp::RunResult *> base;
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
        const JobSpec &job = spec.jobs[i];
        if (job.scheme == PrefetchScheme::None &&
            job.perfection == Perfection::None)
            base[job.instance() + job.dram] = &r0.outcomes[i].result;
    }
    std::vector<double> coverage, ipcs;
    double cycles = 0.0;
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
        const JobSpec &job = spec.jobs[i];
        const grp::RunResult &r = r0.outcomes[i].result;
        cycles += static_cast<double>(r.cycles);
        if (r.ipc > 0.0)
            ipcs.push_back(r.ipc);
        // Coverage against the none job on the same DRAM backend.
        const auto b = base.find(job.instance() + job.dram);
        if (job.scheme != PrefetchScheme::None &&
            job.perfection == Perfection::None && b != base.end())
            coverage.push_back(r.coveragePct(*b->second) / 100.0);
    }
    uint64_t trace_records = 0, trace_bytes = 0, pulse_beats = 0;
    for (const JobExtra &e : r0.extras) {
        trace_records += e.traceRecords;
        trace_bytes += e.traceBytes;
        pulse_beats += e.pulseBeats;
    }
    const double contention =
        sum("dram.contentionIdleCycles") + sum("dram.contentionDemandCycles") +
        sum("dram.contentionPrefetchCycles") +
        sum("dram.contentionWritebackCycles");
    const double ns = 1e9;
    return {
        {"workloads.build_s", median(build), "s"},
        {"workloads.interp_ns_per_op",
         ratio(k.interpS * ns, static_cast<double>(k.interpOps)), "ns/op"},
        {"compiler.hints_s", median(hints), "s"},
        {"harness.loop_ns_per_inst",
         ratio(loop_s * ns, static_cast<double>(sim_inst)), "ns/inst"},
        {"harness.loop_ns_per_cycle",
         ratio(loop_s * ns, static_cast<double>(sim_cycles)), "ns/cycle"},
        {"harness.replay_ns_per_op",
         ratio(k.replayS * ns, static_cast<double>(k.replayOps)), "ns/op"},
        {"harness.worker_busy_frac", median(busy), "frac"},
        {"harness.job_wait_s", median(wait), "s"},
        {"harness.export_s", median(exports), "s"},
        {"mem.l1_ns_per_access",
         ratio(k.l1S * ns, static_cast<double>(k.l1Accesses)), "ns/access"},
        {"mem.l2_ns_per_access",
         ratio(k.l2S * ns, static_cast<double>(k.l2Accesses)), "ns/access"},
        {"mem.l1_miss_rate",
         ratio(sum("mem.l1DemandMisses"), sum("mem.l1DemandAccesses")),
         "frac"},
        {"mem.l2_miss_rate",
         ratio(sum("mem.l2DemandMissesTotal"), sum("mem.l2DemandAccesses")),
         "frac"},
        {"mem.l2_demand_accesses", sum("mem.l2DemandAccesses"), "count"},
        {"mem.mshr_stalls",
         sum("mem.l1MshrStalls") + sum("mem.l2MshrStalls") +
             sum("mem.l1TargetStalls") + sum("mem.l2TargetStalls"),
         "count"},
        {"dram.legacy_ns_per_req",
         ratio(k.legacyS * ns, static_cast<double>(k.legacyReqs)), "ns/req"},
        {"dram.ddr4_ns_per_req",
         ratio(k.ddr4S * ns, static_cast<double>(k.ddr4Reqs)), "ns/req"},
        {"dram.transfers", sum("dram.transfers"), "count"},
        {"dram.idle_frac", ratio(sum("dram.contentionIdleCycles"), contention),
         "frac"},
        {"dram.row_hit_frac",
         ratio(sum("dram.rowHits"),
               sum("dram.rowHits") + sum("dram.rowConflicts")),
         "frac"},
        {"dram.demand_stall_cycles", sum("dram.contentionDemandStallCycles"),
         "count"},
        {"dram.refreshes", sum("dram.refreshes"), "count"},
        {"dram.host_ns_per_transfer",
         ratio(loop_s * ns, static_cast<double>(transfers_traced)),
         "ns/transfer"},
        {"prefetch.queue_ns_per_op",
         ratio(k.queueS * ns, static_cast<double>(k.queueOps)), "ns/op"},
        {"prefetch.issued", sum("mem.prefetchesIssued"), "count"},
        {"prefetch.useful", sum("mem.usefulPrefetches"), "count"},
        {"prefetch.accuracy",
         ratio(sum("mem.usefulPrefetches"), sum("mem.prefetchFills")),
         "frac"},
        {"prefetch.coverage",
         coverage.empty()
             ? 0.0
             : std::accumulate(coverage.begin(), coverage.end(), 0.0) /
                   static_cast<double>(coverage.size()),
         "frac"},
        {"prefetch.queue_high_water", maxOf("regionQueue.occupancyHighWater"),
         "count"},
        {"core.lines_scanned", sum("grpEngine.linesScanned"), "count"},
        {"cpu.cycles", cycles, "count"},
        {"cpu.ipc_geomean", ipcs.empty() ? 0.0 : grp::geometricMean(ipcs),
         "inst/cycle"},
        {"cpu.mem_stalls", sum("cpu.memStalls"), "count"},
        {"cpu.rob_full_stalls", sum("cpu.robFullStalls"), "count"},
        {"adaptive.epochs", sum("adaptive.epochs"), "count"},
        {"adaptive.transitions",
         sum("adaptive.transitionsSize") + sum("adaptive.transitionsInsert") +
             sum("adaptive.transitionsPriority") +
             sum("adaptive.transitionsDepth"),
         "count"},
        {"obs.trace_records", static_cast<double>(trace_records), "count"},
        {"obs.trace_bytes_per_rec",
         ratio(static_cast<double>(trace_bytes),
               static_cast<double>(trace_records)),
         "B/rec"},
        {"obs.pulse_beats", static_cast<double>(pulse_beats), "count"},
        {"bench.trace_overhead_frac",
         ratio(median(traced), median(untraced)) - 1.0, "frac"},
    };
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: grpbench --workload paper-grid|cold-observed "
                 "--seed N --seconds S --trace 0|1 [--workers K]\n");
}

bool
parseUint(const char *text, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0, seconds = 0, trace = 0, workers = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    // Exports and spans go under the working directory, which the
    // benchmark runs from: the root of the checkout.
    const std::string work_dir = ".bench_work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            ok = have_seed = parseUint(val, seed);
        else if (arg == "--seconds")
            ok = have_seconds = parseUint(val, seconds);
        else if (arg == "--trace")
            ok = have_trace = parseUint(val, trace) && trace <= 1;
        else if (arg == "--workers")
            ok = parseUint(val, workers) && workers >= 1;
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "grpbench: bad argument %s %s\n",
                         arg.c_str(), val);
            usage();
            return 2;
        }
    }
    WorkloadSpec spec;
    if (!have_seed || !have_seconds || !have_trace ||
        !makeSpec(workload, seed, spec)) {
        usage();
        return 2;
    }
    if (workers)
        spec.workers = static_cast<unsigned>(workers);
    grp::setQuiet(true);
    std::error_code ec;
    std::filesystem::create_directories(work_dir, ec);
    if (ec) {
        std::fprintf(stderr, "grpbench: cannot create %s: %s\n",
                     work_dir.c_str(), ec.message().c_str());
        return 2;
    }

    // Per-run export tree, removed when the run ends.
    const std::string exports_root = work_dir + "/exports-" + spec.name +
                                     "-seed" + std::to_string(seed);
    std::filesystem::remove_all(exports_root, ec);

    std::printf("grpbench workload=%s seed=%" PRIu64 " seconds=%" PRIu64
                " trace=%" PRIu64 " jobs=%zu\n",
                spec.name.c_str(), seed, seconds, trace, spec.jobs.size());
    printProvenance(spec, seed, trace != 0);

    // Rounds until the time is up; traced runs alternate untraced
    // and traced rounds so the overhead compares like with like.
    SpanRecorder off(false), on(trace != 0);
    std::vector<Round> rounds;
    const int64_t start = nowNs();
    for (size_t i = 0;; ++i) {
        const bool traced = trace && i % 2 == 1;
        const std::string export_dir =
            exports_root + "/round" + std::to_string(i);
        std::filesystem::create_directories(export_dir, ec);
        if (ec) {
            std::fprintf(stderr, "grpbench: cannot create %s: %s\n",
                         export_dir.c_str(), ec.message().c_str());
            return 2;
        }
        rounds.push_back(runRound(spec, traced ? on : off, export_dir));
        std::printf("round %zu%s: wall %.4f s, setup %.4f s, %.2f Minst/s\n",
                    i, traced ? " (traced)" : "", rounds.back().wallS,
                    rounds.back().setupS,
                    simMinstPerSec(rounds.back().simInstructions,
                                   rounds.back().wallS,
                                   rounds.back().setupS));
        const size_t done = rounds.size();
        const bool pair_done = !trace || done % 2 == 0;
        if (pair_done &&
            secondsBetween(start, nowNs()) >= static_cast<double>(seconds))
            break;
    }
    // Determinism: every round must reproduce round 0 exactly, the
    // traced ones included.
    const Round &r0 = rounds.front();
    for (size_t i = 0; i < r0.outcomes.size(); ++i)
        std::printf("digest %s %016" PRIx64 "\n",
                    r0.outcomes[i].label.c_str(), r0.digests[i]);
    const uint64_t all = digestOfDigests(r0.digests);
    std::printf("digest-all %016" PRIx64 "\n", all);
    for (size_t ri = 0; ri < rounds.size(); ++ri)
        std::printf("digest-round %zu %s %016" PRIx64 "\n", ri,
                    rounds[ri].traced ? "traced" : "untraced",
                    digestOfDigests(rounds[ri].digests));

    size_t attempted = 0, failed = 0;
    for (size_t ri = 0; ri < rounds.size(); ++ri) {
        Round &r = rounds[ri];
        for (size_t i = 0; i < r.outcomes.size(); ++i) {
            if (r.digests[i] != r0.digests[i])
                r.extras[i].problems.push_back(
                    "stats digest differs from round 0");
            ++attempted;
            if (!r.extras[i].problems.empty()) {
                ++failed;
                for (const std::string &p : r.extras[i].problems)
                    std::printf("FAIL round %zu %s: %s\n", ri,
                                r.outcomes[i].label.c_str(), p.c_str());
            }
        }
        ++attempted;
        if (r.peakRssMb <= 0.0) {
            std::printf("FAIL round %zu: cannot read the peak RSS (VmHWM "
                        "after /proc/self/clear_refs)\n", ri);
            ++failed;
        }
    }

    std::vector<Metric> metrics;
    if (trace) {
        // One kernel pass per workload, over the longest stream any
        // of its first instance's jobs consumed.
        std::map<std::string, uint64_t> stream_ops;
        for (size_t i = 0; i < spec.jobs.size(); ++i) {
            uint64_t &ops = stream_ops[spec.jobs[i].instance()];
            ops = std::max(ops, r0.extras[i].opsRecorded);
        }
        KernelTimes kernels;
        {
            std::set<std::string> seen;
            SpanRecorder::Scope kernel_span(on, "kernels", 0);
            for (const JobSpec &job : spec.jobs) {
                if (!seen.insert(job.workload).second)
                    continue;
                std::string error;
                ++attempted;
                if (!runKernels(job.workload, job.seed,
                                stream_ops[job.instance()], on,
                                kernel_span.id(), kernels, error)) {
                    std::printf("FAIL kernels: %s\n", error.c_str());
                    ++failed;
                }
            }
        }
        metrics = perLayer(spec, rounds, kernels);
        const std::string spans_path =
            work_dir + "/spans-" + spec.name + "-seed" +
            std::to_string(seed) + ".jsonl";
        ++attempted;
        if (!on.writeJsonl(spans_path)) {
            std::printf("FAIL cannot write %s\n", spans_path.c_str());
            ++failed;
        }
        std::printf("spans %s (%zu spans)\n", spans_path.c_str(),
                    on.spans().size());
    } else {
        metrics = endToEnd(spec, rounds);
    }

    std::filesystem::remove_all(exports_root, ec);
    for (const Metric &m : metrics)
        std::printf("metric %-28s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    grp::obs::JsonWriter json(os, false);
    json.beginObject();
    json.kv("correct", failed == 0);
    json.kv("attempted", static_cast<uint64_t>(attempted));
    json.kv("failed", static_cast<uint64_t>(failed));
    json.key("metrics");
    json.beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name);
        json.beginObject();
        json.kv("value", m.value);
        json.kv("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
