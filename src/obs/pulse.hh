/**
 * @file
 * Live run telemetry: progress pulses for long simulations.
 *
 * Every other observability surface in this repo (stats exports,
 * traces, site profiles, the host profiler) materialises after a run
 * finishes — a paper-scale 200M-instruction job is a black box while
 * it runs, and a killed job yields nothing. The pulse subsystem fixes
 * both: the harness periodically snapshots a small fixed set of key
 * rates (instructions, cycles, host inst/s, prefetch
 * issued/fill/useful/pollution deltas, prefetch-queue occupancy, DRAM
 * idle fraction) and appends one self-contained JSONL record per beat
 * to a pulse sidecar that `examples/grpmon` can tail while the run is
 * alive.
 *
 * Beats are instruction-count-driven (every N simulated instructions;
 * N defaults to ~1% of the run's budget) with a wall-clock floor: a
 * run that stops retiring instructions still beats every
 * `wallFloorMillis`, which is what lets the stall watchdog flag
 * zero-progress beats and sustained inst/s collapses as `warn`
 * records instead of going silent exactly when monitoring matters
 * most.
 *
 * Crash-safety has two layers, mirroring the trace sinks:
 *  - while the run is live, records are appended and flushed one
 *    complete line at a time, so a tailing reader sees only whole
 *    records and a `kill -9` leaves a readable prefix;
 *  - on clean close the whole stream plus a final `seal` record is
 *    republished through the atomic_file tmp+rename discipline, so
 *    the sealed artefact at the published path is always complete.
 * A stream without a seal record is a *distinct, detectable*
 * condition (`analyzePulse` reports Truncated), exactly like an
 * unfinalized `.grpbin` trace.
 *
 * Multiplexing: a PulseSink is thread-safe and can carry many runs —
 * the sweep executor points every job's meter at one shared sink
 * (`PulseSink::process()`, configured by $GRP_PULSE), each record
 * tagged with its job id, so a whole bench sweep becomes one
 * monitorable stream. Sequence numbers and monotonic timestamps are
 * assigned under the sink lock and are therefore strictly monotone
 * across the whole stream regardless of job interleaving.
 *
 * Record schema (`grp-pulse-v1`, one JSON object per line; `job`
 * appears only in multiplexed streams):
 *
 *   {"ev":"start","schema":"grp-pulse-v1","seq":0,"tMonoNs":...,
 *    "job":...,"workload":"mcf","scheme":"grp-var","seed":42,
 *    "targetInstructions":250000,"intervalInstructions":2500,
 *    "wallFloorMillis":250,"pid":1234}
 *   {"ev":"beat","seq":1,"tMonoNs":...,"instructions":...,
 *    "cycles":...,"instPerSec":...,"dInstructions":...,"dCycles":...,
 *    "issued":...,"fills":...,"useful":...,"pollution":...,
 *    "dIssued":...,"dFills":...,"dUseful":...,"dPollution":...,
 *    "queueDepth":...,"queueOccupancy":0.09,"dramIdleFrac":0.71}
 *   {"ev":"warn","kind":"stall"|"slowdown","seq":...,...}
 *   {"ev":"jobEnd","seq":...,"job":...,"partial":false,...}
 *   {"ev":"seal","seq":...,"beats":N,"warnings":K,"partial":false,
 *    "reason":"completed"|"interrupted"|"exit"}
 */

#ifndef GRP_OBS_PULSE_HH
#define GRP_OBS_PULSE_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/run_observer.hh"

namespace grp
{
namespace obs
{

class JsonWriter;

/** @name Clean-stop request (SIGINT/SIGTERM plumbing).
 *  The signal handler calls requestStop() (async-signal-safe); the
 *  run's PulseMeter polls stopRequested() every 16384 cycles and the
 *  harness winds the run down through the normal export path with a
 *  partial marker, instead of losing everything. */
///@{
void requestStop();
bool stopRequested();
void clearStopRequest();
///@}

/** The sweep executor labels each worker's current job here
 *  (thread-local), so the runner's pulse meter can tag records with
 *  the human-readable job id ("mcf/GrpVar"). Empty when the thread
 *  is not running a sweep job. */
void setPulseJobLabel(std::string label);
const std::string &pulseJobLabel();

/**
 * One pulse stream: an append-only JSONL sidecar shared by any
 * number of concurrently-running meters. All methods are
 * thread-safe; record order, sequence numbers and timestamps are
 * serialised by one lock (beats are rare — contention is not a
 * concern).
 */
class PulseSink
{
  public:
    enum class Record { Start, Beat, Warn, JobEnd };

    /** Open @p path for live appending (truncates a leftover file
     *  from an earlier run). ok() reports failure; a failed sink
     *  swallows appends, so callers need no error paths. */
    explicit PulseSink(std::string path);

    /** Seals with reason "exit" when nobody sealed explicitly (the
     *  process-wide $GRP_PULSE sink closes this way). */
    ~PulseSink();

    PulseSink(const PulseSink &) = delete;
    PulseSink &operator=(const PulseSink &) = delete;

    bool ok() const { return ok_; }
    const std::string &path() const { return path_; }

    /**
     * Append one record: "{"ev":...,"seq":N,"tMonoNs":T, <fields>}".
     * @p fields fills the record's payload into an already-open
     * object (the sink writes ev/seq/tMonoNs first and closes the
     * object after). No-op after seal().
     */
    void append(Record kind,
                const std::function<void(JsonWriter &)> &fields);

    /**
     * Write the final seal record and republish the complete stream
     * atomically (tmp + rename). @p fields may add payload (final
     * instruction totals); beats/warnings counts are the sink's own.
     * Idempotent — only the first seal wins.
     */
    void seal(bool partial, const char *reason,
              const std::function<void(JsonWriter &)> &fields = {});

    /** Nanoseconds since the sink opened (the stream's monotonic
     *  clock). */
    uint64_t monotonicNanos() const;

    /**
     * The process-wide sink configured by $GRP_PULSE (empty/unset →
     * nullptr). Lets whole bench sweeps pulse without flag plumbing,
     * exactly like GRP_TRACE_ALL forces tracing. Sealed at process
     * exit; a killed process leaves a readable, detectably-unsealed
     * stream.
     */
    static const std::shared_ptr<PulseSink> &process();

  private:
    std::string path_;
    std::ofstream live_;
    bool ok_ = false;
    mutable std::mutex mutex_;
    uint64_t nextSeq_ = 0;
    uint64_t beats_ = 0;
    uint64_t warnings_ = 0;
    bool sealed_ = false;
    std::vector<std::string> lines_; ///< For the atomic final seal.
    uint64_t epochNanos_ = 0;        ///< steady_clock at open.
};

/** Everything one beat snapshots; the harness fills it from the
 *  run's registry/engine/DRAM state. All counters cumulative —
 *  the meter derives the deltas (tolerating the warmup-boundary
 *  counter reset). */
struct PulseSample
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t prefetchesIssued = 0;
    uint64_t prefetchFills = 0;
    uint64_t usefulPrefetches = 0;
    uint64_t pollutionMisses = 0; ///< 0 unless shadow tags are on.
    uint64_t queueDepth = 0;
    uint64_t queueCapacity = 0;   ///< 0 when the engine has no queue.
    uint64_t dramIdleCycles = 0;  ///< Cumulative, all channels.
    uint64_t dramTotalCycles = 0; ///< Cumulative accounted cycles.
};

/** Static identity of the run a meter describes (the start
 *  record). */
struct PulseRunMeta
{
    std::string job;      ///< Empty outside multiplexed streams.
    std::string workload;
    std::string scheme;
    uint64_t seed = 0;
    /** warmup + measured instructions — the denominator grpmon's
     *  progress/ETA uses. */
    uint64_t targetInstructions = 0;
};

/**
 * Per-run beat cadence + watchdog, a run-loop observer for the
 * duration of one runWorkload() call: the instruction trigger is its
 * retire mark, and its deadline is a poll on the last tick of every
 * 16384-cycle block that reads the clock for the wall-clock floor
 * and the clean-stop flag. A meter without a sink only polls, so
 * SIGINT winds a run down cleanly with telemetry off.
 */
class PulseMeter : public RunObserver
{
  public:
    /** Emits the start record. @p owns_sink: true when the sink
     *  carries only this run (finish() seals it); false for a shared
     *  multiplexed sink (finish() emits a jobEnd record instead).
     *  @p sampler snapshots the run for the observer hooks. */
    PulseMeter(std::shared_ptr<PulseSink> sink, bool owns_sink,
               PulseConfig config, PulseRunMeta meta,
               std::function<PulseSample()> sampler = {});

    /** The instruction-count trigger. */
    bool
    due(uint64_t instructions) const
    {
        return instructions >= nextBeatInstructions_;
    }

    Tick nextDeadline(Tick now) const override { return now | 0x3FFF; }
    bool onDeadline(Tick now) override;
    uint64_t
    nextRetireMark() const override
    {
        return sink_ ? nextBeatInstructions_ : kNoRetireMark;
    }
    void onRetireMark() override { beat(sampler_()); }
    void onFinish(bool partial) override;

    /** Emit one beat record and run the watchdog over it. */
    void beat(const PulseSample &sample);

    /** Final accounting: emits a last beat when progress happened
     *  since the previous one, then seals the owned sink (or emits
     *  jobEnd on a shared one) with the partial marker. */
    void finish(const PulseSample &sample, bool partial,
                const char *reason);

    uint64_t warnings() const { return warnings_; }
    uint64_t intervalInstructions() const { return interval_; }

  private:
    void emitBeat(const PulseSample &sample, uint64_t nowNanos);

    std::shared_ptr<PulseSink> sink_;
    std::function<PulseSample()> sampler_;
    bool ownsSink_;
    PulseConfig config_;
    PulseRunMeta meta_;
    uint64_t interval_ = 0;
    uint64_t nextBeatInstructions_ = 0;
    uint64_t lastBeatNanos_ = 0;
    PulseSample prev_;
    bool finished_ = false;

    uint64_t beats_ = 0;
    uint64_t warnings_ = 0;
    double baselineInstPerSec_ = 0.0; ///< Rolling EMA of beat inst/s.
    unsigned stallStreak_ = 0;
    unsigned dropStreak_ = 0;
};

/** Offline verdict over a pulse stream (grpmon --check). Precedence:
 *  a structurally broken stream is Malformed even if also unsealed;
 *  an unsealed stream is Truncated; a sealed stream with warn
 *  records is Stalled; otherwise Healthy. A *partial* sealed stream
 *  (clean SIGINT stop) is still Healthy — partiality is reported
 *  separately. */
enum class PulseVerdict
{
    Healthy,
    Stalled,
    Truncated,
    Malformed,
};

const char *toString(PulseVerdict verdict);

/** Per-job rollup of a (possibly multiplexed) stream. */
struct PulseJobSummary
{
    std::string job;
    std::string workload;
    std::string scheme;
    uint64_t targetInstructions = 0;
    uint64_t instructions = 0; ///< Latest beat's cumulative count.
    uint64_t cycles = 0;
    uint64_t beats = 0;
    uint64_t warnings = 0;
    uint64_t lastSeq = 0;
    uint64_t lastBeatNanos = 0;
    double lastInstPerSec = 0.0;
    /** Host inst/s over the last few beats (ETA denominator). */
    double rollingInstPerSec = 0.0;
    double queueOccupancy = 0.0;
    double dramIdleFrac = 0.0;
    bool ended = false;
    bool partial = false;
};

/** What analyzePulse() found. */
struct PulseAnalysis
{
    PulseVerdict verdict = PulseVerdict::Healthy;
    /** Human-readable findings behind a non-Healthy verdict. */
    std::vector<std::string> problems;
    uint64_t records = 0;
    uint64_t beats = 0;
    uint64_t warnings = 0;
    bool sealed = false;
    bool partial = false;
    /** The last line did not parse — the torn tail of a live or
     *  killed writer (Truncated, not Malformed). */
    bool tornTail = false;
    std::map<std::string, PulseJobSummary> jobs;
};

/**
 * Validate and summarise a pulse stream: every line parses, `seq`
 * strictly increases, `tMonoNs` never decreases, per-job
 * instruction counters never decrease, nothing follows the seal.
 */
PulseAnalysis analyzePulse(std::istream &is);

} // namespace obs
} // namespace grp

#endif // GRP_OBS_PULSE_HH
