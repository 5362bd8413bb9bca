/**
 * @file
 * Prefetch lifecycle tracing.
 *
 * A per-thread, low-overhead event sink that records each
 * prefetch's full arc as one JSON object per line (JSONL):
 * the hint class that triggered it, queue enqueue / drop, memory
 * channel issue vs. demand-priority stall, fill, and finally
 * first-use or evicted-unused. Per-hint-class accuracy and
 * prefetch-to-use distance distributions (the paper's Table 5
 * attribution claims) can be recomputed from a level-2 trace.
 *
 * Overhead control is two-layered:
 *  - Runtime: every emission site is guarded by a branch on the
 *    tracer's level; with tracing off (level 0, the default) the
 *    cost is one predictable compare per site.
 *  - Compile time: sites are emitted through the GRP_TRACE(level,
 *    ...) macro, which `if constexpr`-eliminates any site above
 *    GRP_TRACE_MAX_LEVEL. Building with -DGRP_TRACE_MAX_LEVEL=0
 *    compiles tracing out entirely.
 *
 * Event levels:
 *  1 — lifecycle: issue, fill, firstUse, evictedUnused
 *  2 — queue: hintTrigger, enqueue, drop, filtered; pollution
 *      attribution: evictVictim, pollutionMiss (shadow tags);
 *      adaptive controller knob moves: ctrlTransition
 *  3 — per-cycle: demand-priority / MSHR-reservation stalls
 */

#ifndef GRP_OBS_TRACE_HH
#define GRP_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace grp
{

class EventQueue;

namespace obs
{

namespace bintrace
{
class Writer;
}

/** On-disk encoding of a lifecycle trace. */
enum class TraceFormat : uint8_t
{
    Auto,   ///< By extension: ".grpbin" is binary, anything else JSONL.
    Jsonl,  ///< One JSON object per line (human-greppable).
    Binary, ///< .grpbin flight-recorder container (obs/bintrace).
};

/** Resolve Auto against @p path (see TraceFormat::Auto). */
TraceFormat resolveTraceFormat(const std::string &path,
                               TraceFormat requested);

/** The lifecycle .grpbin string tables: table 0 maps tag bytes to
 *  event names, table 1 maps hint indices to class names. */
std::vector<std::vector<std::string>> lifecycleTables();

/** Which prefetch source / hint class produced a candidate. */
enum class HintClass : uint8_t
{
    None = 0,  ///< No attribution (unhinted or unknown).
    Spatial,   ///< Spatial region (SRP region or `spatial` hint).
    Pointer,   ///< One-level pointer target.
    Recursive, ///< Recursive pointer chase target.
    Indirect,  ///< Indirect prefetch instruction target.
    Stride,    ///< Stride stream-buffer prefetch.
};

const char *toString(HintClass hint);

/** Lifecycle event types (see file comment for levels). */
enum class TraceEvent : uint8_t
{
    HintTrigger,   ///< An L2 miss reached an engine with its hints.
    Enqueue,       ///< A candidate window entered the prefetch queue.
    Drop,          ///< Queue overflow dropped a window's candidates.
    Issue,         ///< A prefetch request started on a DRAM channel.
    Stall,         ///< The prioritizer refused prefetches this cycle.
    Filtered,      ///< A candidate was already present / in flight.
    Fill,          ///< A prefetch fill completed into the L2.
    FirstUse,      ///< A demand first touched a prefetched block.
    EvictedUnused, ///< A prefetched block was evicted untouched.
    EvictVictim,   ///< A prefetch fill evicted a live L2 block; the
                   ///< record carries the victim address and the
                   ///< responsible prefetch's hint/site (shadow-tag
                   ///< pollution attribution, level 2).
    PollutionMiss, ///< A demand miss the shadow tags classify as
                   ///< prefetch-caused; hint/site name the charged
                   ///< prefetch when the victim table attributed it.
    CtrlTransition, ///< The adaptive controller moved a knob for a
                    ///< hint class (level 2). The record reuses the
                    ///< channel field for the knob id (0 region
                    ///< size, 1 insert position, 2 queue priority,
                    ///< 3 pointer depth) and extra for the new
                    ///< ladder level (0..2).
};

const char *toString(TraceEvent event);

/** Trace level of each event type. */
int traceLevelOf(TraceEvent event);

/** One trace emission. Fields with default values are omitted from
 *  the output line. */
struct TraceRecord
{
    TraceRecord(TraceEvent event_, Addr addr_ = 0,
                HintClass hint_ = HintClass::None, int channel_ = -1,
                int64_t extra_ = -1, bool carryover_ = false,
                RefId site_ = kInvalidRefId)
        : event(event_), addr(addr_), hint(hint_), channel(channel_),
          extra(extra_), carryover(carryover_), site(site_)
    {}

    TraceEvent event;
    Addr addr;
    HintClass hint;
    int channel;
    /** Event-specific payload: candidate count for Enqueue/Drop,
     *  pointer depth for Issue, fill-to-use cycles for FirstUse. */
    int64_t extra;
    /** The record is attributed to the warmup era (fills whose
     *  request predates the measurement boundary, and first-uses of
     *  such fills). */
    bool carryover;
    /** Static reference ("PC") the event is attributed to; omitted
     *  from the line when invalid (hardware-discovered targets). */
    RefId site;
};

/**
 * Render one record as the canonical JSONL trace line (including the
 * trailing newline). The Tracer's JSONL sink and the .grpbin-to-JSONL
 * converter both use this, so a converted binary trace is
 * byte-identical to a natively emitted one.
 *
 * @return Bytes written into @p buf (capacity @p cap).
 */
size_t formatTraceLine(char *buf, size_t cap, Tick tick,
                       const TraceRecord &rec, bool warm);

/** The per-thread trace sink (JSONL or .grpbin binary). */
class Tracer
{
  public:
    /**
     * The calling thread's tracer. Per-thread rather than
     * process-wide so concurrent sweep jobs (one job per pool
     * thread) trace independently; each run opens, flips and closes
     * its own sink through the runner's TraceObserver.
     */
    static Tracer &instance();

    Tracer() = default;
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Start writing to @p path; enables emission once a level > 0 is
     * set. Returns false when the file cannot be opened. The stream
     * gets a large (256 KB) output buffer so records pay one memcpy,
     * not one syscall, each.
     *
     * Crash safety: the trace is written to "<path>.tmp" and
     * published with one rename when close() finalizes it, like
     * every JSON artefact (obs/atomic_file) — readers never see a
     * partial file at @p path, and a crashed run leaves only the
     * .tmp behind. The sentinel path "-" streams to stdout instead
     * (no rename; binary streams still carry their footer, so a
     * piped consumer sees a finalized container).
     */
    bool open(const std::string &path,
              TraceFormat format = TraceFormat::Auto);

    /** Flush, finalize (binary footer), close and publish the sink;
     *  tracing reverts to disabled. Also runs on destruction, so
     *  buffered records are never lost. */
    void close();

    /** Records between binary checkpoints for subsequently opened
     *  sinks (0 disables checkpoints; default 8192). */
    void setCheckpointInterval(uint64_t records)
    {
        checkpointInterval_ = records;
    }

    void setLevel(int level) { level_ = level; }
    int level() const { return level_; }

    /** Cycle source for timestamps (cleared with nullptr). */
    void setClock(const EventQueue *events) { clock_ = events; }

    /** Mark records as warmup-era until flipped (the harness flips
     *  this at the measurement boundary). */
    void setWarmup(bool warmup) { warmup_ = warmup; }

    /** Cheap per-site guard: a sink is open and @p lvl is enabled. */
    bool
    enabled(int lvl) const
    {
        return out_ != nullptr && lvl <= level_;
    }

    /** Emit one record (caller must have checked enabled()). */
    void record(const TraceRecord &rec);

    uint64_t recordsWritten() const { return records_; }

  private:
    /** stdio stream buffer size; large enough that --trace runs do
     *  a filesystem write every few thousand records, not every
     *  record. */
    static constexpr size_t kStreamBufBytes = 256 * 1024;

    std::FILE *out_ = nullptr;
    /** Backing storage handed to setvbuf(); must outlive out_. */
    std::unique_ptr<char[]> iobuf_;
    /** Binary encoder when format_ == Binary (owns no stream). */
    std::unique_ptr<bintrace::Writer> bin_;
    TraceFormat format_ = TraceFormat::Jsonl;
    /** Writing to stdout ("-"): flush instead of close + publish. */
    bool toStdout_ = false;
    /** Publication target; the open stream writes publishPath_+".tmp". */
    std::string publishPath_;
    uint64_t checkpointInterval_ = 8192;
    int level_ = 0;
    const EventQueue *clock_ = nullptr;
    bool warmup_ = false;
    uint64_t records_ = 0;
};

} // namespace obs
} // namespace grp

/** Highest trace level compiled into the binary; 0 removes every
 *  emission site. */
#ifndef GRP_TRACE_MAX_LEVEL
#define GRP_TRACE_MAX_LEVEL 3
#endif

/** Emit a TraceRecord at @p lvl; compiled out above
 *  GRP_TRACE_MAX_LEVEL, a single branch when tracing is off. */
#define GRP_TRACE(lvl, ...)                                           \
    do {                                                              \
        if constexpr ((lvl) <= GRP_TRACE_MAX_LEVEL) {                 \
            ::grp::obs::Tracer &tracer_ =                             \
                ::grp::obs::Tracer::instance();                       \
            if (tracer_.enabled(lvl))                                 \
                tracer_.record(::grp::obs::TraceRecord(__VA_ARGS__)); \
        }                                                             \
    } while (0)

#endif // GRP_OBS_TRACE_HH
