/**
 * @file
 * In-memory sweep replay: the shared once-per-(workload, seed,
 * policy) run context that lets a bench sweep re-drive every scheme
 * point from one recorded access stream.
 *
 * A sweep's grid typically crosses a handful of workloads with many
 * scheme/perfection points, and at bench-sized instruction windows
 * the per-job cost is dominated by setup — Workload::build populating
 * functional memory, the compiler pipeline, and interpreter-driven op
 * generation — all of which are pure functions of (workload, seed,
 * policy) and independent of the simulated hardware configuration.
 * SweepRecording computes each of them exactly once and shares the
 * results across every job in the grid:
 *
 *  - the built Program and FunctionalMemory (read-only after build:
 *    the interpreter and the prefetch engines only ever read values,
 *    so concurrent jobs can share one copy),
 *  - the hint table and static hint statistics for the recording's
 *    compiler policy,
 *  - the dynamic access stream, recorded lazily from one interpreter
 *    and replayed to every job through cheap cursor TraceSources.
 *
 * The stream is stored run-length packed, on --capture's model
 * (AccessTag::ComputeRun): two thirds of dynamic ops are compute
 * padding, so each fixed 16-byte record holds one memory op plus the
 * count of compute ops before it, and a pure-compute record covers a
 * long run or the stream's trailing run. The rare indirect-prefetch
 * operands (base, elemSize) live in a side vector. Readers expand
 * records back into a small TraceOp buffer of their own.
 *
 * The stream is scheme-independent (IndirectPrefetch ops are always
 * emitted; the CPU filters them by scheme), so one recording drives
 * the whole grid, exactly like an on-disk --capture/--replay pair —
 * but with no file, no serialization, and shared setup. Jobs pulling
 * past the recorded end extend the recording on demand under a lock;
 * replayed results are byte-identical to interpreter-driven runs at
 * any thread count because the recorded stream is deterministic.
 */

#ifndef GRP_HARNESS_REPLAY_HH
#define GRP_HARNESS_REPLAY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/hint_generator.hh"
#include "compiler/ir.hh"
#include "core/hint_table.hh"
#include "cpu/trace.hh"
#include "mem/functional_memory.hh"
#include "sim/config.hh"

namespace grp
{

/**
 * A run-length-packed op stream: ops append at the end and expand
 * back, element for element, through Cursors. Records live in chunks
 * that never move; a per-chunk start index lets seek() land
 * mid-stream without decoding from op 0. Not thread-safe:
 * SweepRecording serializes every call under its lock.
 */
class PackedOpStream
{
  public:
    /** A read position; default-constructed it is op 0. */
    struct Cursor
    {
        uint64_t pos = 0;  ///< Absolute position of the next op.
        size_t record = 0; ///< Record holding that op.
        uint32_t done = 0; ///< Ops of that record already expanded.
        size_t side = 0;   ///< Side entry of the next indirect op.
    };

    /** Append one op. A compute op only extends the open run, which
     *  is packed by the next memory op, by finish(), or when it fills
     *  a record's count field. */
    void append(const TraceOp &op);

    /** End of stream: pack the open compute run. */
    void finish();

    /** Ops covered by packed records (not the open run). */
    uint64_t ops() const { return ops_; }

    /** Bytes of record chunks and side entries allocated. */
    uint64_t bytes() const;

    /** Point @p cur at op @p pos (at most ops()), scanning at most
     *  one chunk's records. */
    void seek(Cursor &cur, uint64_t pos) const;

    /** Expand up to @p max ops at @p cur into @p out, advancing
     *  @p cur; returns the count, 0 at ops(). */
    size_t expand(Cursor &cur, TraceOp *out, size_t max) const;

  private:
    /** A memory op after computeBefore compute ops; kind Compute
     *  marks a pure run of computeBefore compute ops. */
    struct Record
    {
        Addr addr;
        RefId refId;
        uint16_t computeBefore;
        OpKind kind;
    };
    static_assert(sizeof(Record) == 16);

    /** IndirectPrefetch operands, in stream order. */
    struct Side
    {
        Addr base;
        uint32_t elemSize;
    };

    /** A chunk's first op and first side entry. */
    struct ChunkStart
    {
        uint64_t op;
        size_t side;
    };

    static constexpr size_t kChunkRecords = 4096;

    static uint32_t opsIn(const Record &record);
    void push(const Record &record);
    const Record &
    record(size_t index) const
    {
        return chunks_[index / kChunkRecords][index % kChunkRecords];
    }

    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::vector<ChunkStart> starts_;
    std::vector<Side> side_;
    size_t records_ = 0;
    uint64_t ops_ = 0;
    uint64_t openRun_ = 0; ///< Compute ops appended but not packed.
};

/** Shared workload context + recorded access stream for one
 *  (workload, seed, l2 size) sweep key. The op stream is also
 *  compiler-policy-independent — only the policy-blind IR transform
 *  (HintGenerator::transform) writes the Program — so one recording
 *  drives a policy sweep too; per-policy hint tables build lazily on
 *  the side. Thread-safe: any number of sweep jobs may read
 *  concurrently. */
class SweepRecording
{
  public:
    /**
     * Declare the recording's key. Construction is cheap: the
     * workload build, compiler pipeline and interpreter are created
     * lazily by the first accessor, so recordings can be handed out
     * while a bench queues jobs and the (one-time) setup cost lands
     * on whichever worker thread first needs it.
     *
     * @param l2_bytes L2 capacity the compiler pipeline targets; part
     *        of the key because reuse-distance analysis depends on it.
     */
    SweepRecording(std::string workload, uint64_t seed,
                   uint64_t l2_bytes);

    SweepRecording(const SweepRecording &) = delete;
    SweepRecording &operator=(const SweepRecording &) = delete;

    const std::string &workload() const { return workload_; }
    uint64_t seed() const { return seed_; }
    uint64_t l2Bytes() const { return l2Bytes_; }

    /** The shared functional memory (builds on first use). Read-only
     *  by contract: nothing writes functional memory after
     *  Workload::build, which is what makes sharing sound. */
    FunctionalMemory &memory();

    /** Hint table for @p policy (builds on first use; cached per
     *  policy so a policy sweep pays each analysis once). */
    const HintTable &hints(CompilerPolicy policy);

    /** Static compiler statistics for @p policy (Table 3 row; builds
     *  with the table on first use). */
    const HintStats &hintStats(CompilerPolicy policy);

    /**
     * A cursor over the recorded stream, replaying it op-for-op from
     * the beginning. Each job gets its own reader; readers share the
     * recording through @p self and extend it on demand when they
     * pull past the recorded end. A reader's batches live in its own
     * small buffer and stay valid until its next next()/nextBatch().
     */
    static std::unique_ptr<TraceSource>
    makeReader(std::shared_ptr<SweepRecording> self);

    /**
     * Expand a span of the recorded stream starting at absolute
     * position @p begin, generating more ops from the interpreter if
     * the recording is shorter. Sets @p *ops and returns the run
     * length (0 only at end of stream). The span lives in a
     * per-thread buffer: it stays valid until this thread's next
     * fetchSpan call, on any recording. A call that begins where the
     * previous one on this recording ended costs O(span); any other
     * position seeks from its chunk's start. (Jobs use makeReader;
     * exposed for tests and benchmarks.)
     */
    size_t fetchSpan(uint64_t begin, const TraceOp **ops);

    /** Ops recorded so far (monotone; for tests/telemetry). */
    uint64_t opsRecorded() const;

  private:
    void ensureBuilt();

    /** One policy's lazily built analysis products. */
    struct PolicyHints
    {
        HintTable table;
        HintStats stats;
        std::once_flag once;
    };
    PolicyHints &policyHints(CompilerPolicy policy);

    const std::string workload_;
    const uint64_t seed_;
    const uint64_t l2Bytes_;

    std::once_flag buildOnce_;
    FunctionalMemory fmem_;
    /** The built program: the per-policy hint analyses run on it
     *  lazily (the interpreter holds its own decoded copy). */
    std::optional<Program> prog_;
    /** HintGenerator::transform's indirect count (feeds every
     *  policy's stats row). */
    unsigned indirect_ = 0;
    /** Per-policy hint tables, built on first request. Guarded by
     *  hintsMu_ for the map itself; each entry's once flag serializes
     *  its build. Entries are stable (std::map) so returned
     *  references outlive later insertions. */
    std::map<int, PolicyHints> hintsByPolicy_;
    std::mutex hintsMu_;
    std::unique_ptr<TraceSource> source_;

    class Reader;
    /** Ops one expansion hands out: 8 KB of TraceOps, L1-resident. */
    static constexpr size_t kBatchOps = 256;

    /** Under one lock: extend the recording to cover @p begin +
     *  kBatchOps ops (or to its end), seek @p cur to @p begin if it
     *  is elsewhere, and expand up to kBatchOps ops into @p out. */
    size_t read(PackedOpStream::Cursor &cur, uint64_t begin,
                TraceOp *out);

    mutable std::mutex mu_;
    PackedOpStream stream_;  ///< The recorded stream (guarded by mu_).
    PackedOpStream::Cursor spanCursor_; ///< fetchSpan's (guarded by mu_).
    bool exhausted_ = false; ///< source_ returned end-of-trace.
};

} // namespace grp

#endif // GRP_HARNESS_REPLAY_HH
