/**
 * @file
 * Sweep-executor tests: the determinism invariant (parallel results
 * are exactly the serial results), shared in-memory recordings
 * reproducing standalone runs and the interpreter's op stream, the
 * recording's run-length packing, outcome ordering, exception
 * capture, and concurrent StatRegistry isolation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compiler/hint_generator.hh"
#include "harness/replay.hh"
#include "harness/suite.hh"
#include "harness/sweep.hh"
#include "mem/cache.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{
namespace
{

RunOptions
quickOptions()
{
    RunOptions opts;
    opts.maxInstructions = 30'000;
    opts.warmupInstructions = 7'500;
    return opts;
}

std::vector<SweepJob>
fourJobs()
{
    const RunOptions opts = quickOptions();
    std::vector<SweepJob> jobs;
    const struct
    {
        const char *workload;
        PrefetchScheme scheme;
    } grid[] = {
        {"gzip", PrefetchScheme::None},
        {"mcf", PrefetchScheme::Srp},
        {"equake", PrefetchScheme::GrpVar},
        {"twolf", PrefetchScheme::Stride},
    };
    for (const auto &cell : grid) {
        jobs.push_back(SweepJob{
            std::string(cell.workload) + "/" + toString(cell.scheme),
            [workload = std::string(cell.workload),
             scheme = cell.scheme, opts] {
                SimConfig config;
                config.scheme = scheme;
                return runWorkload(workload, config, opts);
            }});
    }
    return jobs;
}

void
expectResultsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses);
    EXPECT_EQ(a.l2MissesTotal, b.l2MissesTotal);
    EXPECT_EQ(a.l2MissesToMemory, b.l2MissesToMemory);
    EXPECT_EQ(a.prefetchFills, b.prefetchFills);
    EXPECT_EQ(a.usefulPrefetches, b.usefulPrefetches);
    EXPECT_EQ(a.warmupUsefulPrefetches, b.warmupUsefulPrefetches);
    EXPECT_EQ(a.regionSizes, b.regionSizes);
    EXPECT_EQ(a.hints.spatial, b.hints.spatial);
    EXPECT_EQ(a.hints.pointer, b.hints.pointer);
    EXPECT_EQ(a.hints.recursive, b.hints.recursive);
    EXPECT_EQ(a.hints.indirect, b.hints.indirect);
    // Every counter the simulation registered, not just the headline
    // scalars: any cross-job interference shows up here first.
    EXPECT_EQ(a.stats.counters, b.stats.counters);
    ASSERT_EQ(a.stats.distributions.size(),
              b.stats.distributions.size());
    auto bit = b.stats.distributions.begin();
    for (const auto &[name, dist] : a.stats.distributions) {
        EXPECT_EQ(name, bit->first);
        EXPECT_EQ(dist.samples, bit->second.samples);
        EXPECT_EQ(dist.sum, bit->second.sum);
        EXPECT_EQ(dist.mean, bit->second.mean);
        EXPECT_EQ(dist.maxValue, bit->second.maxValue);
        EXPECT_EQ(dist.p50, bit->second.p50);
        EXPECT_EQ(dist.p90, bit->second.p90);
        EXPECT_EQ(dist.p99, bit->second.p99);
        ++bit;
    }
}

TEST(Sweep, ParallelMatchesSerialExactly)
{
    setQuiet(true);
    const std::vector<SweepOutcome> serial = runSweep(fourJobs(), 1);
    const std::vector<SweepOutcome> parallel =
        runSweep(fourJobs(), 4);

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), 4u);
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].label);
        EXPECT_FALSE(serial[i].failed) << serial[i].error;
        EXPECT_FALSE(parallel[i].failed) << parallel[i].error;
        EXPECT_EQ(serial[i].label, parallel[i].label);
        expectResultsEqual(serial[i].result, parallel[i].result);
    }
}

// The adaptive controller reads only per-run state, so a GrpAdaptive
// sweep must stay bit-identical at any thread count — including the
// controller's own stat group (epochs, transitions, time-in-state).
TEST(Sweep, AdaptiveSchemeIsDeterministicAcrossThreadCounts)
{
    setQuiet(true);
    const RunOptions opts = quickOptions();
    auto jobs = [&] {
        std::vector<SweepJob> out;
        for (const char *workload : {"mcf", "equake", "twolf"}) {
            out.push_back(SweepJob{
                std::string(workload) + "/grp-adaptive",
                [workload = std::string(workload), opts] {
                    SimConfig config;
                    config.scheme = PrefetchScheme::GrpAdaptive;
                    // Small epochs so the controller actually steps
                    // within the short test window.
                    config.adaptive.epochCycles = 512;
                    return runWorkload(workload, config, opts);
                }});
        }
        return out;
    };

    const std::vector<SweepOutcome> serial = runSweep(jobs(), 1);
    const std::vector<SweepOutcome> parallel = runSweep(jobs(), 4);
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].label);
        EXPECT_FALSE(serial[i].failed) << serial[i].error;
        EXPECT_FALSE(parallel[i].failed) << parallel[i].error;
        expectResultsEqual(serial[i].result, parallel[i].result);
        // The run exercised the controller, not just carried it.
        EXPECT_GT(serial[i].result.stats.value("adaptive.epochs"), 0u);
    }
}

// Jobs sharing one in-memory SweepRecording per workload (what
// BenchSweep hands its grid jobs) must reproduce standalone runs
// stat for stat, including under a non-default compiler policy,
// whose hint table the recording builds lazily beside the default.
TEST(Sweep, SharedRecordingMatchesStandaloneRuns)
{
    setQuiet(true);
    const struct
    {
        const char *workload;
        PrefetchScheme scheme;
        CompilerPolicy policy;
    } grid[] = {
        {"mcf", PrefetchScheme::None, CompilerPolicy::Default},
        {"mcf", PrefetchScheme::GrpVar, CompilerPolicy::Default},
        {"swim", PrefetchScheme::None, CompilerPolicy::Default},
        {"swim", PrefetchScheme::GrpVar, CompilerPolicy::Default},
        {"swim", PrefetchScheme::GrpVar, CompilerPolicy::Aggressive},
    };
    std::map<std::string, std::shared_ptr<SweepRecording>> recordings;
    auto jobs = [&](bool shared) {
        std::vector<SweepJob> out;
        for (const auto &cell : grid) {
            RunOptions opts = quickOptions();
            if (shared) {
                std::shared_ptr<SweepRecording> &rec =
                    recordings[cell.workload];
                if (!rec)
                    rec = std::make_shared<SweepRecording>(
                        cell.workload, opts.seed,
                        SimConfig{}.l2.sizeBytes);
                opts.recording = rec;
            }
            out.push_back(SweepJob{
                std::string(cell.workload) + "/" +
                    toString(cell.scheme) + "/" + toString(cell.policy),
                [workload = std::string(cell.workload),
                 scheme = cell.scheme, policy = cell.policy, opts] {
                    return runScheme(workload, scheme, opts, policy);
                }});
        }
        return out;
    };

    const std::vector<SweepOutcome> standalone = runSweep(jobs(false), 2);
    const std::vector<SweepOutcome> shared = runSweep(jobs(true), 2);
    ASSERT_EQ(standalone.size(), std::size(grid));
    ASSERT_EQ(shared.size(), std::size(grid));
    for (size_t i = 0; i < shared.size(); ++i) {
        SCOPED_TRACE(shared[i].label);
        EXPECT_FALSE(standalone[i].failed) << standalone[i].error;
        EXPECT_FALSE(shared[i].failed) << shared[i].error;
        expectResultsEqual(standalone[i].result, shared[i].result);
    }
    // Both recordings were really replayed from, and the policy
    // point saw its own hint table, not the default one.
    ASSERT_EQ(recordings.size(), 2u);
    for (const auto &[workload, rec] : recordings)
        EXPECT_GT(rec->opsRecorded(), 0u) << workload;
    EXPECT_NE(shared[4].result.hints.spatial,
              shared[3].result.hints.spatial);
}

/** The first @p ops ops makeTraceSource produces for @p workload:
 *  what a recording of the same key must replay. */
std::vector<TraceOp>
interpreterStream(const std::string &workload, uint64_t seed,
                  size_t ops)
{
    FunctionalMemory fmem;
    Program prog = makeWorkload(workload)->build(fmem, seed);
    HintGenerator::transform(prog);
    auto source = makeTraceSource(prog, fmem, seed);
    std::vector<TraceOp> out;
    out.reserve(ops);
    TraceOp op;
    while (out.size() < ops && source->next(op))
        out.push_back(op);
    return out;
}

/** Field-by-field equality of @p n ops against @p want from
 *  position @p begin; reports the first mismatch only. */
::testing::AssertionResult
sameOps(const TraceOp *got, size_t n, const std::vector<TraceOp> &want,
        uint64_t begin)
{
    if (begin + n > want.size())
        return ::testing::AssertionFailure()
               << "span [" << begin << ", " << begin + n
               << ") runs past the " << want.size() << "-op reference";
    for (size_t i = 0; i < n; ++i) {
        const TraceOp &a = got[i];
        const TraceOp &b = want[begin + i];
        if (a.kind != b.kind || a.refId != b.refId || a.addr != b.addr ||
            a.base != b.base || a.elemSize != b.elemSize)
            return ::testing::AssertionFailure()
                   << "op " << begin + i << ": kind "
                   << int(a.kind) << " vs " << int(b.kind) << ", refId "
                   << a.refId << " vs " << b.refId << ", addr " << a.addr
                   << " vs " << b.addr << ", base " << a.base << " vs "
                   << b.base << ", elemSize " << a.elemSize << " vs "
                   << b.elemSize;
    }
    return ::testing::AssertionSuccess();
}

/** Drain @p reader for @p want.size() ops, checking each batch. */
::testing::AssertionResult
readerMatches(TraceSource &reader, const std::vector<TraceOp> &want)
{
    uint64_t pos = 0;
    while (pos < want.size()) {
        const TraceOp *batch = nullptr;
        const size_t n = std::min<size_t>(reader.nextBatch(&batch),
                                          want.size() - pos);
        if (n == 0)
            return ::testing::AssertionFailure()
                   << "reader ended at op " << pos;
        auto same = sameOps(batch, n, want, pos);
        if (!same)
            return same;
        pos += n;
    }
    return ::testing::AssertionSuccess();
}

// Every recording replays makeTraceSource's stream element for
// element — through interleaved readers, concurrent readers and
// fetchSpan at any position — over paper-grid's 1M + 250k-op window,
// on every perfSuite workload (equake and vpr emit indirect ops).
// The packed recording also stays under 6 bytes per op overall.
TEST(Sweep, RecordingReplaysTheInterpreterStream)
{
    setQuiet(true);
    constexpr size_t kOps = 1'300'000;
    const uint64_t seed = RunOptions{}.seed;
    const uint64_t l2 = SimConfig{}.l2.sizeBytes;
    uint64_t bytes = 0, ops = 0;
    for (const std::string &workload : perfSuite()) {
        SCOPED_TRACE(workload);
        const std::vector<TraceOp> want =
            interpreterStream(workload, seed, kOps);
        ASSERT_EQ(want.size(), kOps);

        // Two threads reading a fresh recording, extending it (and
        // its chunk table) concurrently.
        auto rec = std::make_shared<SweepRecording>(workload, seed, l2);
        ::testing::AssertionResult results[2] = {
            ::testing::AssertionSuccess(),
            ::testing::AssertionSuccess()};
        std::thread threads[2];
        for (int t = 0; t < 2; ++t)
            threads[t] = std::thread([&, t] {
                auto reader = SweepRecording::makeReader(rec);
                results[t] = readerMatches(*reader, want);
            });
        for (std::thread &thread : threads)
            thread.join();
        EXPECT_TRUE(results[0]);
        EXPECT_TRUE(results[1]);

        // Two readers interleaved on one recording, one by batch and
        // one op at a time.
        auto batched = SweepRecording::makeReader(rec);
        auto single = SweepRecording::makeReader(rec);
        uint64_t at_batched = 0, at_single = 0;
        while (at_batched < kOps || at_single < kOps) {
            if (at_batched < kOps) {
                const TraceOp *batch = nullptr;
                const size_t n = std::min<size_t>(
                    batched->nextBatch(&batch), kOps - at_batched);
                ASSERT_GT(n, 0u);
                ASSERT_TRUE(sameOps(batch, n, want, at_batched));
                at_batched += n;
            }
            TraceOp ops_one_by_one[100];
            size_t n = 0;
            for (; n < 100 && at_single + n < kOps; ++n)
                ASSERT_TRUE(single->next(ops_one_by_one[n]));
            ASSERT_TRUE(sameOps(ops_one_by_one, n, want, at_single));
            at_single += n;
        }

        // fetchSpan: sequential slices, a restart at 0, and slices
        // beginning mid-stream (mid compute run or not).
        const TraceOp *span = nullptr;
        for (uint64_t pos = 0; pos < kOps;) {
            const size_t n = std::min<size_t>(rec->fetchSpan(pos, &span),
                                              kOps - pos);
            ASSERT_GT(n, 0u);
            ASSERT_TRUE(sameOps(span, n, want, pos));
            pos += n;
        }
        std::vector<uint64_t> starts = {0, 1, kOps - 300, 5};
        for (uint64_t pos = 7; pos < kOps; pos += 6151)
            starts.push_back(pos);
        // Just before indirect ops, whose operands a seek must find.
        for (uint64_t pos = 3; pos < kOps; pos += 97) {
            while (pos < kOps &&
                   want[pos].kind != OpKind::IndirectPrefetch)
                ++pos;
            starts.push_back(pos - 3);
        }
        for (uint64_t pos : starts) {
            const size_t n = std::min<size_t>(rec->fetchSpan(pos, &span),
                                              kOps - pos);
            ASSERT_GT(n, 0u) << pos;
            ASSERT_TRUE(sameOps(span, n, want, pos)) << pos;
        }
        PackedOpStream packed;
        for (const TraceOp &op : want)
            packed.append(op);
        bytes += packed.bytes();
        ops += packed.ops();
    }
    ASSERT_GT(ops, 0u);
    EXPECT_LE(double(bytes) / double(ops), 6.0)
        << bytes << " bytes for " << ops << " ops";
}

// Seek @p stream to each of @p starts and expand from there to the
// end of the stream, comparing every op with @p want.
::testing::AssertionResult
seeksMatch(const PackedOpStream &stream, const std::vector<TraceOp> &want,
           const std::vector<uint64_t> &starts)
{
    std::vector<TraceOp> out(64);
    for (uint64_t begin : starts) {
        PackedOpStream::Cursor cur;
        stream.seek(cur, begin);
        uint64_t pos = begin;
        while (size_t n = stream.expand(cur, out.data(), out.size())) {
            auto same = sameOps(out.data(), n, want, pos);
            if (!same)
                return same << " (seek to " << begin << ")";
            pos += n;
        }
        if (pos != want.size())
            return ::testing::AssertionFailure()
                   << "seek to " << begin << " ended at op " << pos
                   << " of " << want.size();
    }
    return ::testing::AssertionSuccess();
}

// The pack/expand helper on a synthetic stream: a compute run longer
// than a record's count field, indirect operands through the side
// vector, seeks across chunks, and a stream ending on compute ops.
TEST(Sweep, PackedStreamRoundTripsEdgeCases)
{
    std::vector<TraceOp> want;
    want.push_back(TraceOp::load(0x1000, 1));
    want.insert(want.end(), 150'000, TraceOp::compute());
    want.push_back(TraceOp::store(0x2000, 2));
    want.push_back(TraceOp::indirect(0x8000, 8, 0x3000, 3));
    want.insert(want.end(), 3, TraceOp::compute());
    want.push_back(TraceOp::indirect(0x9000, 24, 0x3008, 4));
    // Enough records for several chunks, with indirects throughout.
    for (uint32_t i = 0; i < 10'000; ++i) {
        want.insert(want.end(), i % 4, TraceOp::compute());
        want.push_back(i % 7 == 0
                           ? TraceOp::indirect(0xa000 + i, i, 8 * i, i)
                           : TraceOp::load(64 * i, i));
    }
    want.insert(want.end(), 70'000, TraceOp::compute());

    PackedOpStream stream;
    for (const TraceOp &op : want)
        stream.append(op);
    // The trailing run stays open until the end of the stream.
    EXPECT_LT(stream.ops(), want.size());
    stream.finish();
    ASSERT_EQ(stream.ops(), want.size());

    // Whole-stream expansion at several buffer sizes.
    for (size_t max : {size_t{1}, size_t{7}, size_t{256}, size_t{4096}}) {
        SCOPED_TRACE(max);
        std::vector<TraceOp> out(max);
        PackedOpStream::Cursor cur;
        uint64_t pos = 0;
        while (size_t n = stream.expand(cur, out.data(), max)) {
            ASSERT_TRUE(sameOps(out.data(), n, want, pos));
            pos += n;
            ASSERT_EQ(cur.pos, pos);
        }
        EXPECT_EQ(pos, want.size());
    }

    // Seeks land on any op, including run and chunk boundaries.
    std::vector<TraceOp> out(64);
    for (uint64_t pos :
         {uint64_t{0}, uint64_t{1}, uint64_t{65'535}, uint64_t{65'536},
          uint64_t{150'000}, uint64_t{150'001}, uint64_t{150'003},
          uint64_t{160'000}, uint64_t{170'123}, uint64_t{180'000},
          want.size() - 70'001, want.size() - 1}) {
        PackedOpStream::Cursor cur;
        stream.seek(cur, pos);
        const size_t n = stream.expand(cur, out.data(), out.size());
        ASSERT_EQ(n, std::min<uint64_t>(out.size(), want.size() - pos));
        EXPECT_TRUE(sameOps(out.data(), n, want, pos)) << pos;
    }
    PackedOpStream::Cursor end;
    stream.seek(end, want.size());
    EXPECT_EQ(stream.expand(end, out.data(), out.size()), 0u);

    // A stream that opens with an indirect op: a seek to 0 must start
    // at the first side entry.
    {
        std::vector<TraceOp> first = {
            TraceOp::indirect(0x100, 4, 0x4000, 1),
            TraceOp::compute(),
            TraceOp::indirect(0x200, 12, 0x4040, 2),
            TraceOp::load(0x5000, 3),
            TraceOp::indirect(0x300, 16, 0x4080, 4),
        };
        PackedOpStream packed;
        for (const TraceOp &op : first)
            packed.append(op);
        packed.finish();
        EXPECT_TRUE(seeksMatch(packed, first, {0, 1, 2, 3, 4}));
    }

    // Runs of indirect ops with distinct operands across several
    // chunks (PackedOpStream packs 4096 records per chunk), so every
    // chunk opens with an indirect op and a seek into any chunk must
    // pick up that op's own side entry.
    {
        constexpr size_t kChunkRecords = 4096;
        std::vector<TraceOp> run;
        std::vector<uint64_t> chunkStarts;
        for (uint32_t i = 0; i < 3 * kChunkRecords + 100; ++i) {
            if (i % kChunkRecords == 0)
                chunkStarts.push_back(run.size());
            run.insert(run.end(), i % 3, TraceOp::compute());
            run.push_back(
                TraceOp::indirect(0x10000 + 40 * i, 1 + i, 8 * i, i));
        }
        PackedOpStream packed;
        for (const TraceOp &op : run)
            packed.append(op);
        packed.finish();
        ASSERT_EQ(packed.ops(), run.size());
        std::vector<uint64_t> starts;
        for (uint64_t pos : chunkStarts) {
            starts.push_back(pos);
            starts.push_back(pos + 1);
            if (pos != 0)
                starts.push_back(pos - 1);
        }
        EXPECT_TRUE(seeksMatch(packed, run, starts));
    }
}

TEST(Sweep, OutcomesKeepSubmissionOrder)
{
    setQuiet(true);
    const std::vector<SweepOutcome> outcomes =
        runSweep(fourJobs(), 4);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(outcomes[0].result.workload, "gzip");
    EXPECT_EQ(outcomes[1].result.workload, "mcf");
    EXPECT_EQ(outcomes[2].result.workload, "equake");
    EXPECT_EQ(outcomes[3].result.workload, "twolf");
    for (const SweepOutcome &outcome : outcomes)
        EXPECT_GE(outcome.wallSeconds, 0.0);
}

TEST(Sweep, CapturesExceptionsPerJob)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob{"ok", [] { return RunResult{}; }});
    jobs.push_back(SweepJob{"throws", []() -> RunResult {
                                throw std::runtime_error("boom");
                            }});
    jobs.push_back(SweepJob{"ok2", [] { return RunResult{}; }});

    for (unsigned threads : {1u, 3u}) {
        const std::vector<SweepOutcome> outcomes =
            runSweep(jobs, threads);
        ASSERT_EQ(outcomes.size(), 3u);
        EXPECT_FALSE(outcomes[0].failed);
        EXPECT_TRUE(outcomes[1].failed);
        EXPECT_EQ(outcomes[1].error, "boom");
        EXPECT_FALSE(outcomes[2].failed);
    }
}

TEST(Sweep, DefaultThreadsHonoursEnvironment)
{
    char saved[64] = {0};
    if (const char *old = getenv("GRP_BENCH_THREADS"))
        snprintf(saved, sizeof(saved), "%s", old);

    setenv("GRP_BENCH_THREADS", "3", 1);
    EXPECT_EQ(defaultSweepThreads(), 3u);
    setenv("GRP_BENCH_THREADS", "0", 1);
    EXPECT_GE(defaultSweepThreads(), 1u);
    unsetenv("GRP_BENCH_THREADS");
    EXPECT_GE(defaultSweepThreads(), 1u);

    if (saved[0])
        setenv("GRP_BENCH_THREADS", saved, 1);
}

// Two registries on one thread: components registered explicitly
// into each must not cross-talk — the property the singleton removal
// bought.
TEST(Sweep, ConcurrentRegistriesAreIsolated)
{
    obs::StatRegistry first, second;
    CacheConfig config{16 * 1024, 2, 3, 4, 4};
    Cache cache_a(config, "cache", false, first);
    Cache cache_b(config, "cache", false, second);

    cache_a.insert(0x1000, false, false);
    cache_a.access(0x1000, false);
    cache_b.insert(0x2000, false, false);

    EXPECT_EQ(first.value("cache.accesses"), 1u);
    EXPECT_EQ(second.value("cache.accesses"), 0u);
    EXPECT_EQ(first.value("cache.demandFills"), 1u);
    EXPECT_EQ(second.value("cache.demandFills"), 1u);
    EXPECT_EQ(first.size(), 1u);
    EXPECT_EQ(second.size(), 1u);

    // The thread default is a third, untouched registry.
    EXPECT_EQ(obs::StatRegistry::current().find("cache"), nullptr);
}

} // namespace
} // namespace grp
