/** @file Tests for the .grpbin binary flight-recorder container:
 *  write/decode fidelity over every record type, checkpoint-seek
 *  query equivalence against a full scan, the distinct
 *  truncated/unfinalized error reporting, and a seeded corruption
 *  sweep over the lifecycle decoder. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/bintrace.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

/** Run one traced simulation; returns the trace path. */
std::string
runTraced(const char *name, int level, uint64_t checkpoint_interval = 0)
{
    setQuiet(true);
    const std::string path = tempPath(name);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 60'000;
    opts.obs.tracePath = path;
    opts.obs.traceLevel = level;
    if (checkpoint_interval)
        obs::Tracer::instance().setCheckpointInterval(
            checkpoint_interval);
    runWorkload("mcf", config, opts);
    if (checkpoint_interval)
        obs::Tracer::instance().setCheckpointInterval(
            obs::bintrace::kDefaultCheckpointInterval);
    return path;
}

/** Every event type once, plus field-presence variations:
 *  addresses that jump backwards (zigzag deltas), the None hint
 *  (omitted field), carry flags, large extras and sites. */
const std::vector<obs::TraceRecord> kAllRecords = {
    {obs::TraceEvent::HintTrigger, 0x40000000, obs::HintClass::Spatial,
     -1, -1, false, 3},
    {obs::TraceEvent::Enqueue, 0x40000000, obs::HintClass::Spatial, -1,
     63, false, 3},
    {obs::TraceEvent::Drop, 0x3f000000, obs::HintClass::Pointer, -1, 8,
     false, kInvalidRefId},
    {obs::TraceEvent::Issue, 0x40000040, obs::HintClass::Recursive, 2,
     1, false, 7},
    {obs::TraceEvent::Stall, 0, obs::HintClass::None, -1, -1, false,
     kInvalidRefId},
    {obs::TraceEvent::Filtered, 0x40000080, obs::HintClass::Indirect,
     -1, -1, false, 12345},
    {obs::TraceEvent::Fill, 0x40000040, obs::HintClass::Stride, 1, -1,
     true, kInvalidRefId},
    {obs::TraceEvent::FirstUse, 0x40000040, obs::HintClass::None, -1,
     900, false, 7},
    {obs::TraceEvent::EvictedUnused, 0x10, obs::HintClass::Spatial, -1,
     -1, false, kInvalidRefId},
    {obs::TraceEvent::EvictVictim, 0xdeadbeef00, obs::HintClass::Pointer,
     -1, -1, false, 9},
    {obs::TraceEvent::PollutionMiss, 0xdeadbeef00,
     obs::HintClass::Pointer, -1, -1, false, 9},
    {obs::TraceEvent::CtrlTransition, 0, obs::HintClass::Spatial, 2, 1,
     false, kInvalidRefId},
};
/** Ticks exercise dt = 0 runs and large jumps. */
const uint64_t kAllTicks[] = {0,    0,    5,     5,     5,      1000,
                              1000, 1000, 99999, 99999, 100000, 1u << 20};
/** Records before this index are written in the warmup era. */
constexpr size_t kWarmRecords = 6;

/** Hand-drive the Tracer over kAllRecords so every event type and
 *  field combination is covered regardless of what a simulation
 *  happens to emit; returns the trace path. */
std::string
writeAllRecordTypes(const char *name)
{
    const std::string path = tempPath(name);
    obs::Tracer &tracer = obs::Tracer::instance();
    EXPECT_TRUE(tracer.open(path)) << "open failed";
    tracer.setLevel(3);
    EventQueue clock;
    tracer.setClock(&clock);
    tracer.setWarmup(true);
    for (size_t i = 0; i < kAllRecords.size(); ++i) {
        clock.advanceTo(kAllTicks[i]);
        if (i == kWarmRecords)
            tracer.setWarmup(false);
        tracer.record(kAllRecords[i]);
    }
    tracer.setClock(nullptr);
    tracer.close();
    return path;
}

TEST(Bintrace, VarintRoundTrip)
{
    for (uint64_t value :
         {0ull, 1ull, 127ull, 128ull, 300ull, (1ull << 32),
          ~0ull, (1ull << 63)}) {
        uint8_t buf[10];
        const size_t n = obs::bintrace::putVarint(buf, value);
        ASSERT_LE(n, 10u);
        const uint8_t *p = buf;
        uint64_t back = 0;
        ASSERT_TRUE(obs::bintrace::readVarint(p, buf + n, back));
        EXPECT_EQ(back, value);
        EXPECT_EQ(p, buf + n);
    }
}

TEST(Bintrace, ZigzagRoundTrip)
{
    const uint64_t deltas[] = {0,          1,         ~0ull /* -1 */,
                               64,         (uint64_t)-64,
                               1ull << 40, (uint64_t)-(1ll << 40)};
    for (uint64_t delta : deltas) {
        EXPECT_EQ(obs::bintrace::unzigzag(obs::bintrace::zigzag(delta)),
                  delta);
    }
    // Small magnitudes stay small on the wire.
    EXPECT_LE(obs::bintrace::zigzag((uint64_t)-2), 4u);
}

TEST(Bintrace, AllRecordTypesFieldEqual)
{
    const obs::TraceParseResult bin =
        obs::readTraceFile(writeAllRecordTypes("grp_bt_all.grpbin"));

    EXPECT_TRUE(bin.binary);
    EXPECT_FALSE(bin.truncated);
    EXPECT_TRUE(bin.errors.empty());
    ASSERT_EQ(bin.lines.size(), kAllRecords.size()); // One per event.

    for (size_t i = 0; i < bin.lines.size(); ++i) {
        const obs::TraceRecord &rec = kAllRecords[i];
        const obs::TraceLine &line = bin.lines[i];
        EXPECT_EQ(line.t, kAllTicks[i]) << i;
        EXPECT_EQ(line.event, rec.event) << i;
        EXPECT_EQ(line.addr, rec.addr) << i;
        EXPECT_EQ(line.hint, rec.hint) << i;
        EXPECT_EQ(line.channel, rec.channel) << i;
        EXPECT_EQ(line.extra, rec.extra) << i;
        EXPECT_EQ(line.site, rec.site == kInvalidRefId
                                 ? -1
                                 : static_cast<int64_t>(rec.site))
            << i;
        EXPECT_EQ(line.warm, i < kWarmRecords) << i;
        EXPECT_EQ(line.carry, rec.carryover) << i;
    }
}

TEST(Bintrace, AnalysisOfASimulationIsClean)
{
    // The real emitters, not hand-built records: a level-2 grp-var
    // trace decodes without errors, passes every lifecycle invariant
    // and has the right shape (queue events present, no stalls).
    const obs::TraceParseResult parsed =
        obs::readTraceFile(runTraced("grp_bt_an.grpbin", 2));
    EXPECT_TRUE(parsed.binary);
    EXPECT_TRUE(parsed.errors.empty());
    ASSERT_FALSE(parsed.lines.empty());
    const obs::TraceAnalysis analysis = obs::analyzeTrace(parsed.lines);
    EXPECT_TRUE(analysis.violations.empty())
        << analysis.violations.front().message;
    EXPECT_TRUE(analysis.coverageChecked);
    EXPECT_EQ(analysis.records, parsed.lines.size());
    uint64_t fills = 0;
    for (const auto &[hint, funnel] : analysis.byClass)
        fills += funnel.fills;
    EXPECT_GT(fills, 0u);
}

TEST(Bintrace, QuerySeekMatchesFullScan)
{
    // A small checkpoint interval guarantees several checkpoints
    // even in a short run.
    const std::string bin = runTraced("grp_bt_seek.grpbin", 2, 256);
    const std::string data = slurp(bin);

    obs::bintrace::Container container;
    ASSERT_TRUE(
        obs::bintrace::parseContainer(data, container, nullptr));
    ASSERT_TRUE(container.finalized);
    ASSERT_GT(container.checkpoints.size(), 1u);

    // Query the second half of the tick range, every event type.
    const obs::TraceParseResult all = obs::readTraceFile(bin);
    ASSERT_FALSE(all.lines.empty());
    obs::bintrace::QueryFilter filter;
    filter.fromTick = all.lines[all.lines.size() / 2].t;

    const obs::bintrace::QueryResult indexed =
        obs::bintrace::query(data, filter, true);
    const obs::bintrace::QueryResult scanned =
        obs::bintrace::query(data, filter, false);

    EXPECT_TRUE(indexed.seeked);
    EXPECT_FALSE(scanned.seeked);
    EXPECT_LT(indexed.recordsScanned, scanned.recordsScanned);
    ASSERT_EQ(indexed.lines.size(), scanned.lines.size());
    for (size_t i = 0; i < indexed.lines.size(); ++i) {
        EXPECT_EQ(obs::jsonlLine(indexed.lines[i]),
                  obs::jsonlLine(scanned.lines[i]))
            << i;
    }
}

TEST(Bintrace, QueryFiltersSiteAndEvent)
{
    const std::string bin =
        runTraced("grp_bt_filter.grpbin", 2);
    const std::string data = slurp(bin);

    obs::bintrace::QueryFilter filter;
    filter.event = obs::TraceEvent::Fill;
    const obs::bintrace::QueryResult fills =
        obs::bintrace::query(data, filter, true);
    ASSERT_FALSE(fills.lines.empty());
    for (const obs::TraceLine &line : fills.lines)
        EXPECT_EQ(line.event, obs::TraceEvent::Fill);

    // Cross-check the count against a full parse.
    const obs::TraceParseResult all = obs::readTraceFile(bin);
    size_t expected = 0;
    for (const obs::TraceLine &line : all.lines)
        expected += line.event == obs::TraceEvent::Fill;
    EXPECT_EQ(fills.lines.size(), expected);
}

TEST(Bintrace, TruncatedFileReportsDistinctError)
{
    const std::string bin =
        runTraced("grp_bt_trunc.grpbin", 1);
    const std::string data = slurp(bin);
    ASSERT_GT(data.size(), 400u);

    // Chop the trailer + some records off: the reader must flag
    // truncation distinctly while still scanning the prefix.
    const std::string damaged = data.substr(0, data.size() - 200);
    const obs::TraceParseResult parsed = obs::readTraceData(damaged);
    EXPECT_TRUE(parsed.binary);
    EXPECT_TRUE(parsed.truncated);
    EXPECT_FALSE(parsed.lines.empty());
    ASSERT_FALSE(parsed.errors.empty());
    EXPECT_NE(parsed.errors.back().find("truncated or unfinalized"),
              std::string::npos);

    // The intact file parses clean.
    const obs::TraceParseResult intact = obs::readTraceData(data);
    EXPECT_FALSE(intact.truncated);
    EXPECT_TRUE(intact.errors.empty());

    // A truncated prefix holds a prefix of the intact lines.
    ASSERT_LT(parsed.lines.size(), intact.lines.size());
    for (size_t i = 0; i < parsed.lines.size(); ++i) {
        EXPECT_EQ(obs::jsonlLine(parsed.lines[i]),
                  obs::jsonlLine(intact.lines[i]))
            << i;
    }
}

TEST(Bintrace, StdoutSinkProducesFinalizedContainer)
{
    // "-" streams to stdout; redirect fd 1 to a file and check the
    // container still carries its finalize footer (piped consumers
    // must see a complete document).
    const std::string path = tempPath("grp_bt_stdout.grpbin");
    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);
    ASSERT_GE(saved, 0);
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_GE(dup2(fd, STDOUT_FILENO), 0);
    ::close(fd);

    obs::Tracer &tracer = obs::Tracer::instance();
    const bool opened = tracer.open("-");
    if (opened) {
        tracer.setLevel(1);
        tracer.record({obs::TraceEvent::Issue, 0x1000,
                       obs::HintClass::Spatial, 0, -1, false, 1});
        tracer.record({obs::TraceEvent::Fill, 0x1000,
                       obs::HintClass::Spatial, -1, -1, false, 1});
        tracer.close();
    }
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    ::close(saved);
    ASSERT_TRUE(opened);

    const obs::TraceParseResult parsed = obs::readTraceFile(path);
    EXPECT_TRUE(parsed.binary);
    EXPECT_FALSE(parsed.truncated);
    ASSERT_EQ(parsed.lines.size(), 2u);
    EXPECT_EQ(parsed.lines[1].event, obs::TraceEvent::Fill);
}

TEST(Bintrace, CrashSafetyPublishesOnlyOnClose)
{
    // While the sink is open, only "<path>.tmp" exists; close()
    // finalizes and renames. A reader therefore never sees a partial
    // file at the published path.
    const std::string path = tempPath("grp_bt_crash.grpbin");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    obs::Tracer &tracer = obs::Tracer::instance();
    ASSERT_TRUE(tracer.open(path));
    tracer.setLevel(1);
    for (uint32_t i = 0; i < 100; ++i) {
        tracer.record({obs::TraceEvent::Issue, 0x1000 + 64ull * i,
                       obs::HintClass::Spatial, 0, -1, false, 1});
    }
    EXPECT_FALSE(std::ifstream(path).is_open())
        << "trace published before finalize";
    EXPECT_TRUE(std::ifstream(path + ".tmp").is_open())
        << "no .tmp while the sink is open";
    tracer.close();
    EXPECT_TRUE(std::ifstream(path).is_open());
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());

    const obs::TraceParseResult parsed = obs::readTraceFile(path);
    EXPECT_FALSE(parsed.truncated);
    EXPECT_EQ(parsed.lines.size(), 100u);
}

TEST(Bintrace, BinaryTenfoldSmallerThanItsJsonlView)
{
    const std::string bin = runTraced("grp_bt_size.grpbin", 2);
    const obs::TraceParseResult parsed = obs::readTraceFile(bin);
    size_t jsonl_size = 0;
    for (const obs::TraceLine &line : parsed.lines)
        jsonl_size += obs::jsonlLine(line).size();
    const size_t bin_size = slurp(bin).size();
    ASSERT_GT(jsonl_size, 0u);
    ASSERT_GT(bin_size, 0u);
    // The reason the binary container is the one trace format.
    EXPECT_GE(jsonl_size, 10u * bin_size)
        << jsonl_size << " vs " << bin_size;
}

/** Re-encode @p data's footer with @p refs as its checkpoint
 *  directory (totals and trailer rebuilt to stay consistent). */
std::string
withDirectory(const std::string &data,
              const obs::bintrace::Container &container,
              const std::vector<obs::bintrace::CheckpointRef> &refs)
{
    std::string out = data.substr(0, container.footerOffset);
    const auto put = [&out](uint64_t value) {
        uint8_t buf[10];
        const size_t n = obs::bintrace::putVarint(buf, value);
        out.append(reinterpret_cast<const char *>(buf), n);
    };
    out.push_back(static_cast<char>(obs::bintrace::kFooterTag));
    put(refs.size());
    for (const obs::bintrace::CheckpointRef &ref : refs) {
        put(ref.offset);
        put(ref.key);
        put(ref.recordIndex);
    }
    put(container.totalRecords);
    put(container.finalKey);
    const uint64_t footer = container.footerOffset;
    out.append(reinterpret_cast<const char *>(&footer), 8);
    out.append(obs::bintrace::kEndMagic, 4);
    return out;
}

TEST(Bintrace, DirectoryEntriesMustNameCheckpoints)
{
    const std::string data =
        slurp(runTraced("grp_bt_dir.grpbin", 2, 256));
    obs::bintrace::Container container;
    ASSERT_TRUE(
        obs::bintrace::parseContainer(data, container, nullptr));
    ASSERT_TRUE(container.finalized);
    ASSERT_GT(container.checkpoints.size(), 1u);
    // The re-encoder reproduces the writer's footer byte for byte.
    ASSERT_EQ(withDirectory(data, container, container.checkpoints),
              data);

    obs::bintrace::QueryFilter window;
    window.fromTick = container.finalKey;
    // An entry pointing into the header, at a record instead of a
    // checkpoint, past the footer, or at the far end of the address
    // space leaves the container unfinalized: no seek, truncated.
    for (const uint64_t offset :
         {uint64_t{1}, container.bodyOffset + 1,
          uint64_t{container.footerOffset}, ~uint64_t{0}}) {
        std::vector<obs::bintrace::CheckpointRef> refs =
            container.checkpoints;
        refs.back().offset = offset;
        const std::string mutant = withDirectory(data, container, refs);
        obs::bintrace::Container damaged;
        ASSERT_TRUE(
            obs::bintrace::parseContainer(mutant, damaged, nullptr));
        EXPECT_FALSE(damaged.finalized) << offset;
        const obs::bintrace::QueryResult result =
            obs::bintrace::query(mutant, window, true);
        EXPECT_FALSE(result.seeked) << offset;
        EXPECT_TRUE(result.truncated) << offset;
    }
}

/** A decode that reports no damage. */
template <typename Result>
bool
clean(const Result &result)
{
    return result.errors.empty() && !result.truncated;
}

TEST(BintraceFuzz, CorruptedLifecycleTracesDecodeSafely)
{
    // A level-2 trace with a checkpoint every 64 records, so damage
    // lands in records, checkpoints, the footer directory and the
    // trailer alike.
    const std::string data =
        slurp(runTraced("grp_bt_fuzz.grpbin", 2, 64));
    obs::bintrace::Container container;
    ASSERT_TRUE(
        obs::bintrace::parseContainer(data, container, nullptr));
    ASSERT_TRUE(container.finalized);
    ASSERT_GT(container.checkpoints.size(), 4u);
    const std::vector<obs::TraceLine> lines =
        obs::readTraceData(data).lines;
    const size_t records = lines.size();
    ASSERT_EQ(records, container.totalRecords);

    // A window over the middle third: the indexed query seeks.
    obs::bintrace::QueryFilter window;
    window.fromTick = lines[lines.size() / 3].t;
    window.toTick = lines[2 * lines.size() / 3].t;
    ASSERT_TRUE(obs::bintrace::query(data, window, true).seeked);

    // Every mutant must decode without crashing (the sanitizer builds
    // catch out-of-bounds reads and UB). A cut file is always
    // reported as damaged. Any other mutant either reports damage or
    // decodes exactly the record count the footer lists: a stray
    // footer tag, a broken record or a bad checkpoint directory
    // cannot pass as a shorter clean trace. A flipped bit inside an
    // address, channel, extra or site value, or after the last
    // checkpoint, can: the v1 container has no checksum (tick and tag
    // damage before a checkpoint is pinned below).
    size_t mutants = 0;
    const auto check = [&](const std::string &mutant, bool cut) {
        ++mutants;
        const obs::TraceParseResult parsed = obs::readTraceData(mutant);
        const obs::bintrace::QueryResult indexed =
            obs::bintrace::query(mutant, window, true);
        const obs::bintrace::QueryResult scanned =
            obs::bintrace::query(mutant, window, false);
        if (cut) {
            EXPECT_FALSE(clean(parsed)) << "cut at " << mutant.size();
            EXPECT_FALSE(clean(indexed)) << "cut at " << mutant.size();
            EXPECT_FALSE(clean(scanned)) << "cut at " << mutant.size();
        } else if (clean(parsed)) {
            EXPECT_EQ(parsed.lines.size(), records)
                << "mutant " << mutants;
        }
        for (const obs::bintrace::QueryResult *q :
             {&indexed, &scanned}) {
            for (const obs::TraceLine &line : q->lines) {
                EXPECT_GE(line.t, *window.fromTick);
                EXPECT_LE(line.t, *window.toTick);
            }
        }
    };

    std::mt19937_64 rng(20030609);
    const auto pick = [&rng](size_t n) {
        return static_cast<size_t>(rng() % n);
    };
    const size_t footer = container.footerOffset;

    // Cuts: every length through the header and through the footer
    // directory and trailer, plus random lengths.
    for (size_t len = 0; len <= container.bodyOffset; ++len)
        check(data.substr(0, len), true);
    for (size_t len = footer; len < data.size(); ++len)
        check(data.substr(0, len), true);
    for (int i = 0; i < 300; ++i)
        check(data.substr(0, pick(data.size())), true);

    // Single-bit flips: every bit of the fixed header, of the trailer
    // and of each checkpoint tag, then random positions in the
    // footer directory and anywhere.
    std::vector<size_t> positions;
    for (size_t i = 0; i < 8; ++i)
        positions.push_back(i);
    for (size_t i = data.size() - obs::bintrace::kTrailerBytes;
         i < data.size(); ++i)
        positions.push_back(i);
    for (const obs::bintrace::CheckpointRef &ref :
         container.checkpoints)
        positions.push_back(ref.offset);
    const auto flip = [&](size_t pos, int bit) {
        std::string mutant = data;
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << bit));
        check(mutant, false);
    };
    for (size_t pos : positions) {
        for (int bit = 0; bit < 8; ++bit)
            flip(pos, bit);
    }
    for (int i = 0; i < 300; ++i)
        flip(footer + pick(data.size() - footer), static_cast<int>(pick(8)));
    for (int i = 0; i < 900; ++i)
        flip(pick(data.size()), static_cast<int>(pick(8)));

    // 0xFF runs: stray footer tags and maximal varint continuations.
    for (int i = 0; i < 600; ++i) {
        std::string mutant = data;
        const size_t pos = pick(data.size());
        const size_t len = std::min(1 + pick(16), data.size() - pos);
        std::fill_n(mutant.begin() + static_cast<std::ptrdiff_t>(pos),
                    len, '\xff');
        check(mutant, false);
    }
    EXPECT_GT(mutants, 2500u);

    // Each checkpoint re-states the clock, the record count, the warm
    // count and the per-event counts, so damage to a record's tick
    // delta or tag byte before a checkpoint no longer decodes clean.
    // Walk the body for each record's tag and delta offsets.
    struct RecordBytes
    {
        size_t tag = 0;
        size_t delta = 0;
        size_t deltaBytes = 0;
    };
    std::vector<RecordBytes> guarded;
    const size_t last_checkpoint = container.checkpoints.back().offset;
    const uint8_t *base = reinterpret_cast<const uint8_t *>(data.data());
    const uint8_t *p = base + container.bodyOffset;
    while (static_cast<size_t>(p - base) < last_checkpoint) {
        uint64_t value = 0;
        const size_t tag_at = static_cast<size_t>(p - base);
        if (*p++ == obs::bintrace::kCheckpointTag) {
            uint64_t counts = 0;
            for (int i = 0; i < 3; ++i) {
                ASSERT_TRUE(
                    obs::bintrace::readVarint(p, p + 10, value));
            }
            ASSERT_TRUE(obs::bintrace::readVarint(p, p + 10, counts));
            for (uint64_t i = 0; i < counts; ++i) {
                ASSERT_TRUE(
                    obs::bintrace::readVarint(p, p + 10, value));
            }
            continue;
        }
        const uint8_t flags = *p++;
        RecordBytes rec;
        rec.tag = tag_at;
        rec.delta = static_cast<size_t>(p - base);
        ASSERT_TRUE(obs::bintrace::readVarint(p, p + 10, value));
        rec.deltaBytes = static_cast<size_t>(p - base) - rec.delta;
        for (uint8_t field : {obs::bintrace::kHasAddr,
                              obs::bintrace::kHasChannel,
                              obs::bintrace::kHasExtra,
                              obs::bintrace::kHasSite}) {
            if (flags & field) {
                ASSERT_TRUE(
                    obs::bintrace::readVarint(p, p + 10, value));
            }
        }
        guarded.push_back(rec);
    }
    ASSERT_GT(guarded.size(), 200u);
    size_t guarded_mutants = 0;
    const auto expect_damaged = [&](size_t pos, int bit) {
        std::string mutant = data;
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << bit));
        ++guarded_mutants;
        EXPECT_FALSE(clean(obs::readTraceData(mutant)))
            << "bit " << bit << " at byte " << pos;
    };
    for (int i = 0; i < 200; ++i) {
        const RecordBytes &rec = guarded[pick(guarded.size())];
        for (int bit = 0; bit < 8; ++bit)
            expect_damaged(rec.tag, bit);
        for (size_t byte = 0; byte < rec.deltaBytes; ++byte) {
            for (int bit = 0; bit < 8; ++bit)
                expect_damaged(rec.delta + byte, bit);
        }
    }
    EXPECT_GT(guarded_mutants, 3000u);
}

} // namespace
} // namespace grp
