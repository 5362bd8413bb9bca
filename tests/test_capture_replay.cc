/** @file Tests for the access-stream capture/replay path
 *  (src/harness/capture): a same-config replay must reproduce the
 *  live run's memory-system behaviour exactly, damaged or mismatched
 *  captures must be rejected up front, and a capture from one scheme
 *  must be able to drive another (trace-driven scheme sweeps). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "obs/bintrace.hh"
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

RunOptions
baseOptions()
{
    setQuiet(true);
    RunOptions opts;
    opts.maxInstructions = 60'000;
    opts.seed = 7;
    return opts;
}

RunResult
runCaptured(const char *workload, PrefetchScheme scheme,
            const std::string &capture_path)
{
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts = baseOptions();
    opts.capturePath = capture_path;
    return runWorkload(workload, config, opts);
}

RunResult
runReplayed(const char *workload, PrefetchScheme scheme,
            const std::string &replay_path)
{
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts = baseOptions();
    opts.replayPath = replay_path;
    return runWorkload(workload, config, opts);
}

/** Counters under @p prefix from a snapshot, as one diffable map. */
std::map<std::string, uint64_t>
countersWithPrefix(const obs::StatSnapshot &stats,
                   const std::string &prefix)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : stats.counters) {
        if (name.rfind(prefix, 0) == 0)
            out.emplace(name, value);
    }
    return out;
}

TEST(CaptureReplay, CaptureProducesFinalizedAccessContainer)
{
    const std::string path = tempPath("grp_cap_basic.grpbin");
    const RunResult live =
        runCaptured("mcf", PrefetchScheme::GrpVar, path);
    ASSERT_GT(live.instructions, 0u);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    std::ostringstream text;
    text << is.rdbuf();
    const std::string data = text.str();

    obs::bintrace::Container container;
    std::string error;
    ASSERT_TRUE(obs::bintrace::parseContainer(data, container, &error))
        << error;
    EXPECT_EQ(container.kind, obs::bintrace::StreamKind::Access);
    EXPECT_TRUE(container.finalized);
    EXPECT_GT(container.totalRecords, 0u);
    ASSERT_TRUE(container.metaValue("workload").has_value());
    EXPECT_EQ(*container.metaValue("workload"), "mcf");
    ASSERT_TRUE(container.metaValue("seed").has_value());
    EXPECT_EQ(*container.metaValue("seed"), "7");
    // No .tmp left behind once the run closed the capture.
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());
}

TEST(CaptureReplay, SameConfigReplayIsExact)
{
    // The tentpole fidelity claim: replaying a capture under the
    // same (workload, scheme, seed) reproduces every mem.* and
    // cpu.* counter exactly, not approximately.
    const std::string path = tempPath("grp_cap_exact.grpbin");
    const RunResult live =
        runCaptured("mcf", PrefetchScheme::GrpVar, path);
    const RunResult replay =
        runReplayed("mcf", PrefetchScheme::GrpVar, path);

    EXPECT_EQ(live.instructions, replay.instructions);
    EXPECT_EQ(live.cycles, replay.cycles);
    EXPECT_EQ(live.l2MissesTotal, replay.l2MissesTotal);
    EXPECT_EQ(live.prefetchFills, replay.prefetchFills);
    EXPECT_EQ(live.usefulPrefetches, replay.usefulPrefetches);

    EXPECT_EQ(countersWithPrefix(live.stats, "mem."),
              countersWithPrefix(replay.stats, "mem."));
    EXPECT_EQ(countersWithPrefix(live.stats, "cpu."),
              countersWithPrefix(replay.stats, "cpu."));
}

TEST(CaptureReplay, ReplayIsDeterministic)
{
    // Two replays of the same capture agree with each other too.
    const std::string path = tempPath("grp_cap_det.grpbin");
    runCaptured("equake", PrefetchScheme::Srp, path);
    const RunResult a =
        runReplayed("equake", PrefetchScheme::Srp, path);
    const RunResult b =
        runReplayed("equake", PrefetchScheme::Srp, path);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(countersWithPrefix(a.stats, "mem."),
              countersWithPrefix(b.stats, "mem."));
}

TEST(CaptureReplay, CrossSchemeReplaySmoke)
{
    // The capture is scheme-independent (the interpreter emits every
    // op regardless; the CPU filters), so one recording can drive a
    // scheme sweep. Timing differs across schemes, so the consumer
    // may fetch one fewer op at the instruction-cap tail — this is a
    // smoke test, not an exactness test.
    const std::string path = tempPath("grp_cap_cross.grpbin");
    const RunResult live =
        runCaptured("mcf", PrefetchScheme::GrpVar, path);
    const RunResult replay =
        runReplayed("mcf", PrefetchScheme::Stride, path);
    EXPECT_GT(replay.instructions, 0u);
    // Within one op of the live run's retirement count.
    EXPECT_GE(replay.instructions + 1, live.instructions);
    EXPECT_NE(replay.scheme, live.scheme);
}

TEST(CaptureReplay, WorkloadMismatchIsFatal)
{
    const std::string path = tempPath("grp_cap_wl.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);
    EXPECT_THROW(runReplayed("equake", PrefetchScheme::GrpVar, path),
                 std::exception);
}

TEST(CaptureReplay, SeedMismatchIsFatal)
{
    const std::string path = tempPath("grp_cap_seed.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.seed = 8; // Capture was recorded with seed 7.
    opts.replayPath = path;
    EXPECT_THROW(runWorkload("mcf", config, opts), std::exception);
}

TEST(CaptureReplay, TruncatedCaptureIsFatal)
{
    const std::string path = tempPath("grp_cap_trunc.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    std::ostringstream text;
    text << is.rdbuf();
    const std::string data = text.str();
    ASSERT_GT(data.size(), 300u);

    const std::string damaged_path =
        tempPath("grp_cap_trunc_cut.grpbin");
    std::ofstream os(damaged_path, std::ios::binary);
    os.write(data.data(),
             static_cast<std::streamsize>(data.size() - 200));
    os.close();

    EXPECT_THROW(
        runReplayed("mcf", PrefetchScheme::GrpVar, damaged_path),
        std::exception);
}

TEST(CaptureReplay, MalformedSeedIsFatal)
{
    // A seed meta that is not a plain decimal must be refused, not
    // read as 0 and accepted by a seed-0 replay.
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.seed = 0;
    for (const char *seed : {"seven", "", "-1", " 0", "0x"}) {
        SCOPED_TRACE(seed);
        const std::string path = tempPath("grp_cap_badseed.grpbin");
        std::FILE *out = std::fopen(path.c_str(), "wb");
        ASSERT_NE(out, nullptr);
        {
            obs::bintrace::Writer writer(
                out, obs::bintrace::StreamKind::Access,
                {{"computeRun", "load", "store", "indirectPrefetch"}},
                {{"workload", "mcf"}, {"seed", seed}});
            const uint8_t run[] = {5};
            writer.rawRecord(0, run, sizeof(run), 5);
            writer.finalize();
        }
        std::fclose(out);
        opts.replayPath = path;
        EXPECT_THROW(runWorkload("mcf", config, opts), std::exception);
    }
}

TEST(CaptureReplay, LifecycleTraceIsNotAReplaySource)
{
    // A kind-0 lifecycle trace must be rejected as a replay input
    // with a fatal, not misdecoded.
    const std::string trace = tempPath("grp_cap_kind.grpbin");
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.obs.tracePath = trace;
    opts.obs.traceLevel = 1;
    runWorkload("mcf", config, opts);

    EXPECT_THROW(runReplayed("mcf", PrefetchScheme::GrpVar, trace),
                 std::exception);
}

TEST(CaptureReplay, CaptureAndReplayAreMutuallyExclusive)
{
    const std::string path = tempPath("grp_cap_both.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.replayPath = path;
    opts.capturePath = tempPath("grp_cap_both_out.grpbin");
    EXPECT_THROW(runWorkload("mcf", config, opts), std::exception);
}

TEST(CaptureReplay, MissingCaptureIsFatal)
{
    EXPECT_THROW(runReplayed("mcf", PrefetchScheme::GrpVar,
                             tempPath("grp_cap_nonexistent.grpbin")),
                 std::exception);
}

} // namespace
} // namespace grp
