/**
 * @file
 * The stall fast-forward equivalence contract: with GRP_FAST_FORWARD
 * on (the default) the runner batch-applies skipped stall cycles, and
 * every exported statistic must come out exactly as if each cycle had
 * been ticked individually. These tests run the same configurations
 * with the fast-forward enabled and disabled and require the full
 * counter snapshots to be equal, and check that the deadlock watchdog
 * still fires from a fast-forwarded stall.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "cpu/cpu.hh"
#include "harness/suite.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

/** Counter snapshot without the hostProf group (wall-clock phase
 *  accounting legitimately differs between the two stepping modes). */
std::map<std::string, uint64_t>
simCounters(const RunResult &result)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : result.stats.counters) {
        if (name.rfind("hostProf.", 0) != 0)
            out.emplace(name, value);
    }
    return out;
}

class FastForwardEquivalence
    : public ::testing::TestWithParam<PrefetchScheme>
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        opts.maxInstructions = 30'000;
        opts.warmupInstructions = 5'000;
    }

    void TearDown() override { unsetenv("GRP_FAST_FORWARD"); }

    RunResult
    runWith(const char *workload, const char *fast_forward)
    {
        setenv("GRP_FAST_FORWARD", fast_forward, 1);
        return runScheme(workload, GetParam(), opts);
    }

    RunOptions opts;
};

TEST_P(FastForwardEquivalence, StatsAreIdenticalToPerCycleStepping)
{
    for (const char *workload : {"mcf", "art"}) {
        const RunResult ff = runWith(workload, "1");
        const RunResult step = runWith(workload, "0");
        EXPECT_EQ(ff.instructions, step.instructions) << workload;
        EXPECT_EQ(ff.cycles, step.cycles) << workload;
        EXPECT_EQ(ff.trafficBytes, step.trafficBytes) << workload;
        EXPECT_EQ(simCounters(ff), simCounters(step)) << workload;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FastForwardEquivalence,
    ::testing::Values(PrefetchScheme::None, PrefetchScheme::Srp,
                      PrefetchScheme::GrpVar,
                      PrefetchScheme::GrpAdaptive),
    [](const ::testing::TestParamInfo<PrefetchScheme> &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/**
 * Every periodic observer on at once. With a 1000-cycle bucket the
 * time-series, adaptive-epoch (2048) and stop-poll (16384) deadlines
 * fall apart and sometimes coincide, and fast-forward must stop at
 * each one: the counters and every artefact must come out byte for
 * byte as under per-cycle stepping.
 */
TEST(FastForwardObservers, ArtefactsAreIdenticalToPerCycleStepping)
{
    setQuiet(true);
    for (const char *workload : {"mcf", "art"}) {
        std::map<std::string, uint64_t> counters[2];
        std::map<std::string, std::string> artefacts[2];
        for (int ff = 0; ff < 2; ++ff) {
            const std::string stem = ::testing::TempDir() + "grp_ff_" +
                                     workload + (ff ? "_on" : "_off");
            RunOptions opts;
            opts.maxInstructions = 30'000;
            opts.warmupInstructions = 5'000;
            ObsOptions &o = opts.obs;
            o.timeseriesPath = stem + ".timeseries.json";
            o.timeseriesBucket = 1000;
            o.pulsePath = stem + ".pulse.jsonl";
            o.shadow = true;
            o.siteProfilePath = stem + ".sites.json";
            o.tracePath = stem + ".grpbin";
            o.traceLevel = 2;
            setenv("GRP_FAST_FORWARD", ff ? "1" : "0", 1);
            counters[ff] = simCounters(
                runScheme(workload, PrefetchScheme::GrpAdaptive, opts));
            unsetenv("GRP_FAST_FORWARD");
            for (const std::string *path :
                 {&o.timeseriesPath, &o.siteProfilePath, &o.tracePath}) {
                artefacts[ff][path->substr(stem.size())] = slurp(*path);
                std::remove(path->c_str());
            }
            std::remove(o.pulsePath.c_str());
        }
        EXPECT_EQ(counters[1], counters[0]) << workload;
        for (const auto &[suffix, bytes] : artefacts[0]) {
            EXPECT_FALSE(bytes.empty()) << workload << suffix;
            EXPECT_TRUE(artefacts[1][suffix] == bytes)
                << workload << suffix << " differs with fast-forward";
        }
    }
}

/** A canned trace source (one op per next() call). */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (pos_ >= ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

  private:
    std::vector<TraceOp> ops_;
    size_t pos_ = 0;
};

/**
 * The watchdog survives fast-forwarding: the runner clamps every
 * skip at Cpu::deadlockTick(), so a genuinely wedged pipeline (here:
 * a load whose memory system is never ticked, so the demand never
 * reaches DRAM) panics on the first real tick at the clamp instead
 * of being skipped past silently.
 */
TEST(FastForwardDeadlock, WatchdogFiresAtTheSkipClamp)
{
    setQuiet(true);
    SimConfig config;
    config.deadlockCycles = 1'000;

    EventQueue events;
    MemorySystem mem(config, events);
    VectorTrace trace({TraceOp::load(0x10000, 0)});
    Cpu cpu(config, mem, events, trace, nullptr);

    // Issue the load (an L1/L2 miss that queues a DRAM demand which
    // is never served) and drain the trace.
    Tick cycle = 0;
    for (; cycle < 4; ++cycle) {
        events.advanceTo(cycle);
        cpu.tick();
    }

    // The pipeline is now a pure stall the runner would fast-forward.
    const Cpu::StallState st = cpu.stallState(cycle - 1);
    ASSERT_TRUE(st.stalled);
    ASSERT_EQ(st.readyTick, kMaxTick); // Waiting on the lost load.

    // Skip exactly to the watchdog clamp, as the runner does...
    const Tick target = cpu.deadlockTick();
    ASSERT_GT(target, cycle);
    cpu.fastForward(target - cycle, st.robFullPath);
    cycle = target;

    // ...and the first per-cycle tick at the clamp must panic.
    events.advanceTo(cycle);
    EXPECT_THROW(cpu.tick(), std::logic_error);
}

} // namespace
} // namespace grp
