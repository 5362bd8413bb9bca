/** @file Unit tests for the experiment runner plumbing. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness/runner.hh"
#include "sim/logging.hh"
#include "sim/run_observer.hh"

namespace grp
{
namespace
{

class RunnerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        unsetenv("GRP_INSTRUCTIONS");
    }

    void TearDown() override { unsetenv("GRP_INSTRUCTIONS"); }
};

TEST_F(RunnerTest, InstructionBudgetDefaults)
{
    EXPECT_EQ(instructionBudget(123), 123u);
}

TEST_F(RunnerTest, InstructionBudgetReadsEnvironment)
{
    setenv("GRP_INSTRUCTIONS", "777000", 1);
    EXPECT_EQ(instructionBudget(123), 777'000u);
}

TEST_F(RunnerTest, MalformedEnvironmentIsFatal)
{
    // Silent atoi-style fallback ran the wrong experiment for hours
    // at paper-scale budgets; malformed knobs now abort up front.
    setenv("GRP_INSTRUCTIONS", "nonsense", 1);
    EXPECT_THROW(instructionBudget(123), std::runtime_error);
    setenv("GRP_INSTRUCTIONS", "-5", 1);
    EXPECT_THROW(instructionBudget(123), std::runtime_error);
    setenv("GRP_INSTRUCTIONS", "20k", 1);
    EXPECT_THROW(instructionBudget(123), std::runtime_error);
    // Empty still means unset; zero still defers to the fallback.
    setenv("GRP_INSTRUCTIONS", "", 1);
    EXPECT_EQ(instructionBudget(123), 123u);
    setenv("GRP_INSTRUCTIONS", "0", 1);
    EXPECT_EQ(instructionBudget(123), 123u);
}

TEST_F(RunnerTest, WarmupDefaultsToAQuarter)
{
    SimConfig config;
    RunOptions opts;
    opts.maxInstructions = 40'000; // Warmup defaults to 10'000.
    const RunResult result = runWorkload("crafty", config, opts);
    // The measured segment is maxInstructions long (within the
    // retire-width tolerance), not max + warmup.
    EXPECT_LT(result.instructions, 41'000u);
    EXPECT_GT(result.instructions, 39'000u);
}

TEST_F(RunnerTest, ZeroWarmupMeasuresEverything)
{
    SimConfig config;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    opts.warmupInstructions = 0;
    const RunResult result = runWorkload("crafty", config, opts);
    EXPECT_GE(result.instructions + 4, 20'000u);
}

TEST_F(RunnerTest, MissRateUsesDemandAccesses)
{
    RunResult result;
    result.l2DemandAccesses = 200;
    result.l2MissesTotal = 50;
    EXPECT_DOUBLE_EQ(result.missRatePct(), 25.0);
    RunResult empty;
    EXPECT_DOUBLE_EQ(empty.missRatePct(), 0.0);
}

TEST_F(RunnerTest, AccuracyClampsAndGuards)
{
    RunResult result;
    EXPECT_DOUBLE_EQ(result.accuracy(), 0.0);
    result.prefetchFills = 10;
    result.usefulPrefetches = 5;
    EXPECT_DOUBLE_EQ(result.accuracy(), 0.5);
    result.usefulPrefetches = 15; // Warmup boundary artefact.
    EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
}

TEST_F(RunnerTest, SeedChangesIrregularRuns)
{
    SimConfig config;
    RunOptions a, b;
    a.maxInstructions = b.maxInstructions = 20'000;
    a.seed = 1;
    b.seed = 2;
    const RunResult ra = runWorkload("twolf", config, a);
    const RunResult rb = runWorkload("twolf", config, b);
    EXPECT_NE(ra.cycles, rb.cycles);
}

TEST_F(RunnerTest, ResultCarriesSchemeAndPerfection)
{
    SimConfig config;
    config.scheme = PrefetchScheme::Srp;
    RunOptions opts;
    opts.maxInstructions = 10'000;
    const RunResult result = runWorkload("gzip", config, opts);
    EXPECT_EQ(result.scheme, PrefetchScheme::Srp);
    EXPECT_EQ(result.perfection, Perfection::None);
    EXPECT_EQ(result.workload, "gzip");
}

/** A periodic observer that logs its firings; stops the run at
 *  @p stop_at when set. */
class Periodic : public RunObserver
{
  public:
    Periodic(char name, Tick period, std::string &log,
             Tick stop_at = kMaxTick)
        : name_(name), period_(period), stopAt_(stop_at), log_(log)
    {
    }

    Tick
    nextDeadline(Tick now) const override
    {
        return (now + period_ - 1) / period_ * period_;
    }

    bool
    onDeadline(Tick now) override
    {
        log_ += name_ + std::to_string(now) + " ";
        return now != stopAt_;
    }

  private:
    char name_;
    Tick period_;
    Tick stopAt_;
    std::string &log_;
};

/** The scheduler's contract: the cached deadline is the minimum over
 *  observers, equal deadlines fire in registration order, and an
 *  observer that ends the run stops later ones at the same tick. */
TEST(RunObservers, EqualDeadlinesFireInRegistrationOrder)
{
    std::string log;
    Periodic a('a', 4, log, 24), b('b', 6, log);
    RunObserver idle;
    RunObservers observers;
    observers.add(a);
    observers.add(idle);
    observers.add(b);
    EXPECT_EQ(observers.nextRetireMark(), kNoRetireMark);
    Tick now = observers.nextDeadline(1);
    while (observers.fireDeadline(now))
        now = observers.nextDeadline(now + 1);
    EXPECT_EQ(now, 24u);
    EXPECT_EQ(log, "a4 b6 a8 a12 b12 a16 b18 a20 a24 ");
}

} // namespace
} // namespace grp
